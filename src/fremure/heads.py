"""Relation classification heads.

Three interchangeable heads over a d-dim pair embedding: a plain linear
baseline, a sampling head that draws logits from a predicted Gaussian and
averages the resulting probabilities, and a mixture head that scores each
class with its own K-component 1-D Gaussian mixture over a learned scalar
projection.

Every head produces logits and no probabilities: unnormalised class logits in
single-label mode, where the C outputs are one categorical distribution, and
per-class log-odds in multi-label mode, where they are C independent
Bernoullis. Losses take those logits, so a target probability that underflows
still has a finite loss and a gradient. ``Head.predict`` builds the
probabilities and the uncertainty report from the logits, the same way for
every head, so the model can swap heads freely.

The mixture head keeps every component variance at least sigma_min through a
softplus reparameterization, so no component can collapse onto a single
training point no matter where the raw parameter drifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .errors import ContractError
from .freqgate import FrequencyPrior

LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class UncertaintyReport:
    """Per-sample uncertainty. aleatoric_rows: predicted variance;
    epistemic_rows: entropy of the mean prediction (nats). Multi-label
    entropy is the mean per-class Bernoulli entropy, single-label the
    categorical entropy (at most log C)."""
    aleatoric_rows: np.ndarray
    epistemic_rows: np.ndarray


def _activate(logits: nc.Tensor, mode: str) -> nc.Tensor:
    """Probabilities from logits: softmax (single) or sigmoid (multi)."""
    return nc.softmax(logits) if mode == "single" else nc.sigmoid(logits)


def entropy_rows(logits: np.ndarray, mode: str) -> np.ndarray:
    """Per-sample entropy in nats of the prediction that ``logits`` give;
    accepts (C,) or (N, C). Log-probabilities come straight from the logits,
    so a vanishing probability adds exactly 0 rather than a clipped term."""
    x = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    if mode == "single":
        shifted = x - x.max(axis=-1, keepdims=True)
        log_p = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        return -(np.exp(log_p) * log_p).sum(axis=-1)
    log_p, log_q = -np.logaddexp(0.0, -x), -np.logaddexp(0.0, x)
    return -(np.exp(log_p) * log_p + np.exp(log_q) * log_q).mean(axis=-1)


class Head(nc.Module):
    """What the three heads share. A head class defines only
    ``logits_and_variance(z, rng, training)``: its logits for embeddings z,
    (d,) or (N, d), and its aleatoric variance, per row or one value for
    every row. Its label ``mode`` is "single" or "multi"; the model takes
    each task's from ``model.TYPE_MODES``, and ``model.ModelConfig`` holds
    and checks every other setting a head takes."""

    def predict(self, z: nc.Tensor, rng: nc.Rng | None = None,
                training: bool = False):
        """(logits, probabilities, uncertainty report)."""
        logits, variance = self.logits_and_variance(z, rng, training)
        ent = entropy_rows(logits.data, self.mode)
        ale = np.full(ent.shape, variance, dtype=np.float64)
        report = UncertaintyReport(ale, ent)
        return logits, _activate(logits, self.mode), report


# ---------------------------------------------------------------------------
# linear baseline
# ---------------------------------------------------------------------------

class LinearHead(Head):
    """Plain logits head; the degenerate reference for the sampling head."""

    def __init__(self, d: int, n_classes: int, rng: nc.Rng, mode: str):
        self.lin = nc.Linear(d, n_classes, rng)
        self.mode = mode

    def logits_and_variance(self, z: nc.Tensor, rng: nc.Rng | None = None,
                            training: bool = False):
        return self.lin(z), 0.0


# ---------------------------------------------------------------------------
# Monte Carlo sampling head
# ---------------------------------------------------------------------------

class BayesianHead(Head):
    """Predicts per-class logit mean and log-variance, and averages the
    activated probabilities over S reparameterized draws logit = mu + eps *
    sigma. Its logits are those whose activation is that mean, taken in log
    space: single-label, the log-sum-exp over draws of each draw's
    log-softmax; multi-label, the log-sum-exp over draws of log sigmoid(x)
    minus that of log sigmoid(-x). The log S of each mean cancels.

    When every predicted variance is exactly zero (reachable only by clamping
    the log-variance far negative), the logits are mu itself, making the
    degenerate case bit-equal to the linear head and independent of S.
    """

    def __init__(self, d: int, n_classes: int, rng: nc.Rng, mode: str,
                 s_train: int, s_eval: int):
        self.mu = nc.Linear(d, n_classes, rng.spawn(0))
        self.logvar = nc.Linear(d, n_classes, rng.spawn(1))
        self.s_train = s_train
        self.s_eval = s_eval
        self.mode = mode

    def logits_and_variance(self, z: nc.Tensor, rng: nc.Rng | None = None,
                            training: bool = False):
        s = self.s_train if training else self.s_eval
        mu = self.mu(z)
        logvar = self.logvar(z)
        var = np.exp(logvar.data)
        variance = var.mean(axis=-1)
        if np.all(var == 0.0):
            return mu, variance
        if rng is None:
            raise ContractError("sampling requires an Rng")
        sigma = nc.exp(logvar * 0.5)
        eps = nc.Tensor(rng.normals((s,) + mu.shape))
        draws = mu + eps * sigma                # (s, ..., C) by broadcast
        if self.mode == "single":
            return nc.log_sum_exp(nc.log_softmax(draws), axis=0), variance
        log_p = nc.log_sum_exp(-nc.softplus(-draws), axis=0)
        log_q = nc.log_sum_exp(-nc.softplus(draws), axis=0)
        return log_p - log_q, variance


# ---------------------------------------------------------------------------
# Gaussian mixture head
# ---------------------------------------------------------------------------

class GmmPlusHead(Head):
    """Per-class K-component mixtures over learned scalar class scores.

    Each class c owns means mu_{c,k}, raw variance parameters rho_{c,k}
    (variance = sigma_min + softplus(rho)) and mixing logits normalized by a
    softmax over the K components. The class logit is the mixture
    log-density of the projected score plus a per-class calibration bias.
    Training-time mean perturbation adds tau-scaled Gaussian noise to the
    component means; a frequency-weighted hinge penalizes variances that dip
    under sigma_target^2, pressing rare-class components to stay wide.
    """

    def __init__(self, d: int, n_classes: int, rng: nc.Rng, mode: str, k: int,
                 sigma_min: float, sigma_target: float, tau: float, lam: float):
        self.proj = nc.Linear(d, n_classes, rng.spawn(0))
        self.means = nc.Tensor(rng.spawn(1).uniform_range(-1.0, 1.0, (n_classes, k)),
                               requires_grad=True)
        self.rho = nc.Tensor(np.zeros((n_classes, k)), requires_grad=True)
        self.mix = nc.Tensor(np.zeros((n_classes, k)), requires_grad=True)
        self.bias = nc.Tensor(np.zeros(n_classes), requires_grad=True)
        self.k = k
        self.n_classes = n_classes
        self.sigma_min = sigma_min
        self.sigma_target = sigma_target
        self.tau = tau
        self.lam = lam
        self.mode = mode

    def variances(self) -> nc.Tensor:
        return self.sigma_min + nc.softplus(self.rho)

    def mixture_weights(self) -> np.ndarray:
        return nc.softmax(self.mix).data

    def perturbed_means(self, rng: nc.Rng | None, training: bool) -> nc.Tensor:
        """Component means, plus tau-scaled Gaussian noise during training.
        The noise is a constant on the tape, so gradients still reach the
        underlying means."""
        if not training or self.tau == 0.0:
            return self.means
        if rng is None:
            raise ContractError("mean perturbation requires an Rng")
        return self.means + nc.Tensor(self.tau * rng.normals((self.n_classes, self.k)))

    def logits_and_variance(self, z: nc.Tensor, rng: nc.Rng | None = None,
                            training: bool = False):
        raw = self.proj(z)                       # (..., C) scalar class scores
        scores = nc.reshape(raw, raw.shape + (1,))
        means = self.perturbed_means(rng, training)
        var = self.variances()
        log_pdf = -0.5 * (LOG_2PI + nc.log(var)) - (scores - means) ** 2.0 / (2.0 * var)
        log_pi = nc.log_softmax(self.mix)
        logits = nc.log_sum_exp(log_pi + log_pdf, axis=-1) + self.bias
        # class-level mixture variances: the same for every sample in a batch
        pi = self.mixture_weights()
        return logits, float((pi * var.data).sum(axis=-1).mean())

    def regularizer(self, prior: FrequencyPrior) -> nc.Tensor:
        """lam * sum_c w_c sum_k max(0, sigma_target^2 - var_{c,k}) with
        w_c = log(1/(f_c + eps)) normalized to sum 1: rare classes pay more
        for narrow components."""
        if self.lam == 0.0:
            return nc.Tensor(0.0)
        raw = prior.log_inverse()
        weights = nc.Tensor(raw / raw.sum())
        hinge = nc.maximum(self.sigma_target**2 - self.variances(), 0.0)
        return self.lam * (weights * hinge.sum(axis=-1)).sum()


_HEADS = {"linear": LinearHead, "bayesian": BayesianHead, "gmm_plus": GmmPlusHead}


def build_head(kind: str, d: int, n_classes: int, rng: nc.Rng, mode: str,
               **kwargs) -> Head:
    """The head of ``kind``, one of `model.HEAD_KINDS`, taking the settings
    `model.ModelConfig.head_kwargs` gives it."""
    return _HEADS[kind](d, n_classes, rng, mode, **kwargs)
