"""Relation classification heads.

Three interchangeable heads over a d-dim pair embedding: a plain linear
baseline, a sampling head that draws logits from a predicted Gaussian and
averages the resulting probabilities, and a mixture head that scores each
class with its own K-component 1-D Gaussian mixture over a learned scalar
projection. All heads return (class probabilities, uncertainty report) from
``predict`` so the model can swap them freely.

Single-label mode treats the C outputs as one categorical distribution;
multi-label mode treats them as C independent Bernoullis.

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
PROB_FLOOR = 1e-12

MODES = ("single", "multi")


@dataclass
class UncertaintyReport:
    """aleatoric: mean predicted variance; epistemic: entropy of the mean
    prediction (nats). Multi-label entropy is the mean per-class Bernoulli
    entropy, single-label the categorical entropy (at most log C). The rows
    arrays hold the per-sample values behind the two aggregates."""
    aleatoric: float
    epistemic: float
    aleatoric_rows: np.ndarray | None = None
    epistemic_rows: np.ndarray | None = None


def _check_mode(mode: str):
    if mode not in MODES:
        raise ContractError(f"label mode must be one of {MODES}, got '{mode}'")


def _activate(logits: nc.Tensor, mode: str) -> nc.Tensor:
    return nc.softmax(logits, axis=-1) if mode == "single" else nc.sigmoid(logits)


def entropy_rows(probs: np.ndarray, mode: str) -> np.ndarray:
    """Per-sample prediction entropy in nats; accepts (C,) or (N, C)."""
    raw = np.atleast_2d(np.asarray(probs, dtype=np.float64))
    p = np.clip(raw, PROB_FLOOR, 1.0)
    if mode == "single":
        return -(p * np.log(p)).sum(axis=-1)
    q = np.clip(1.0 - raw, PROB_FLOOR, 1.0)
    return -(p * np.log(p) + q * np.log(q)).mean(axis=-1)


def probability_loss(probs: nc.Tensor, target, mode: str) -> nc.Tensor:
    """Negative log mean probability at the target (single-label) or mean
    binary cross-entropy over per-class mean probabilities (multi-label)."""
    _check_mode(mode)
    n = probs.shape[-1]
    if mode == "single":
        target = int(target)
        if not 0 <= target < n:
            raise ContractError(f"target {target} outside [0, {n})")
        return -nc.log(nc.maximum(probs[target], PROB_FLOOR))
    target = np.asarray(target, dtype=np.float64)
    if target.shape != probs.shape:
        raise ContractError(f"target shape {target.shape} != probs shape {probs.shape}")
    y = nc.Tensor(target)
    p = nc.maximum(probs, PROB_FLOOR)
    q = nc.maximum(1.0 - probs, PROB_FLOOR)
    return -(y * nc.log(p) + (1.0 - y) * nc.log(q)).mean()


# ---------------------------------------------------------------------------
# linear baseline
# ---------------------------------------------------------------------------

class LinearHead(nc.Module):
    """Plain logits head; the degenerate reference for the sampling head."""

    def __init__(self, d: int, n_classes: int, rng: nc.Rng, mode: str = "single"):
        _check_mode(mode)
        self.lin = nc.Linear(d, n_classes, rng)
        self.mode = mode
        self.n_classes = n_classes

    def predict(self, z: nc.Tensor, rng: nc.Rng | None = None, training: bool = False):
        probs = _activate(self.lin(z), self.mode)
        ent = entropy_rows(probs.data, self.mode)
        report = UncertaintyReport(0.0, float(ent.mean()),
                                   np.zeros_like(ent), ent)
        return probs, report


# ---------------------------------------------------------------------------
# Monte Carlo sampling head
# ---------------------------------------------------------------------------

class BayesianHead(nc.Module):
    """Predicts per-class logit mean and log-variance; averages activated
    probabilities over S reparameterized draws logit = mu + eps * sigma.

    When every predicted variance is exactly zero (reachable only by clamping
    the log-variance far negative), the sample mean is computed in closed form
    as the activation of mu, making the degenerate case bit-equal to the
    linear head and independent of S.
    """

    def __init__(self, d: int, n_classes: int, rng: nc.Rng, s_train: int = 5,
                 s_eval: int = 20, mode: str = "single"):
        _check_mode(mode)
        if s_train < 1 or s_eval < 1:
            raise ContractError("sample counts must be >= 1")
        self.mu = nc.Linear(d, n_classes, rng.spawn(0))
        self.logvar = nc.Linear(d, n_classes, rng.spawn(1))
        self.s_train = s_train
        self.s_eval = s_eval
        self.mode = mode
        self.n_classes = n_classes

    def predict(self, z: nc.Tensor, rng: nc.Rng | None = None, training: bool = False,
                n_samples: int | None = None):
        s = n_samples if n_samples is not None else (self.s_train if training else self.s_eval)
        if s < 1:
            raise ContractError("sample count must be >= 1")
        mu = self.mu(z)
        logvar = self.logvar(z)
        var = nc.exp(logvar)
        if np.all(var.data == 0.0):
            probs = _activate(mu, self.mode)
            ent = entropy_rows(probs.data, self.mode)
            return probs, UncertaintyReport(0.0, float(ent.mean()),
                                            np.zeros_like(ent), ent)
        if rng is None:
            raise ContractError("sampling requires an Rng")
        sigma = nc.exp(logvar * 0.5)
        eps = nc.Tensor(rng.normals((s,) + mu.shape))
        draws = mu + eps * sigma                # (s, ..., C) by broadcast
        probs = _activate(draws, self.mode).mean(axis=0)
        ent = entropy_rows(probs.data, self.mode)
        ale = np.atleast_1d(var.data.mean(axis=-1))
        report = UncertaintyReport(float(var.data.mean()), float(ent.mean()),
                                   ale, ent)
        return probs, report


# ---------------------------------------------------------------------------
# Gaussian mixture head
# ---------------------------------------------------------------------------

def gmm_density(score: float, means, variances, weights) -> float:
    """Mixture density sum_k w_k N(score | mu_k, var_k), evaluated in log
    space so widely separated components cannot underflow each other."""
    means = np.asarray(means, dtype=np.float64)
    variances = np.asarray(variances, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if means.size < 1 or means.shape != variances.shape or means.shape != weights.shape:
        raise ContractError("component parameter shapes must match, K >= 1")
    if np.any(variances <= 0):
        raise ContractError("component variances must be positive")
    log_pdf = -0.5 * (LOG_2PI + np.log(variances)) - (score - means) ** 2 / (2.0 * variances)
    return float(np.exp(_np_lse(np.log(weights) + log_pdf)))


def _np_lse(x: np.ndarray) -> float:
    shift = x.max()
    return float(shift + np.log(np.exp(x - shift).sum()))


class GmmPlusHead(nc.Module):
    """Per-class K-component mixtures over learned scalar class scores.

    Each class c owns means mu_{c,k}, raw variance parameters rho_{c,k}
    (variance = sigma_min + softplus(rho)) and mixing logits normalized by a
    softmax over the K components. The class logit is the mixture
    log-density of the projected score plus a per-class calibration bias.
    Training-time mean perturbation adds tau-scaled Gaussian noise to the
    component means; a frequency-weighted hinge penalizes variances that dip
    under sigma_target^2, pressing rare-class components to stay wide.
    """

    def __init__(self, d: int, n_classes: int, rng: nc.Rng, k: int = 3,
                 sigma_min: float = 1e-3, sigma_target: float = 0.1,
                 tau: float = 0.01, lam: float = 0.1, mode: str = "single"):
        _check_mode(mode)
        if k < 1:
            raise ContractError("component count K must be >= 1")
        if sigma_min <= 0:
            raise ContractError("sigma_min must be positive")
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

    def min_variance(self) -> float:
        return float(self.variances().data.min())

    def mixture_weights(self) -> np.ndarray:
        return nc.softmax(self.mix, axis=-1).data

    def perturbed_means(self, rng: nc.Rng | None, training: bool) -> nc.Tensor:
        """Component means, plus tau-scaled Gaussian noise during training.
        The noise is a constant on the tape, so gradients still reach the
        underlying means."""
        if not training or self.tau == 0.0:
            return self.means
        if rng is None:
            raise ContractError("mean perturbation requires an Rng")
        return self.means + nc.Tensor(self.tau * rng.normals((self.n_classes, self.k)))

    def class_logits(self, z: nc.Tensor, rng: nc.Rng | None = None,
                     training: bool = False) -> nc.Tensor:
        if z.shape[-1] != self.proj.w.shape[0]:
            raise ContractError(f"embedding dim {z.shape[-1]} != head input dim "
                                f"{self.proj.w.shape[0]}")
        raw = self.proj(z)                       # (..., C) scalar class scores
        scores = nc.reshape(raw, raw.shape + (1,))
        means = self.perturbed_means(rng, training)
        var = self.variances()
        log_pdf = -0.5 * (LOG_2PI + nc.log(var)) - (scores - means) ** 2.0 / (2.0 * var)
        log_pi = nc.log_softmax(self.mix, axis=-1)
        log_density = nc.log_sum_exp(log_pi + log_pdf, axis=-1)
        return log_density + self.bias

    def predict(self, z: nc.Tensor, rng: nc.Rng | None = None, training: bool = False):
        logits = self.class_logits(z, rng, training)
        probs = _activate(logits, self.mode)
        pi = self.mixture_weights()
        # class-level mixture variances: the same for every sample in a batch
        aleatoric = float((pi * self.variances().data).sum(axis=-1).mean())
        ent = entropy_rows(probs.data, self.mode)
        report = UncertaintyReport(aleatoric, float(ent.mean()),
                                   np.full_like(ent, aleatoric), ent)
        return probs, report

    def regularizer(self, prior: FrequencyPrior) -> nc.Tensor:
        """lam * sum_c w_c sum_k max(0, sigma_target^2 - var_{c,k}) with
        w_c = log(1/(f_c + eps)) normalized to sum 1: rare classes pay more
        for narrow components."""
        if prior.n_classes != self.n_classes:
            raise ContractError(f"prior covers {prior.n_classes} classes, "
                                f"head has {self.n_classes}")
        if self.lam == 0.0:
            return nc.Tensor(0.0)
        raw = prior.log_inverse()
        weights = nc.Tensor(raw / raw.sum())
        hinge = nc.maximum(self.sigma_target**2 - self.variances(), 0.0)
        return self.lam * (weights * hinge.sum(axis=-1)).sum()


def build_head(kind: str, d: int, n_classes: int, rng: nc.Rng, mode: str,
               **kwargs) -> nc.Module:
    if kind == "linear":
        return LinearHead(d, n_classes, rng, mode=mode)
    if kind == "bayesian":
        return BayesianHead(d, n_classes, rng, mode=mode, **kwargs)
    if kind == "gmm_plus":
        return GmmPlusHead(d, n_classes, rng, mode=mode, **kwargs)
    raise ContractError(f"unknown head kind '{kind}'")
