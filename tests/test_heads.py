"""Classification heads: sampling behavior, mixture math, regularizer."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fremure import heads
from fremure import numcore as nc
from fremure.errors import ContractError
from fremure.freqgate import FrequencyPrior
from fremure.model import AblationFlags, ModelConfig, loss_attention, loss_multilabel_bce
from gradcheck import finite_diff_check

LOG_2PI = math.log(2.0 * math.pi)

# E[sigmoid(x)] and Var[sigmoid(x)] for x ~ N(1, 0.5), frozen from adaptive
# quadrature at high precision; drives the Monte Carlo consistency check.
MC_MEAN = 0.7115731678447065
MC_VAR = 0.01811536398703595


def _head(kind, d, c, rng, mode="single", **settings):
    """A head built as FremureModel builds one, with the settings of a
    ModelConfig that changes only ``settings``."""
    cfg = ModelConfig(flags=AblationFlags(head=kind), **settings)
    return heads.build_head(kind, d, c, rng, mode, **cfg.head_kwargs())

# ---------------------------------------------------------------------------
# the training losses on head logits
# ---------------------------------------------------------------------------


def test_loss_perfect_prediction_is_zero():
    logits = nc.Tensor([0.0, -1000.0, -1000.0])    # probabilities [1, 0, 0]
    assert loss_attention(logits, 0).item() == 0.0


def test_loss_uniform_two_class():
    logits = nc.Tensor([0.0, 0.0])
    assert loss_attention(logits, 1).item() == pytest.approx(math.log(2.0))


def test_loss_matches_direct_negative_log():
    logits = nc.Tensor(np.log([0.2, 0.5, 0.3]))
    got = loss_attention(logits, 2).item()
    assert got == pytest.approx(-math.log(0.3), abs=1e-15)


def test_loss_multi_label_matches_manual_bce():
    probs = np.array([0.9, 0.2, 0.5])
    target = np.array([1.0, 0.0, 1.0])
    got = loss_multilabel_bce(nc.Tensor(np.log(probs / (1.0 - probs))), target).item()
    expect = -(math.log(0.9) + math.log(0.8) + math.log(0.5)) / 3.0
    assert got == pytest.approx(expect, abs=1e-12)


# ---------------------------------------------------------------------------
# linear and sampling heads
# ---------------------------------------------------------------------------


def _clamped_bayesian(d=4, c=3, seed=1, mode="single"):
    head = _head("bayesian", d, c, nc.Rng(seed), mode=mode)
    head.logvar.w.data[:] = 0.0
    head.logvar.b.data[:] = -1e9  # exp underflows to exactly zero variance
    return head


def test_linear_head_single_label_probs_normalized():
    head = _head("linear", 5, 4, nc.Rng(2))
    _, probs, report = head.predict(nc.Tensor(nc.Rng(3).normals(5)))
    assert probs.data.sum() == pytest.approx(1.0, abs=1e-12)
    assert report.aleatoric_rows.tolist() == [0.0]
    assert 0.0 <= report.epistemic_rows[0] <= math.log(4) + 1e-12


def test_bayesian_zero_variance_equals_linear_head_exactly():
    bay = _clamped_bayesian(d=4, c=3, seed=4)
    lin = _head("linear", 4, 3, nc.Rng(99))
    lin.lin.w.data = np.array(bay.mu.w.data)
    lin.lin.b.data = np.array(bay.mu.b.data)
    z = nc.Tensor(nc.Rng(5).normals(4))
    l_bay, p_bay, rep = bay.predict(z, nc.Rng(6), training=True)
    l_lin, p_lin, _ = lin.predict(z)
    assert np.array_equal(l_bay.data, l_lin.data)
    assert np.array_equal(p_bay.data, p_lin.data)
    assert rep.aleatoric_rows.tolist() == [0.0]
    # independent of the sample count in the degenerate case
    bay.s_eval = 17
    _, p_again, _ = bay.predict(z, nc.Rng(7))
    assert np.array_equal(p_bay.data, p_again.data)


def test_bayesian_symmetric_means_give_near_uniform():
    head = _head("bayesian", 3, 2, nc.Rng(8), s_eval=10000)
    head.mu.w.data[:] = 0.0
    head.mu.b.data[:] = 0.0
    head.logvar.w.data[:] = 0.0
    head.logvar.b.data[:] = 0.0  # unit variance
    _, probs, _ = head.predict(nc.Tensor(np.zeros(3)), nc.Rng(9))
    assert probs.data == pytest.approx([0.5, 0.5], abs=0.02)


def test_bayesian_matches_independent_mc_oracle():
    # mu=[1,0], var=[0.25,0.25]: p_0 = E[sigmoid(x)] with x ~ N(1, 0.5)
    s = 10**6
    head = _head("bayesian", 2, 2, nc.Rng(10), s_eval=s)
    head.mu.w.data[:] = 0.0
    head.mu.b.data = np.array([1.0, 0.0])
    head.logvar.w.data[:] = 0.0
    head.logvar.b.data[:] = math.log(0.25)
    _, probs, _ = head.predict(nc.Tensor(np.zeros(2)), nc.Rng(11))
    se = math.sqrt(MC_VAR / s)
    assert abs(probs.data[0] - MC_MEAN) < 3 * se * 2  # head stream + oracle se margin
    # second, generator-independent estimate of the same expectation
    draws = np.random.default_rng(12).normal(1.0, math.sqrt(0.5), size=s)
    oracle = (1.0 / (1.0 + np.exp(-draws))).mean()
    combined = 3 * math.sqrt(2 * MC_VAR / s)
    assert abs(probs.data[0] - oracle) < combined


def test_bayesian_sampling_noise_shrinks_with_s():
    head = _head("bayesian", 3, 3, nc.Rng(13))
    z = nc.Tensor(nc.Rng(14).normals(3))
    master = nc.Rng(15)

    def spread(s, repeats=30):
        head.s_eval = s
        outs = [head.predict(z, master.spawn(s * 1000 + r))[1].data[0]
                for r in range(repeats)]
        return np.std(outs)

    assert spread(100) < spread(10)


def test_bayesian_report_fields():
    head = _head("bayesian", 3, 4, nc.Rng(16))
    head.logvar.w.data[:] = 0.0
    head.logvar.b.data[:] = math.log(0.3)
    _, probs, report = head.predict(nc.Tensor(nc.Rng(17).normals(3)), nc.Rng(18))
    assert report.aleatoric_rows == pytest.approx([0.3], abs=1e-12)
    assert 0.0 <= report.epistemic_rows[0] <= math.log(4) + 1e-12
    assert probs.data.sum() == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("mode", ("single", "multi"))
def test_bayesian_logits_activate_to_the_mean_of_the_draws(mode):
    head = _head("bayesian", 4, 5, nc.Rng(60), s_eval=7, mode=mode)
    head.logvar.b.data[:] = 1.0                  # wide draws
    z = nc.Tensor(nc.Rng(61).normals((3, 4)))
    _, probs, _ = head.predict(z, nc.Rng(62))
    mu = z.data @ head.mu.w.data + head.mu.b.data
    sigma = np.exp(0.5 * (z.data @ head.logvar.w.data + head.logvar.b.data))
    draws = mu + nc.Rng(62).normals((7, 3, 5)) * sigma
    if mode == "single":
        e = np.exp(draws - draws.max(axis=-1, keepdims=True))
        want = (e / e.sum(axis=-1, keepdims=True)).mean(axis=0)
    else:
        want = (1.0 / (1.0 + np.exp(-draws))).mean(axis=0)
    np.testing.assert_allclose(probs.data, want, rtol=1e-13, atol=0)


def test_bayesian_sampling_requires_an_rng():
    head = _head("bayesian", 3, 2, nc.Rng(20))
    with pytest.raises(ContractError, match="requires an Rng"):
        head.predict(nc.Tensor(np.zeros(3)), None)


def test_bayesian_reparameterized_gradients_match_fd():
    head = _head("bayesian", 3, 3, nc.Rng(22))
    z_fixed = nc.Tensor(nc.Rng(23).normals(3))

    def through_mu_weights(w):
        saved = head.mu.w
        head.mu.w = w
        try:
            # fresh generator per call keeps the noise constants identical
            logits, _, _ = head.predict(z_fixed, nc.Rng(24), training=True)
            return loss_attention(logits, 1)
        finally:
            head.mu.w = saved

    assert finite_diff_check(through_mu_weights, head.mu.w) < 1e-4


# ---------------------------------------------------------------------------
# mixture density: the test-side oracle for the mixture head's class logits
# ---------------------------------------------------------------------------


def _np_lse(x: np.ndarray) -> float:
    shift = x.max()
    return float(shift + np.log(np.exp(x - shift).sum()))


def _gmm_density(score: float, means, variances, weights) -> float:
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


def test_density_standard_normal_at_mean():
    got = _gmm_density(0.0, [0.0], [1.0], [1.0])
    assert got == pytest.approx(0.3989423, abs=1e-6)
    assert got == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-15)


def test_density_identical_components_collapse():
    for score in (-1.3, 0.0, 2.7):
        one = _gmm_density(score, [0.4], [0.8], [1.0])
        two = _gmm_density(score, [0.4, 0.4], [0.8, 0.8], [0.5, 0.5])
        assert two == pytest.approx(one, abs=1e-15)


def test_density_matches_naive_sum():
    rng = nc.Rng(25)
    means = rng.normals(3)
    variances = 0.05 + rng.uniforms(3)
    logits = rng.normals(3)
    weights = np.exp(logits) / np.exp(logits).sum()
    for score in rng.normals(100) * 2.0:
        naive = (weights / np.sqrt(2 * np.pi * variances)
                 * np.exp(-((score - means) ** 2) / (2 * variances))).sum()
        assert _gmm_density(score, means, variances, weights) == \
            pytest.approx(naive, rel=1e-12)


def test_density_separated_components_do_not_underflow():
    got = _gmm_density(0.0, [0.0, 100.0], [1e-3, 1e-3], [0.5, 0.5])
    assert np.isfinite(got) and got > 0.0


def test_density_contract_errors():
    with pytest.raises(ContractError):
        _gmm_density(0.0, [], [], [])
    with pytest.raises(ContractError):
        _gmm_density(0.0, [0.0], [0.0], [1.0])
    with pytest.raises(ContractError):
        _gmm_density(0.0, [0.0, 1.0], [1.0], [1.0])


# ---------------------------------------------------------------------------
# mixture head
# ---------------------------------------------------------------------------


def _inverse_softplus(y: float) -> float:
    return math.log(math.expm1(y))


def test_gmm_variances_respect_structural_floor():
    head = _head("gmm_plus", 4, 3, nc.Rng(26), k=2, sigma_min=1e-3)
    head.rho.data[:] = -1e6  # softplus underflows to 0
    assert head.variances().data.min() == pytest.approx(1e-3, abs=0)
    head.rho.data[:] = nc.Rng(27).normals((3, 2)) * 10.0
    assert head.variances().data.min() >= 1e-3


def test_gmm_mixture_weights_normalized():
    head = _head("gmm_plus", 4, 3, nc.Rng(28), k=4)
    head.mix.data = nc.Rng(29).normals((3, 4)) * 3.0
    pi = head.mixture_weights()
    assert np.allclose(pi.sum(axis=-1), 1.0, atol=1e-12)


def test_gmm_symmetric_classes_split_evenly():
    head = _head("gmm_plus", 4, 2, nc.Rng(30), k=2)
    head.proj.w.data[:] = 0.0
    head.proj.b.data[:] = 0.0
    head.means.data = np.array([[0.5, -0.5], [0.5, -0.5]])
    head.rho.data[:] = 0.0
    head.mix.data[:] = 0.0
    head.bias.data[:] = 0.0
    _, probs, _ = head.predict(nc.Tensor(np.zeros(4)))
    assert probs.data == pytest.approx([0.5, 0.5], abs=1e-15)


def test_gmm_dominated_class_posterior_vanishes():
    head = _head("gmm_plus", 4, 3, nc.Rng(31), k=1)
    head.proj.w.data[:] = 0.0
    head.proj.b.data[:] = 0.0
    head.means.data = np.array([[50.0], [0.0], [0.0]])  # class 0 far from its score
    head.rho.data[:] = 0.0
    head.mix.data[:] = 0.0
    _, probs, _ = head.predict(nc.Tensor(np.zeros(4)))
    assert probs.data[0] < 1e-100
    assert probs.data.sum() == pytest.approx(1.0, abs=1e-10)


def test_gmm_classify_composes_density_oracle():
    head = _head("gmm_plus", 5, 3, nc.Rng(32), k=3)
    head.mix.data = nc.Rng(33).normals((3, 3))
    head.rho.data = nc.Rng(34).normals((3, 3))
    z = nc.Tensor(nc.Rng(35).normals(5))
    _, probs, _ = head.predict(z)

    scores = z.data @ head.proj.w.data + head.proj.b.data
    var = head.sigma_min + np.logaddexp(0.0, head.rho.data)
    pi = np.exp(head.mix.data) / np.exp(head.mix.data).sum(axis=-1, keepdims=True)
    log_dens = np.array([
        math.log(_gmm_density(scores[c], head.means.data[c], var[c], pi[c]))
        for c in range(3)
    ])
    expect = np.exp(log_dens + head.bias.data)
    expect /= expect.sum()
    assert np.allclose(probs.data, expect, atol=1e-12)


@given(st.integers(0, 2**32 - 1))
def test_gmm_single_label_posterior_normalized(seed):
    rng = nc.Rng(seed)
    head = _head("gmm_plus", 4, 5, rng, k=2)
    head.mix.data = rng.normals((5, 2)) * 2.0
    _, probs, _ = head.predict(nc.Tensor(rng.normals(4)))
    assert probs.data.sum() == pytest.approx(1.0, abs=1e-10)
    assert np.all(probs.data >= 0.0)


def test_gmm_perturbation_semantics():
    head = _head("gmm_plus", 4, 3, nc.Rng(36), k=2, tau=0.0)
    assert head.perturbed_means(nc.Rng(37), training=True) is head.means

    head.tau = 0.1
    assert head.perturbed_means(nc.Rng(38), training=False) is head.means
    moved = head.perturbed_means(nc.Rng(39), training=True).data
    expect = head.means.data + 0.1 * nc.Rng(39).normals((3, 2))
    assert np.array_equal(moved, expect)


def test_gmm_regularizer_inactive_cases():
    prior = FrequencyPrior([5, 3, 2])
    head = _head("gmm_plus", 4, 3, nc.Rng(40), k=2)  # default var 0.694 >> 0.01
    assert head.regularizer(prior).item() == 0.0
    head.lam = 0.0
    head.rho.data[:] = -1e6  # variances at the floor, under the target
    assert head.regularizer(prior).item() == 0.0


def test_gmm_regularizer_single_class_hand_value():
    prior = FrequencyPrior([7])
    head = _head("gmm_plus", 4, 1, nc.Rng(41), k=1, sigma_min=1e-3,
                             sigma_target=0.1, lam=0.1)
    target_sq = 0.1**2
    head.rho.data[:] = _inverse_softplus(target_sq / 2.0 - 1e-3)
    got = head.regularizer(prior).item()
    assert got == pytest.approx(0.1 * target_sq / 2.0, rel=1e-10)


def test_gmm_regularizer_weights_rare_classes_harder():
    head = _head("gmm_plus", 4, 2, nc.Rng(42), k=1, lam=1.0)
    head.rho.data[:] = -1e6  # both classes violate the bound equally
    rare_first = FrequencyPrior([1, 99])
    rare_last = FrequencyPrior([99, 1])
    # symmetric violation, so swapping which class is rare preserves the value
    assert head.regularizer(rare_first).item() == \
        pytest.approx(head.regularizer(rare_last).item(), rel=1e-12)
    # and the rare class carries the larger share of the weight
    raw = rare_first.log_inverse()
    assert raw[0] / raw.sum() > 0.5


def test_gmm_gradients_match_fd():
    prior = FrequencyPrior([5, 3, 2])
    head = _head("gmm_plus", 4, 3, nc.Rng(44), k=2, lam=0.5)
    head.rho.data[:] = -3.0  # variances below target: regularizer active
    z_fixed = nc.Tensor(nc.Rng(45).normals(4))

    def swap_and_eval(attr, value):
        saved = getattr(head, attr)
        setattr(head, attr, value)
        try:
            logits, _, _ = head.predict(z_fixed, training=False)
            return loss_attention(logits, 2) + head.regularizer(prior)
        finally:
            setattr(head, attr, saved)

    for attr in ("means", "rho", "mix", "bias"):
        err = finite_diff_check(lambda val: swap_and_eval(attr, val), getattr(head, attr))
        assert err < 1e-4, f"{attr}: {err}"


def test_build_head_kinds():
    for kind, cls in (("linear", heads.LinearHead), ("bayesian", heads.BayesianHead),
                      ("gmm_plus", heads.GmmPlusHead)):
        assert isinstance(_head(kind, 4, 3, nc.Rng(48)), cls)
    # an unknown kind is the config's to reject, before any head is built
    with pytest.raises(ContractError, match="head must be one of"):
        ModelConfig(flags=AblationFlags(head="mlp")).validate()


def test_multi_label_mode_outputs_independent_probabilities():
    head = _head("gmm_plus", 4, 3, nc.Rng(50), mode="multi")
    _, probs, report = head.predict(nc.Tensor(nc.Rng(51).normals(4)))
    assert np.all((probs.data > 0.0) & (probs.data < 1.0))
    assert report.epistemic_rows.shape == (1,)
    assert report.epistemic_rows[0] <= math.log(2.0) + 1e-12
