"""Frequency prior, gate values, and the blended feature correction."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fremure import freqgate as fg
from fremure import numcore as nc
from fremure.errors import ContractError
from gradcheck import finite_diff_check

# ---------------------------------------------------------------------------
# FrequencyPrior
# ---------------------------------------------------------------------------


def test_frequencies_direct_ratio():
    prior = fg.FrequencyPrior([3, 1])
    assert np.allclose(prior.f, [0.75, 0.25])
    assert prior.f.sum() == pytest.approx(1.0, abs=1e-12)


def test_frequencies_uniform():
    prior = fg.FrequencyPrior([1, 1, 1, 1])
    assert np.allclose(prior.f, 0.25)


def test_frequencies_match_recount_of_zipf_label_stream():
    # draw labels from a Zipf pmf, then the prior over the raw counts must
    # equal brute-force normalization of the same stream
    ranks = np.arange(1, 11, dtype=np.float64)
    pmf = ranks**-1.5 / (ranks**-1.5).sum()
    labels = nc.categorical_from_uniforms(pmf, nc.Rng(5150).uniforms(20000))
    counts = np.bincount(labels, minlength=10)
    prior = fg.FrequencyPrior(counts)
    assert np.allclose(prior.f, counts / counts.sum(), atol=0)


def test_frequencies_zero_count_class_allowed():
    prior = fg.FrequencyPrior([5, 0, 5])
    assert prior.f[1] == 0.0
    assert np.all(np.isfinite(prior.log_inverse()))


def test_frequencies_reject_degenerate_counts():
    with pytest.raises(ContractError):
        fg.FrequencyPrior([0, 0, 0])
    with pytest.raises(ContractError):
        fg.FrequencyPrior([2, -1])
    with pytest.raises(ContractError):
        fg.FrequencyPrior([])


# ---------------------------------------------------------------------------
# gate_values
# ---------------------------------------------------------------------------


def _manual_gate(w: np.ndarray, b: np.ndarray) -> fg.FrequencyGate:
    gate = fg.FrequencyGate(w.shape[0], w.shape[1], nc.Rng(0))
    gate.w.data = np.array(w, dtype=np.float64)
    gate.b.data = np.array(b, dtype=np.float64)
    return gate


def _gate(prior: fg.FrequencyPrior, gate: fg.FrequencyGate) -> nc.Tensor:
    return fg.gate_values(prior.log_inverse(), gate.w, gate.b)


def test_gate_zero_weights_give_half():
    prior = fg.FrequencyPrior([9, 1, 4])
    gate = _manual_gate(np.zeros((3, 5)), np.zeros(5))
    assert np.allclose(_gate(prior, gate).data, 0.5)


def test_gate_identity_weights_closed_form():
    # sigmoid(ln(1/(f + eps))) = 1/(1 + f + eps)
    prior = fg.FrequencyPrior([1, 1])
    gate = _manual_gate(np.eye(2), np.zeros(2))
    half = 1 / (1.5 + fg.EPS)
    assert np.allclose(_gate(prior, gate).data, [half, half], rtol=1e-15, atol=0)

    skew = fg.FrequencyPrior([9, 1])
    got = _gate(skew, gate).data
    assert got == pytest.approx([1 / (1.9 + fg.EPS), 1 / (1.1 + fg.EPS)], abs=1e-12)


def test_gate_strictly_inside_unit_interval():
    prior = fg.FrequencyPrior([1000000, 1])
    gate = _manual_gate(nc.Rng(1).normals((2, 8)) * 50.0, np.zeros(8))
    vals = _gate(prior, gate).data
    assert np.all(vals > 0.0) and np.all(vals < 1.0)


def test_gate_monotone_in_frequency_with_identity_weights():
    # rarer class => larger gate input => larger gate value
    prior = fg.FrequencyPrior([50, 30, 15, 5])
    gate = _manual_gate(np.eye(4), np.zeros(4))
    vals = _gate(prior, gate).data
    order = np.argsort(prior.f)  # ascending frequency
    assert np.all(np.diff(vals[order]) < 0)


def test_gate_init_starts_balanced():
    # small-noise W and zero b keep the initial gate near one half
    prior = fg.FrequencyPrior([100, 10, 1])
    gate = fg.FrequencyGate(3, 16, nc.Rng(77))
    vals = _gate(prior, gate).data
    assert np.all(np.abs(vals - 0.5) < 0.15)


def test_stacked_gates_equal_each_gate_alone():
    # the form the generator runs: T priors' signals zero-padded to the
    # widest class count, with the T gates' weight rows padded to match
    priors = [fg.FrequencyPrior([5, 3, 2]), fg.FrequencyPrior([9, 1]),
              fg.FrequencyPrior([4, 4, 1, 7])]
    gates = [fg.FrequencyGate(p.f.size, 6, nc.Rng(80).spawn(i))
             for i, p in enumerate(priors)]
    for gate in gates:
        gate.b.data = nc.Rng(81).normals(6)
    signal = np.zeros((3, 1, 4))
    w = np.zeros((3, 4, 6))
    for t, (prior, gate) in enumerate(zip(priors, gates)):
        signal[t, 0, :prior.f.size] = prior.log_inverse()
        w[t, :prior.f.size] = gate.w.data
    b = np.stack([gate.b.data for gate in gates])
    got = fg.gate_values(signal, nc.Tensor(w), nc.Tensor(b)).data
    for t, (prior, gate) in enumerate(zip(priors, gates)):
        assert np.allclose(got[t, 0], _gate(prior, gate).data, rtol=1e-14, atol=0)


# ---------------------------------------------------------------------------
# frequency_correct
# ---------------------------------------------------------------------------


def test_correct_endpoints():
    rng = nc.Rng(21)
    x = rng.normals((4, 6))
    ln = nc.layer_norm(nc.Tensor(x)).data
    all_on = fg.frequency_correct(nc.Tensor(x), nc.Tensor(np.ones(6))).data
    all_off = fg.frequency_correct(nc.Tensor(x), nc.Tensor(np.zeros(6))).data
    assert np.array_equal(all_on, ln)
    assert np.array_equal(all_off, x)


def test_correct_half_gate_two_point_row():
    got = fg.frequency_correct(nc.Tensor([1.0, -1.0]), nc.Tensor(np.full(2, 0.5))).data
    expect = 0.5 * (1.0 + 0.9999950000374997)
    assert got == pytest.approx([expect, -expect], abs=1e-15)


@given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=2, max_size=8),
       st.floats(0.0, 1.0))
def test_correct_betweenness(row, gate_value):
    x = np.asarray(row)
    ln = nc.layer_norm(nc.Tensor(x)).data
    out = fg.frequency_correct(nc.Tensor(x), nc.Tensor(np.full(x.size, gate_value))).data
    lo = np.minimum(x, ln) - 1e-12
    hi = np.maximum(x, ln) + 1e-12
    assert np.all(out >= lo) and np.all(out <= hi)


# ---------------------------------------------------------------------------
# gradients through the full correction
# ---------------------------------------------------------------------------


def test_gate_and_correction_gradients_match_fd():
    prior = fg.FrequencyPrior([40, 9, 1])
    rng = nc.Rng(303)
    x_fixed = nc.Tensor(rng.normals((5, 6)))
    readout = nc.Tensor(rng.normals((5, 6)))

    def through_weights(w):
        signal = nc.Tensor(prior.log_inverse()[None])
        g = nc.sigmoid(nc.matmul(signal, w))
        corrected = g * nc.layer_norm(x_fixed) + (1.0 - g) * x_fixed
        return (corrected * readout).sum()

    w0 = nc.Tensor(rng.normals((3, 6)) * 0.1)
    assert finite_diff_check(through_weights, w0) < 1e-4

    gate = fg.FrequencyGate(3, 6, nc.Rng(4))

    def through_inputs(x):
        corrected = fg.frequency_correct(x, _gate(prior, gate))
        return (corrected * readout).sum()

    assert finite_diff_check(through_inputs, nc.Tensor(rng.normals((5, 6)))) < 1e-4
