"""Dual-branch embedder: encoders, fusion, positional encoding, windows."""

import copy
import functools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fremure import dpeg
from fremure import freqgate as fg
from fremure import numcore as nc
from fremure.errors import ContractError
from fremure.model import FremureModel, ModelConfig
from gradcheck import finite_diff_check

# the settings a model takes by default; a test changes only what it names
CFG = ModelConfig()


def _window(w=CFG.window_w, s=CFG.window_s, mode=CFG.window_mode) -> dpeg.WindowConfig:
    return dpeg.WindowConfig(w, s, mode)


def _encoder(d, h, rng) -> dpeg.BranchEncoder:
    return dpeg.BranchEncoder(d, h, rng, CFG.ffn_mult)


def _dpeg(d, h, n_classes, rng, window=None, dual_branch=CFG.flags.dual_branch,
          frequency=CFG.flags.frequency) -> dpeg.Dpeg:
    """One generator: a stack of one task."""
    return dpeg.Dpeg(d, h, [n_classes], [rng], window or _window(), CFG.ffn_mult,
                     dual_branch, frequency)


def _task(module, t):
    """Slice t of a task-stacked module: a module of the same class whose
    every parameter is a view of that slice."""
    out = copy.deepcopy(module)
    for name, p in module.parameters().items():
        *path, attr = name.split(".")
        setattr(functools.reduce(getattr, path, out), attr, nc.Tensor(p.data[t]))
    return out


def _layout(frames, pair_ids) -> dpeg.ClipLayout:
    """The layout of one clip's rows, pair i being (subject i, object 0)."""
    zeros = np.zeros(len(frames))
    return dpeg.clip_layout(frames, pair_ids, zeros, zeros)

# ---------------------------------------------------------------------------
# test-side oracles
# ---------------------------------------------------------------------------


def _np_layer_norm(u, eps=1e-5):
    mu = u.mean(-1, keepdims=True)
    var = ((u - mu) ** 2).mean(-1, keepdims=True)
    return (u - mu) / np.sqrt(var + eps)


def _encoder_oracle(x: np.ndarray, enc: dpeg.BranchEncoder) -> np.ndarray:
    # step-by-step single-layer attention trace, independent of the tape
    lin = lambda u, layer: u @ layer.w.data + (0.0 if layer.b is None else layer.b.data)
    d, h = x.shape[-1], enc.h
    dh = d // h
    q, k, v = lin(x, enc.q), lin(x, enc.k), lin(x, enc.v)
    heads = []
    for i in range(h):
        sl = slice(i * dh, (i + 1) * dh)
        scores = q[:, sl] @ k[:, sl].T / math.sqrt(dh)
        e = np.exp(scores - scores.max(-1, keepdims=True))
        weights = e / e.sum(-1, keepdims=True)
        heads.append(weights @ v[:, sl])
    merged = np.concatenate(heads, axis=-1)
    x1 = _np_layer_norm(x + lin(merged, enc.o))
    return _np_layer_norm(x1 + lin(np.maximum(lin(x1, enc.ffn1), 0.0), enc.ffn2))


def _windows_oracle(z: nc.Tensor, frames, encoder, cfg: dpeg.WindowConfig) -> list:
    """The per-window loop that ``encode_global`` replaces: (start, encoded
    window) for each window, every window encoded by its own call."""
    x = z + nc.Tensor(dpeg.pe_at(frames, z.shape[-1]))
    length = z.shape[-2]
    w = min(cfg.w, length)
    return [(start, _encode(encoder, x[..., start:start + w, :]))
            for start in dpeg.window_starts(length, w, cfg.s)]


def _aggregate_oracle(windows, length: int, cfg: dpeg.WindowConfig) -> nc.Tensor:
    """The per-window scatter that ``aggregate_windows`` replaces: one
    (length, m) matmul per window, summed in window order, then scaled by
    the inverse of each position's summed weights."""
    total = np.zeros(length)
    acc = None
    for start, values in windows:
        m = values.shape[-2]
        weights = dpeg._window_weights(m, cfg.mode)
        scatter = np.zeros((length, m))
        scatter[np.arange(start, start + m), np.arange(m)] = weights
        term = nc.matmul(nc.Tensor(scatter), values)
        acc = term if acc is None else acc + term
        total[start:start + m] += weights
    return acc * nc.Tensor((1.0 / total)[:, None])


def _global(z, frames, encoder, cfg) -> nc.Tensor:
    """The batched global stage over one (..., L, d) sequence."""
    return dpeg.aggregate_windows(dpeg.encode_global(z, frames, encoder, cfg),
                                  len(frames), cfg)


# ---------------------------------------------------------------------------
# test-side helpers: one encoder, one branch, one generator alone
# ---------------------------------------------------------------------------


def _encode(enc: dpeg.BranchEncoder, x) -> nc.Tensor:
    """One encoder layer over x, (..., n, d), as the generator runs it."""
    x = x if isinstance(x, nc.Tensor) else nc.Tensor(x)
    return dpeg.encoder_layer(x, enc.weights(), enc.h)


def _zero_mixing(enc: dpeg.BranchEncoder):
    """Zero the attention output projection and the last FFN layer, leaving
    the layer's residual-plus-normalization path."""
    for layer in (enc.o, enc.ffn2):
        layer.w.data[:] = 0.0
        layer.b.data[:] = 0.0


def _tail_branch(x, prior: fg.FrequencyPrior, gate: fg.FrequencyGate,
                 enc: dpeg.BranchEncoder) -> nc.Tensor:
    """The tail branch as ``encode_stacked`` builds it: gate-blended
    normalization, then the branch's own encoder."""
    g = fg.gate_values(prior.log_inverse(), gate.w, gate.b)
    return _encode(enc, fg.frequency_correct(x, g))


def _run(dp: dpeg.Dpeg, feats, frames, pair_ids, prior) -> nc.Tensor:
    """One generator over one clip: the one-task case of ``encode_stacked``,
    rows aligned with ``feats``."""
    x = feats if isinstance(feats, nc.Tensor) else nc.Tensor(feats)
    z = dpeg.encode_stacked(dp, nc.reshape(x, (1,) + x.shape),
                            _layout(frames, pair_ids), [prior])
    return nc.reshape(z, x.shape)


# ---------------------------------------------------------------------------
# local branches
# ---------------------------------------------------------------------------


def test_encoder_rejects_indivisible_heads():
    # the rule lives in ModelConfig; FremureModel, the only builder of
    # encoders, refuses the config before any encoder exists
    with pytest.raises(ContractError, match="d=6 not divisible by h=4"):
        FremureModel(ModelConfig(d=6, h=4), nc.Rng(0))


def test_encoder_residual_only_path_is_layer_norm_chain():
    enc = _encoder(6, 2, nc.Rng(1))
    _zero_mixing(enc)
    x = nc.Rng(2).normals((1, 6))
    got = _encode(enc, x).data
    assert np.allclose(got, _np_layer_norm(_np_layer_norm(x)), atol=1e-12)


def test_encoder_permutation_equivariance():
    enc = _encoder(8, 2, nc.Rng(3))
    x = nc.Rng(4).normals((5, 8))
    perm = nc.Rng(5).permutation(5)
    straight = _encode(enc, x).data
    shuffled = _encode(enc, x[perm]).data
    assert np.allclose(shuffled, straight[perm], atol=1e-12)


def test_encoder_matches_scripted_attention_trace():
    enc = _encoder(8, 4, nc.Rng(6))
    x = nc.Rng(7).normals((3, 8))
    assert np.allclose(_encode(enc, x).data, _encoder_oracle(x, enc), atol=1e-12)


def test_stacked_encoders_equal_each_encoder_alone():
    # slice t of the stack starts as exactly what encoder t draws alone, and
    # runs as encoder t does
    encs = [_encoder(8, 2, nc.Rng(60).spawn(i)) for i in range(3)]
    stacked = dpeg.stack_tasks([_encoder(8, 2, nc.Rng(60).spawn(i)) for i in range(3)])
    assert stacked.q.w.shape == (3, 8, 8) and stacked.k.b is None
    for got, want in zip(stacked.weights(), zip(*(e.weights() for e in encs))):
        assert got.requires_grad and got._parents == ()
        assert np.array_equal(got.data, np.stack([w.data for w in want]))
    x = nc.Rng(61).normals((3, 2, 4, 8))          # (task, sets, tokens, d)
    got = _encode(stacked, x).data
    for t, enc in enumerate(encs):
        want = np.stack([_encoder_oracle(x[t, i], enc) for i in range(2)])
        assert np.allclose(got[t], want, atol=1e-12)


def test_tail_branch_with_zero_gate_collapses_to_head():
    # with the tail encoder a copy of the head encoder and the correction
    # gate saturated to (numerically) zero, both branches agree, so the fused
    # generator equals the single-branch one built from the same stream
    window = _window(w=2, s=1)
    full = _dpeg(6, 2, 3, nc.Rng(8), window=window)
    bare = _dpeg(6, 2, 3, nc.Rng(8), window=window, dual_branch=False)
    for p in full.local.parameters().values():
        p.data[1] = p.data[0]                 # slice 0 is the head, 1 the tail
    full.freq_gate.w.data[:] = 0.0
    full.freq_gate.b.data[:] = -800.0
    prior = fg.FrequencyPrior([5, 3, 2])
    feats, frames, pairs = _toy_clip(nc.Rng(9))
    got = _run(full, feats, frames, pairs, prior).data
    want = _run(bare, feats, frames, pairs, prior).data
    assert np.allclose(got, want, atol=1e-12)


def test_tail_branch_with_unit_gate_sees_normalized_input():
    rng = nc.Rng(9)
    tail = _encoder(6, 2, rng.spawn(0))
    gate = fg.FrequencyGate(3, 6, rng.spawn(1))
    gate.w.data[:] = 0.0
    gate.b.data[:] = 800.0
    prior = fg.FrequencyPrior([5, 3, 2])
    x = nc.Rng(10).normals((4, 6))
    t_out = _tail_branch(nc.Tensor(x), prior, gate, tail)
    direct = _encode(tail, nc.layer_norm(nc.Tensor(x)))
    assert np.allclose(t_out.data, direct.data, atol=1e-10)


def test_tail_branch_matches_composition_of_oracles():
    rng = nc.Rng(11)
    tail = _encoder(8, 2, rng.spawn(0))
    gate = fg.FrequencyGate(4, 8, rng.spawn(1))
    prior = fg.FrequencyPrior([10, 5, 3, 1])
    x = nc.Rng(12).normals((3, 8))
    got = _tail_branch(nc.Tensor(x), prior, gate, tail).data
    g = 1.0 / (1.0 + np.exp(-(prior.log_inverse() @ gate.w.data + gate.b.data)))
    corrected = g * _np_layer_norm(x) + (1.0 - g) * x
    assert np.allclose(got, _encoder_oracle(corrected, tail), atol=1e-12)


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------


def _zeroed_fusion(d, n_classes, bias):
    gate = dpeg.FusionGate(d, n_classes, nc.Rng(0))
    gate.w.data[:] = 0.0
    gate.b.data[:] = bias
    return gate


def _fuse(h, t, f, gate: dpeg.FusionGate) -> nc.Tensor:
    return dpeg.gated_mix(h, t, f, gate.w, gate.b)


def test_fusion_saturation_selects_a_branch():
    rng = nc.Rng(13)
    h = nc.Tensor(rng.normals((4, 6)))
    t = nc.Tensor(rng.normals((4, 6)))
    f = np.array([0.5, 0.3, 0.2])
    spread = np.abs(h.data - t.data)
    to_head = _fuse(h, t, f, _zeroed_fusion(6, 3, 20.0)).data
    to_tail = _fuse(h, t, f, _zeroed_fusion(6, 3, -20.0)).data
    assert np.all(np.abs(to_head - h.data) < 1e-8 * spread + 1e-15)
    assert np.all(np.abs(to_tail - t.data) < 1e-8 * spread + 1e-15)


def test_fusion_zero_gate_is_exact_midpoint():
    rng = nc.Rng(14)
    h = nc.Tensor(rng.normals((3, 4)))
    t = nc.Tensor(rng.normals((3, 4)))
    got = _fuse(h, t, np.array([1.0, 0.0]), _zeroed_fusion(4, 2, 0.0)).data
    assert np.array_equal(got, (h.data + t.data) / 2.0)


def test_fusion_initial_gate_is_balanced():
    # zero bias plus small weights: gate within [0.45, 0.55] on unit-scale inputs
    rng = nc.Rng(15)
    gate = dpeg.FusionGate(8, 3, rng.spawn(0))
    h = nc.Rng(16).normals((5, 8))
    t = nc.Rng(17).normals((5, 8))
    f = np.array([0.6, 0.3, 0.1])
    stacked = np.concatenate([h, t, np.tile(f, (5, 1))], axis=-1)
    g = 1.0 / (1.0 + np.exp(-(stacked @ gate.w.data + gate.b.data)))
    assert np.all(g > 0.45) and np.all(g < 0.55)


def test_fusion_matches_numpy_gate_on_task_stacked_inputs():
    # the stacked form encode_stacked uses: slice t mixes with gate t and
    # frequencies t, each broadcast over every row
    rng = nc.Rng(62)
    gates = [dpeg.FusionGate(4, 3, rng.spawn(i)) for i in range(2)]
    stacked = dpeg.stack_tasks([dpeg.FusionGate(4, 3, rng.spawn(i)) for i in range(2)])
    h, t = rng.normals((2, 3, 5, 4)), rng.normals((2, 3, 5, 4))
    f = rng.uniforms(6).reshape(2, 1, 1, 3)
    got = dpeg.gated_mix(nc.Tensor(h), nc.Tensor(t), f, stacked.w, stacked.b).data
    for i, gate in enumerate(gates):
        rows = np.concatenate([h[i], t[i], np.broadcast_to(f[i], (3, 5, 3))], axis=-1)
        g = 1.0 / (1.0 + np.exp(-(rows @ gate.w.data + gate.b.data)))
        assert np.allclose(got[i], g * h[i] + (1.0 - g) * t[i], atol=1e-12)


@given(st.integers(0, 2**32 - 1))
def test_fusion_betweenness(seed):
    rng = nc.Rng(seed)
    h = rng.normals((2, 4))
    t = rng.normals((2, 4))
    gate = dpeg.FusionGate(4, 2, rng)
    gate.w.data = rng.normals((10, 4))
    gate.b.data = rng.normals(4)
    z = _fuse(nc.Tensor(h), nc.Tensor(t), np.array([0.9, 0.1]), gate).data
    assert np.all(z >= np.minimum(h, t) - 1e-12)
    assert np.all(z <= np.maximum(h, t) + 1e-12)


# ---------------------------------------------------------------------------
# positional encoding
# ---------------------------------------------------------------------------


def test_positional_encoding_row_zero():
    pe = dpeg.pe_at(np.arange(3), 6)
    assert np.array_equal(pe[0], [0.0, 1.0, 0.0, 1.0, 0.0, 1.0])


def test_positional_encoding_bounded():
    pe = dpeg.pe_at(np.arange(50), 8)
    assert np.all(np.abs(pe) <= 1.0)


def test_positional_encoding_row_one_formula():
    pe = dpeg.pe_at(np.arange(2), 4)
    expect = [math.sin(1.0), math.cos(1.0), math.sin(10000 ** -0.5), math.cos(10000 ** -0.5)]
    assert pe[1] == pytest.approx(expect, abs=1e-15)


def test_positional_encoding_rejects_odd_dim():
    # pe_at assumes an even d; FremureModel refuses an odd one first
    with pytest.raises(ContractError, match=r"d=5 must be even"):
        FremureModel(ModelConfig(d=5, h=1), nc.Rng(0))


# ---------------------------------------------------------------------------
# global encoding and window aggregation
# ---------------------------------------------------------------------------


def test_global_single_frame_residual_path():
    enc = _encoder(6, 2, nc.Rng(18))
    _zero_mixing(enc)
    z = nc.Rng(19).normals((1, 6))
    cfg = _window(w=4, s=2)
    out = _global(nc.Tensor(z), [7], enc, cfg).data
    expect = _np_layer_norm(_np_layer_norm(z + dpeg.pe_at([7], 6)))
    assert np.allclose(out, expect, atol=1e-12)


def test_global_encoding_depends_on_absolute_frame_index():
    enc = _encoder(6, 2, nc.Rng(20))
    z = nc.Tensor(nc.Rng(21).normals((3, 6)))
    cfg = _window(w=3, s=1)
    at_zero = _global(z, [0, 1, 2], enc, cfg).data
    shifted = _global(z, [5, 6, 7], enc, cfg).data
    assert not np.allclose(at_zero, shifted)


def test_global_four_frames_matches_attention_oracle():
    enc = _encoder(8, 2, nc.Rng(22))
    z = nc.Rng(23).normals((4, 8))
    cfg = _window(w=4, s=4)  # one window covering everything
    out = _global(nc.Tensor(z), [0, 1, 2, 3], enc, cfg).data
    assert np.allclose(out, _encoder_oracle(z + dpeg.pe_at([0, 1, 2, 3], 8), enc), atol=1e-12)


def test_window_starts_cover_tail():
    assert dpeg.window_starts(3, 2, 1) == [0, 1]
    assert dpeg.window_starts(5, 5, 5) == [0]
    assert dpeg.window_starts(7, 3, 2) == [0, 2, 4]
    assert dpeg.window_starts(8, 3, 2) == [0, 2, 4, 5]  # tail window appended


def test_aggregate_identity_cases():
    enc = _encoder(4, 2, nc.Rng(25))
    z = nc.Tensor(nc.Rng(26).normals((3, 4)))
    one = _window(w=1, s=1)
    got = _global(z, [0, 1, 2], enc, one).data
    # w=1: each position appears in exactly one window, so aggregation is identity
    pe = dpeg.pe_at([0, 1, 2], 4)
    per_token = np.concatenate([_encode(enc, z.data[i:i + 1] + pe[i:i + 1]).data
                                for i in range(3)])
    assert np.allclose(got, per_token, atol=1e-12)

    whole = _window(w=3, s=3)
    windows = dpeg.encode_global(z, [0, 1, 2], enc, whole)
    assert windows.shape == (1, 3, 4)
    got2 = dpeg.aggregate_windows(windows, 3, whole).data
    assert np.array_equal(got2, windows.data[0])


def test_aggregate_average_matches_brute_force():
    # L=3, w=2, s=1: windows {0,1} and {1,2}; middle row is the mean of its
    # value in the two windows
    a = np.arange(4.0).reshape(2, 2)          # window at 0, rows for pos 0,1
    b = 10.0 + np.arange(4.0).reshape(2, 2)   # window at 1, rows for pos 1,2
    cfg = _window(w=2, s=1, mode="average")
    out = dpeg.aggregate_windows(nc.Tensor(np.stack([a, b])), 3, cfg).data
    assert np.array_equal(out[0], a[0])
    assert np.array_equal(out[2], b[1])
    assert np.allclose(out[1], (a[1] + b[0]) / 2.0)


def test_aggregate_triangular_matches_brute_force():
    rng = nc.Rng(27)
    values = [(start, rng.normals((3, 2))) for start in (0, 1, 2)]
    cfg = _window(w=3, s=1, mode="triangular")
    got = dpeg.aggregate_windows(nc.Tensor(np.stack([v for _, v in values])), 5, cfg).data
    weights = np.array([1.0, 2.0, 1.0])  # peak at window center
    num = np.zeros((5, 2))
    den = np.zeros(5)
    for start, vals in values:
        num[start:start + 3] += weights[:, None] * vals
        den[start:start + 3] += weights
    assert np.allclose(got, num / den[:, None], atol=1e-12)


@given(st.integers(0, 2**32 - 1), st.sampled_from(["average", "triangular"]))
def test_aggregate_conservation(seed, mode):
    # constant per-position values across windows come back unchanged
    row = nc.Rng(seed).normals(3)
    vals = np.tile(row, (2, 1))
    cfg = _window(w=2, s=1, mode=mode)
    out = dpeg.aggregate_windows(nc.Tensor(np.stack([vals] * 3)), 4, cfg).data
    assert np.allclose(out, np.tile(row, (4, 1)), atol=1e-12)


# ---------------------------------------------------------------------------
# full generator
# ---------------------------------------------------------------------------


def _toy_clip(rng, n_frames=3, n_pairs=2, d=6):
    rows = []
    for t in range(n_frames):
        for p in range(n_pairs):
            rows.append((t, p))
    frames = np.array([r[0] for r in rows])
    pairs = np.array([r[1] for r in rows])
    feats = rng.normals((len(rows), d))
    return feats, frames, pairs


def test_dpeg_forward_shape_and_determinism():
    model = _dpeg(6, 2, 4, nc.Rng(30), window=_window(w=2, s=1))
    feats, frames, pairs = _toy_clip(nc.Rng(31))
    prior = fg.FrequencyPrior([8, 4, 2, 1])
    out1 = _run(model, nc.Tensor(feats), frames, pairs, prior).data
    out2 = _run(model, nc.Tensor(feats), frames, pairs, prior).data
    assert out1.shape == (6, 6)
    assert np.array_equal(out1, out2)


def test_dpeg_forward_row_alignment_under_permutation():
    model = _dpeg(6, 2, 4, nc.Rng(32), window=_window(w=2, s=1))
    feats, frames, pairs = _toy_clip(nc.Rng(33))
    prior = fg.FrequencyPrior([8, 4, 2, 1])
    base = _run(model, nc.Tensor(feats), frames, pairs, prior).data
    perm = nc.Rng(34).permutation(len(frames))
    moved = _run(model, nc.Tensor(feats[perm]), frames[perm], pairs[perm], prior).data
    assert np.allclose(moved, base[perm], atol=1e-12)


def test_dpeg_single_branch_has_no_tail_parameters():
    # the local stack holds a head and a tail slice per task, or heads only
    full = _dpeg(4, 2, 3, nc.Rng(35), dual_branch=True)
    bare = _dpeg(4, 2, 3, nc.Rng(35), dual_branch=False)
    assert all(p.shape[0] == 2 for p in full.local.parameters().values())
    assert all(p.shape[0] == 1 for p in bare.local.parameters().values())
    assert any(k.startswith("fusion") for k in full.parameters())
    assert not any(k.startswith(("fusion", "freq_gate")) for k in bare.parameters())


def test_dpeg_frequency_off_ignores_prior():
    model = _dpeg(6, 2, 4, nc.Rng(36), window=_window(w=2, s=1), frequency=False)
    feats, frames, pairs = _toy_clip(nc.Rng(37))
    skew = fg.FrequencyPrior([100, 1, 1, 1])
    flat = fg.FrequencyPrior([1, 1, 1, 1])
    out_skew = _run(model, nc.Tensor(feats), frames, pairs, skew).data
    out_flat = _run(model, nc.Tensor(feats), frames, pairs, flat).data
    assert np.array_equal(out_skew, out_flat)


def test_dpeg_gradients_match_finite_differences():
    model = _dpeg(4, 2, 3, nc.Rng(39), window=_window(w=2, s=1))
    feats, frames, pairs = _toy_clip(nc.Rng(40), n_frames=2, n_pairs=2, d=4)
    prior = fg.FrequencyPrior([5, 3, 1])
    readout = nc.Tensor(nc.Rng(41).normals((4, 4)))

    def through_inputs(x):
        return (_run(model, x, frames, pairs, prior) * readout).sum()

    assert finite_diff_check(through_inputs, nc.Tensor(feats)) < 1e-4

    x_fixed = nc.Tensor(feats)

    def through_fusion_weight(w):
        saved = model.fusion.w
        model.fusion.w = w
        try:
            return (_run(model, x_fixed, frames, pairs, prior) * readout).sum()
        finally:
            model.fusion.w = saved

    assert finite_diff_check(through_fusion_weight, model.fusion.w) < 1e-4


RAGGED_ROWS = [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (3, 1), (5, 2), (2, 2),
               (3, 2), (4, 2), (6, 2), (7, 2), (4, 0)]


@pytest.mark.parametrize("shape", ["rectangular", "ragged"])
@pytest.mark.parametrize("w,s,mode", [(2, 1, "average"), (3, 2, "triangular"),
                                      (4, 4, "average")])
def test_dpeg_batched_path_matches_per_group_composition(shape, w, s, mode):
    # rebuild the generator's output from per-frame encoders and the
    # per-window oracle over each pair track, tracks of unequal lengths
    # included in the ragged clip
    model = _dpeg(6, 2, 4, nc.Rng(50), window=_window(w, s, mode))
    if shape == "rectangular":
        feats, frames, pairs = _toy_clip(nc.Rng(51))
    else:
        frames = np.array([f for f, _ in RAGGED_ROWS])
        pairs = np.array([p for _, p in RAGGED_ROWS])
        feats = nc.Rng(51).normals((len(RAGGED_ROWS), 6))
    prior = fg.FrequencyPrior([8, 4, 2, 1])
    got = _run(model, nc.Tensor(feats), frames, pairs, prior).data

    x = nc.Tensor(feats)
    head, tail = _task(model.local, 0), _task(model.local, 1)
    z_rows = np.zeros_like(got)
    for t in np.unique(frames):
        idx = np.flatnonzero(frames == t)
        h = _encode(head, x[idx])
        tl = _tail_branch(x[idx], prior, _task(model.freq_gate, 0), tail)
        z_rows[idx] = _fuse(h, tl, prior.f, _task(model.fusion, 0)).data
    want = np.zeros_like(got)
    glob = _task(model.global_enc, 0)
    for p in np.unique(pairs):
        idx = np.flatnonzero(pairs == p)
        idx = idx[np.argsort(frames[idx])]
        windows = _windows_oracle(nc.Tensor(z_rows[idx]), frames[idx], glob, model.window)
        want[idx] = _aggregate_oracle(windows, idx.size, model.window).data
    assert np.allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("w,s", [(1, 1), (2, 1), (3, 1), (3, 2), (4, 2), (4, 4), (5, 3)])
@pytest.mark.parametrize("mode", ["average", "triangular"])
@pytest.mark.parametrize("length", [1, 2, 4, 7])
def test_batched_windows_match_per_window_oracle(w, s, mode, length):
    # the window axis against the per-window loop and per-window scatter:
    # values and the gradients reaching the inputs and the encoder weights
    cfg = _window(w, s, mode)
    enc = _encoder(4, 2, nc.Rng(60))
    rng = nc.Rng(61)
    z0 = rng.normals((2, 3, length, 4))              # (tasks, pairs, L, d)
    readout = nc.Tensor(rng.normals((2, 3, length, 4)))
    frames = 2 + 3 * np.arange(length)
    results = []
    for run in (_global, lambda z, f, e, c: _aggregate_oracle(
            _windows_oracle(z, f, e, c), len(f), c)):
        z = nc.Tensor(z0, requires_grad=True)
        enc.zero_grad()
        out = run(z, frames, enc, cfg)
        (out * readout).sum().backward()
        grads = {k: p.grad.copy() for k, p in enc.parameters().items()}
        results.append((out.data, z.grad, grads))
    (got, got_z, got_w), (want, want_z, want_w) = results
    assert got.shape == want.shape == z0.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got_z, want_z, rtol=0, atol=1e-12)
    for key in want_w:
        np.testing.assert_allclose(got_w[key], want_w[key], rtol=0, atol=1e-12)
    if len(dpeg.window_starts(length, w, s)) == 1:
        # one window: the same products in the same order, so the same bits
        assert np.array_equal(got, want)


def test_clip_keys_keep_clips_apart():
    # two clips over the same frames and pair ids, run as one layout, give
    # each clip's rows of its own run bit for bit: no attention or window
    # crosses the clip key, though their frames and tracks stack into blocks
    model = _dpeg(6, 2, 4, nc.Rng(62), window=_window(w=2, s=1))
    prior = fg.FrequencyPrior([8, 4, 2, 1])
    feats_a, frames, pairs = _toy_clip(nc.Rng(63))
    feats_b = nc.Rng(64).normals(feats_a.shape)
    alone = [_run(model, f, frames, pairs, prior).data for f in (feats_a, feats_b)]
    feats = np.concatenate([feats_a, feats_b])
    keys = np.repeat([0, 1], len(frames))
    layout = dpeg.clip_layout(np.tile(frames, 2), np.tile(pairs, 2), np.zeros(keys.size),
                              keys)
    assert len(layout.local) == 1 and len(layout.tracks) == 1
    packed = dpeg.encode_stacked(model, nc.Tensor(feats[None]), layout, [prior]).data[0]
    assert np.array_equal(packed, np.concatenate(alone))


def test_dpeg_handles_ragged_clips():
    # pair 1 is missing from frame 0, so group sizes differ and the
    # per-group route runs
    model = _dpeg(6, 2, 4, nc.Rng(52), window=_window(w=2, s=1))
    frames = np.array([0, 1, 1, 2, 2])
    pairs = np.array([0, 0, 1, 0, 1])
    feats = nc.Rng(53).normals((5, 6))
    prior = fg.FrequencyPrior([8, 4, 2, 1])
    out = _run(model, nc.Tensor(feats), frames, pairs, prior)
    assert out.shape == (5, 6)
    perm = np.array([3, 0, 4, 1, 2])
    moved = _run(model, nc.Tensor(feats[perm]), frames[perm], pairs[perm], prior).data
    assert np.allclose(moved, out.data[perm], atol=1e-12)
