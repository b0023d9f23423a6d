"""Dual-branch predicate embedding generator.

Per-frame pair sets run through two parallel single-layer attention encoders:
a plain head branch and a tail branch that first applies the frequency-aware
correction. A learned gate fuses the branches per element. The fused sequence
for each tracked subject-object pair is then position-encoded by absolute
frame index, re-encoded inside sliding temporal windows, and aggregated back
to one embedding per (frame, pair).

A ``Dpeg`` holds a model's per-task generators, each weight stacked once
along a leading task axis, and ``encode_stacked`` runs them as one pass; a
shared trunk is the one-task case. The sliding windows of a track block are
one more batch axis: ``encode_global`` gathers them into a (..., windows, w,
d) tensor and encodes them in one call, and ``aggregate_windows`` scatters
them back with one weight-matrix product. A layout may cover several clips
(a pack); rows of different clips never share a frame group or a track.

Order conventions fixed here: fusion concatenates [head, tail, frequencies];
window starts are 0, s, 2s, ... plus a final window ending at the last frame
so every position is covered (stride must not exceed the window length).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .freqgate import (INIT_SCALE, FrequencyGate, FrequencyPrior, frequency_correct,
                       gate_values)


# ---------------------------------------------------------------------------
# encoders
# ---------------------------------------------------------------------------

class BranchEncoder(nc.Module):
    """Parameters of one post-norm transformer encoder layer over a token set
    (2-D weights, as drawn), or of T such layers stacked along a leading task
    axis by ``stack_tasks``; ``encoder_layer`` runs either.

    x = LN(x + attention(x)); x = LN(x + ffn(x)). No positional information
    is injected here, so the layer is permutation equivariant; temporal order
    enters only through the positional encoding added by the global stage.
    """

    def __init__(self, d: int, h: int, rng: nc.Rng, ffn_mult: int):
        self.h = h
        # no bias on q/k: a uniform key shift cancels inside the row softmax,
        # so a key bias would be an exactly flat (untrainable) direction
        self.q = nc.Linear(d, d, rng.spawn(0), bias=False)
        self.k = nc.Linear(d, d, rng.spawn(1), bias=False)
        self.v = nc.Linear(d, d, rng.spawn(2))
        self.o = nc.Linear(d, d, rng.spawn(3))
        self.ffn1 = nc.Linear(d, ffn_mult * d, rng.spawn(4))
        self.ffn2 = nc.Linear(ffn_mult * d, d, rng.spawn(5))

    def weights(self) -> tuple:
        """Parameters in the order ``encoder_layer`` takes them."""
        return (self.q.w, self.k.w, self.v.w, self.v.b, self.o.w, self.o.b,
                self.ffn1.w, self.ffn1.b, self.ffn2.w, self.ffn2.b)


def encoder_layer(x: nc.Tensor, weights: tuple, h: int) -> nc.Tensor:
    """The encoder layer over ``BranchEncoder.weights()``-ordered parameters:
    2-D matrices for one encoder over x of shape (..., n, d), or T stacked
    encoders over x of shape (T, ..., n, d), slice t through encoder t.
    Leading axes are independent token sets; attention never crosses them.
    """
    qw, kw, vw, vb, ow, ob, f1w, f1b, f2w, f2b = weights
    q = nc.split_heads(nc.affine(x, qw), h)
    k = nc.split_heads(nc.affine(x, kw), h)
    v = nc.split_heads(nc.affine(x, vw, vb), h)
    mixed = nc.attention(q, k, v, 1.0 / np.sqrt(x.shape[-1] // h))  # (..., h, n, dh)
    x = nc.layer_norm(nc.affine(nc.merge_heads(mixed), ow, ob), residual=x)
    hidden = nc.affine(x, f1w, f1b, act="relu")
    return nc.layer_norm(nc.affine(hidden, f2w, f2b), residual=x)


def stack_tasks(modules):
    """``modules[0]``, each of its parameters replaced by a new leaf that
    stacks the T same-structured modules' parameters of that name along a
    leading task axis (``nc.stack``): slice t is module t's, zero-padded at
    the end of each axis to the largest of the T shapes. Models call this
    only while they are built, so no forward pass copies a weight."""
    first = modules[0]
    per_task = [m.parameters().values() for m in modules]
    with nc.no_grad():
        for name, group in zip(first.parameters(), zip(*per_task)):
            stacked = nc.stack(group, np.max([t.shape for t in group], axis=0)).data
            *path, attr = name.split(".")
            setattr(functools.reduce(getattr, path, first), attr,
                    nc.Tensor(stacked, requires_grad=True))
    return first


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------

class FusionGate(nc.Module):
    """Per-element gate over [head || tail || frequency vector], one task's
    as drawn; a ``Dpeg`` stacks one per task.

    Zero bias and small weights at init keep the starting gate near 0.5 so
    neither branch dominates before training.
    """

    def __init__(self, d: int, n_classes: int, rng: nc.Rng):
        self.w = nc.Tensor(rng.uniform_range(-INIT_SCALE, INIT_SCALE, (2 * d + n_classes, d)),
                           requires_grad=True)
        self.b = nc.Tensor(np.zeros(d), requires_grad=True)


def gated_mix(h: nc.Tensor, t: nc.Tensor, f: np.ndarray, w, b) -> nc.Tensor:
    """Z = G * H + (1 - G) * T with G = sigmoid([H || T || f] W + b).

    H and T are the head and tail branch outputs, (..., d); the frequency
    vector f broadcasts to every row. W and b are a ``FusionGate``'s, or
    task-stacked ones with H, T and f carrying the leading task axis.
    """
    f_rows = nc.Tensor(np.broadcast_to(f, h.shape[:-1] + f.shape[-1:]))
    g = nc.sigmoid(nc.affine(nc.concat([h, t, f_rows], axis=-1), w, b))
    return g * h + (1.0 - g) * t


# ---------------------------------------------------------------------------
# positional encoding and windowed global encoding
# ---------------------------------------------------------------------------

def pe_at(positions, d: int) -> np.ndarray:
    """Sinusoidal encoding at the given absolute positions: even columns
    sin(pos / 10000^(2i/d)), odd columns the matching cos; d is even."""
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 1)
    rates = 10000.0 ** (-np.arange(0, d, 2, dtype=np.float64) / d)
    angles = positions * rates
    out = np.empty((positions.size, d))
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    return out


@dataclass
class WindowConfig:
    """Sliding-window layout for the global branch: window length, stride
    and weighting mode ("average" or "triangular"), as `ModelConfig` holds
    and checks them."""
    w: int
    s: int
    mode: str


def window_starts(length: int, w: int, s: int) -> list:
    w = min(w, length)
    starts = list(range(0, length - w + 1, s))
    if starts[-1] != length - w:
        starts.append(length - w)
    return starts


def _window_weights(m: int, mode: str) -> np.ndarray:
    if mode == "average":
        return np.ones(m)
    # triangular: peak at the window center, falling off by one per step
    center = (m - 1) / 2.0
    return (m + 1) / 2.0 - np.abs(np.arange(m) - center)


@functools.lru_cache(maxsize=None)
def _window_plan(length: int, w: int, s: int, mode: str) -> tuple:
    """How the windows of a length-L sequence gather and scatter back:
    (index, rows, scatter, inverse). ``rows`` holds the (windows, m)
    positions of every window, m = min(w, L), windows in ``window_starts``
    order, and ``index`` picks them out of an (..., L, d) array as
    (..., windows, m, d); a single window is a view. ``scatter`` is the
    (L, windows * m) weight matrix and ``inverse`` each row's reciprocal
    summed weight, (L, 1). A model meets few lengths, so plans are kept."""
    m = min(w, length)
    rows = np.add.outer(window_starts(length, m, s), np.arange(m))
    index = (Ellipsis, None, slice(None), slice(None)) if len(rows) == 1 \
        else (Ellipsis, rows, slice(None))
    scatter = np.zeros((length, rows.size))
    scatter[rows.ravel(), np.arange(rows.size)] = np.tile(_window_weights(m, mode), len(rows))
    inverse = (1.0 / scatter.sum(axis=1))[:, None]
    for arr in (rows, scatter, inverse):
        arr.setflags(write=False)
    return index, rows, scatter, inverse


def encode_global(z: nc.Tensor, frames, encoder: BranchEncoder,
                  cfg: WindowConfig) -> nc.Tensor:
    """Add absolute-position encoding, then encode every sliding window in
    one pass.

    z: (..., L, d), L >= 1; leading axes are independent sequences over the
    same ``frames``, the L strictly increasing frame indices of a track, led
    by the task axis when ``encoder`` is a stack. The windows,
    each m = min(w, L) positions long, are gathered along a new window axis
    and ``encoder`` runs once over the (..., windows, m, d) result, which is
    returned; attention stays inside a window. Absolute frame indices feed
    the encoding, so shifting a whole clip in time changes the output; that
    is deliberate, not an invariance.
    """
    x = z + nc.Tensor(pe_at(frames, z.shape[-1]))
    index = _window_plan(z.shape[-2], cfg.w, cfg.s, cfg.mode)[0]
    return encoder_layer(x[index], encoder.weights(), encoder.h)


def aggregate_windows(values: nc.Tensor, length: int, cfg: WindowConfig) -> nc.Tensor:
    """Weighted per-position mean over every window containing the position.

    values: (..., windows, m, d), as ``encode_global`` gives them for a
    sequence of ``length`` positions; leading axes pass through. One scatter
    matmul with a (length, windows * m) weight matrix sums every window's
    weighted rows into place, and each row is then scaled by the reciprocal
    of its summed weights.
    """
    _, rows, scatter, inverse = _window_plan(length, cfg.w, cfg.s, cfg.mode)
    flat = nc.reshape(values, values.shape[:-3] + (rows.size, values.shape[-1]))
    return nc.matmul(nc.Tensor(scatter), flat) * nc.Tensor(inverse)


# ---------------------------------------------------------------------------
# clip layout
# ---------------------------------------------------------------------------

@dataclass
class ClipLayout:
    """How a clip's rows group for the two encoder stages. Built once per
    forward pass and shared by every trunk.

    ``local``: index blocks of shape (frames, pairs). Frames with the same
    number of rows stack into one block; the local encoders attend along the
    last axis. ``tracks``: (block, frames) with block of shape
    (pairs, len(frames)), holding every pair track that covers exactly those
    frames, in time order. Each inverse puts the concatenated block rows
    back in clip order; it is None when they already are.
    """
    local: list
    local_inverse: np.ndarray | None
    tracks: list
    track_inverse: np.ndarray | None


def _split_runs(order: np.ndarray, *keys) -> list:
    """Cut ``order`` wherever any of ``keys[order]`` changes value."""
    changed = np.zeros(max(order.size - 1, 0), dtype=bool)
    for key in keys:
        changed |= np.diff(key[order]) != 0
    cuts = (np.flatnonzero(changed) + 1).tolist()
    return [order[a:b] for a, b in zip([0] + cuts, cuts + [order.size])]


def _stack_by(keys, groups) -> dict:
    """Stack the groups sharing a key into one 2-D block, keys in first-seen order."""
    buckets = {}
    for key, group in zip(keys, groups):
        buckets.setdefault(key, []).append(group)
    return {key: np.array(members) for key, members in buckets.items()}


def _inverse(blocks) -> np.ndarray | None:
    order = np.concatenate([b.ravel() for b in blocks])
    # order is a permutation of the rows, so ascending means identity
    return None if (order[1:] > order[:-1]).all() else np.argsort(order)


def clip_layout(frames, subj, obj, clips) -> ClipLayout:
    """Group rows by frame (ascending row index inside a frame) and by pair
    track (ascending frame inside a track), for rows of which no two share a
    (clip, frame, subj, obj), as `data_metrics.Split.of` ensures.

    ``clips`` is a per-row clip key. Rows of different clips never share a
    frame or a track, so attention and windows stay inside a clip; frames
    with as many rows, and tracks over the same frame numbers, still stack
    into one block across clips. Tracks come in (clip, subj, obj) order.
    """
    frames, subj, obj, clips = (np.asarray(a, dtype=np.int64)
                                for a in (frames, subj, obj, clips))
    by_frame = _split_runs(np.lexsort((frames, clips)), clips, frames)
    by_pair = _split_runs(np.lexsort((frames, obj, subj, clips)), clips, subj, obj)
    track_frames = [tuple(frames[idx].tolist()) for idx in by_pair]
    local = list(_stack_by([idx.size for idx in by_frame], by_frame).values())
    tracks = [(block, np.asarray(fr))
              for fr, block in _stack_by(track_frames, by_pair).items()]
    return ClipLayout(local, _inverse(local),
                      tracks, _inverse([block for block, _ in tracks]))


# ---------------------------------------------------------------------------
# full generator
# ---------------------------------------------------------------------------

class Dpeg(nc.Module):
    """Local dual-branch encoding, gated fusion, windowed global refinement:
    T generators of one architecture, which ``encode_stacked`` runs as one
    pass. Slice t of each weight is what generator t, of ``class_counts[t]``
    classes, draws alone from ``rngs[t]``; ``local`` stacks the T head
    encoders, then the T tail encoders. Gate weight rows past a task's class
    count are zero, meet only zero inputs, and so stay zero.

    ``dual_branch=False`` removes the tail branch and fusion gate entirely
    (the fused output is the head branch). ``frequency=False`` keeps the tail
    branch but freezes its correction gate at 0.5 and feeds the fusion gate a
    uniform frequency vector.
    """

    def __init__(self, d: int, h: int, class_counts, rngs, window: WindowConfig,
                 ffn_mult: int, dual_branch: bool, frequency: bool):
        self.class_counts = tuple(class_counts)
        self.dual_branch = dual_branch
        self.frequency = frequency
        self.window = window
        self.local = stack_tasks([BranchEncoder(d, h, r.spawn(branch), ffn_mult)
                                  for branch in ((0, 1) if dual_branch else (0,))
                                  for r in rngs])
        tasks = list(zip(class_counts, rngs))
        if dual_branch:
            self.fusion = stack_tasks([FusionGate(d, n, r.spawn(2)) for n, r in tasks])
            if frequency:
                self.freq_gate = stack_tasks([FrequencyGate(n, d, r.spawn(3)) for n, r in tasks])
        self.global_enc = stack_tasks([BranchEncoder(d, h, r.spawn(4), ffn_mult) for r in rngs])


def _padded(rows, width: int) -> np.ndarray:
    out = np.zeros((len(rows), 1, width))
    for i, row in enumerate(rows):
        out[i, 0, :row.size] = row
    return out


def _to_rows(chunks, inverse, tasks: int, d: int) -> nc.Tensor:
    rows = [nc.reshape(c, (tasks, -1, d)) for c in chunks]
    flat = rows[0] if len(rows) == 1 else nc.concat(rows, axis=1)
    return flat if inverse is None else flat[:, inverse]


def encode_stacked(dp: Dpeg, feats: nc.Tensor, layout: ClipLayout, priors) -> nc.Tensor:
    """Run the T generators of ``dp`` as a single batched pass.

    feats: (T, N, d), slice t holding the clip rows for generator t; priors:
    one per generator. Every op runs once for all T generators, the head and
    tail branches as one local pass over 2T slices. Frequency inputs are
    zero-padded to the widest class count, as the gate weights are, so slice
    t of the (T, N, d) result equals generator t run alone up to summation
    order. Rows come back aligned with the clip.
    """
    tasks, d = feats.shape[0], feats.shape[-1]
    counts = dp.class_counts
    if not dp.frequency:
        priors = [FrequencyPrior(np.ones(n)) for n in counts]
    inputs = feats
    if dp.dual_branch:
        width = max(counts)
        freqs = _padded([p.f for p in priors], width)         # (T, 1, width)
        if dp.frequency:
            signal = _padded([p.log_inverse() for p in priors], width)
            g = gate_values(signal, dp.freq_gate.w, dp.freq_gate.b)   # (T, 1, d)
        else:
            g = nc.Tensor(np.full((tasks, 1, d), 0.5))
        # slices [0, T) of the local pass are head branches, [T, 2T) tails
        inputs = nc.concat([feats, frequency_correct(feats, g)], axis=0)
    local = dp.local.weights()

    chunks = []
    for block in layout.local:
        z = encoder_layer(inputs[:, block], local, dp.local.h)  # (T or 2T, frames, pairs, d)
        if dp.dual_branch:
            z = gated_mix(z[:tasks], z[tasks:], freqs[:, None], dp.fusion.w, dp.fusion.b)
        chunks.append(z)
    z = _to_rows(chunks, layout.local_inverse, tasks, d)

    chunks = []
    for block, frames in layout.tracks:
        windows = encode_global(z[:, block], frames, dp.global_enc, dp.window)
        chunks.append(aggregate_windows(windows, len(frames), dp.window))
    return _to_rows(chunks, layout.track_inverse, tasks, d)
