"""Synthetic long-tail relation data and the recall evaluation suite.

The generator builds clips of tracked subject-object pairs. Every record
carries one single-label attention class and two multi-label bit-vectors
(spatial, contact). Labels follow a Zipf law per type, features are the mean
of the label prototypes plus Gaussian noise, and an optional post-feature
label flip injects irreducible label noise. Everything is driven by one
seeded counter generator, so a (config, seed) pair fixes the dataset bytes.

Stream layout. ``Rng(seed).spawn(0)`` draws the prototypes (attention, then
spatial, then contact, each a (classes, d) normal matrix); the train and test
splits read ``spawn(1)`` and ``spawn(2)``. Inside a split, records follow in
(clip, frame, pair) order, and each record reads the next raw draws of the
split's stream in this order, one draw each unless stated:

1. attention label (inverse CDF of its uniform on the Zipf law);
2. spatial label;
3. extra-spatial uniform; if it is <= extra_label_rate, a second spatial
   label (a repeat of the first adds nothing);
4. contact label;
5. extra-contact uniform; if <= extra_label_rate, a second contact label;
6. d normals by Box-Muller: d + 1 uniforms when d is odd, else d. The
   feature is the mean of the attention, sorted spatial and sorted contact
   prototypes (summed in that order, as ``np.mean`` of their stack) plus
   noise times these normals;
7. three flip uniforms, for attention, spatial, contact in turn; each one
   that is <= flip is followed by one raw draw whose value modulo the class
   count replaces that task's labels.

A record thus uses 8 + 2*ceil(d/2) draws plus one per conditional draw
taken, at most 5 more. The generator draws a split as one block of that
maximum size per record, finds every record's length from its conditional
uniforms, walks those lengths once for the records' offsets, and gathers
labels and features at the offsets; the bytes are those of drawing each
record in turn.

Records on disk are JSONL, one object a line, under the contract that
``read_jsonl`` documents and checks one field at a time over the whole
file. In the program a split is a ``Split``: the records' fields as row
columns, each clip's rows contiguous. ``Split.of`` builds one, and is the
one place where records, or a ready Split, are checked against a model's
feature width, class counts and attention range.

Evaluation ranks (pair, predicate) entries per frame by score with
deterministic tie-breaking, once for every K, and reports R@K, per-class
recall, mR@K, and head/tail bucket summaries. Ground-truth pairs are given
(no detection), and the triplet score is the predicate probability.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields
from itertools import chain

import numpy as np

from . import numcore as nc
from .errors import ContractError, Validated
from .freqgate import FrequencyPrior


# ---------------------------------------------------------------------------
# configuration and records
# ---------------------------------------------------------------------------

@dataclass
class SyntheticConfig(Validated):
    attn_classes: int = 10
    spat_classes: int = 6
    cont_classes: int = 16
    zipf_s: float = 1.5
    d: int = 16                  # raw feature dimension
    clips: int = 100
    test_clips: int = 25
    frames: int = 4
    pairs: int = 5
    noise: float = 0.3           # feature noise scale
    flip: float = 0.1            # post-feature label flip rate
    extra_label_rate: float = 0.25  # chance of a second spatial/contact label

    def problems(self) -> list:
        out = []
        for name in ("attn_classes", "spat_classes", "cont_classes", "d",
                     "clips", "test_clips", "frames", "pairs"):
            if getattr(self, name) < 1:
                out.append(f"{name} must be >= 1")
        for name in ("zipf_s", "noise", "flip", "extra_label_rate"):
            if not math.isfinite(getattr(self, name)):
                out.append(f"{name} must be finite")
        if self.zipf_s <= 0:
            out.append("zipf_s must be > 0")
        if self.noise < 0:
            out.append("noise must be >= 0")
        if not 0.0 <= self.flip < 1.0:
            out.append("flip must be in [0, 1)")
        if not 0.0 <= self.extra_label_rate <= 1.0:
            out.append("extra_label_rate must be in [0, 1]")
        return out

    def class_counts(self) -> dict:
        return {"attn": self.attn_classes, "spat": self.spat_classes,
                "cont": self.cont_classes}


@dataclass
class TripletRecord:
    clip: int
    frame: int
    subj: int
    obj: int
    feat: np.ndarray
    attn: int
    spat: list
    cont: list

    def to_json(self) -> dict:
        return {"clip": self.clip, "frame": self.frame, "subj": self.subj,
                "obj": self.obj, "feat": [float(v) for v in self.feat],
                "attn": int(self.attn), "spat": [int(b) for b in self.spat],
                "cont": [int(b) for b in self.cont]}

    @classmethod
    def from_json(cls, doc: dict) -> "TripletRecord":
        """The record of one JSON object, under `read_jsonl`'s contract."""
        return _records_of([doc], lambda i: "record")[0]


def write_jsonl(records, path):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_json()) + "\n")


def read_jsonl(path) -> list:
    """Records of a JSONL file, one JSON object a line, blank lines aside.
    Every line must be an object with these fields:

    - clip, frame, subj, obj and attn: JSON integers (not bools, floats or
      strings) in the 64-bit range, and frame >= 0;
    - spat and cont: lists of 0/1 integers;
    - feat: a list of finite JSON numbers, of one width in the file.

    A breach raises ContractError naming the file, the 1-based line and the
    field; so does a file without records."""
    docs, lines = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                docs.append(json.loads(line))
            except ValueError as exc:
                raise ContractError(f"{path}, line {lineno}: not a valid "
                                    f"record ({type(exc).__name__}: {exc})") from exc
            lines.append(lineno)
    if not docs:
        raise ContractError(f"{path}: no records")
    return _records_of(docs, lambda i: f"{path}, line {lines[i]}")


_FIELDS = ("clip", "frame", "subj", "obj", "feat", "attn", "spat", "cont")


def _records_of(docs: list, where) -> list:
    """Records of parsed JSON objects (at least one) under `read_jsonl`'s
    contract, checked a field at a time over all of them; ``where(i)``
    names object i in an error."""
    def fail(i, problem):
        raise ContractError(f"{where(i)}: {problem}")

    def first(values, bad) -> int:
        return next(i for i, v in enumerate(values) if bad(v))

    for i, doc in enumerate(docs):
        if type(doc) is not dict or not doc.keys() >= set(_FIELDS):
            fail(i, f"not a valid record (an object with {', '.join(_FIELDS)})")
    cols = {name: [doc[name] for doc in docs] for name in _FIELDS}
    for name in ("clip", "frame", "subj", "obj", "attn"):
        col = cols[name]
        if set(map(type, col)) != {int}:
            i = first(col, lambda v: type(v) is not int)
            fail(i, f"'{name}' must be a JSON integer, got {col[i]!r}")
        if np.array(col).dtype != np.int64:
            fail(first(col, lambda v: not -2**63 <= v < 2**63),
                 f"'{name}' is outside the 64-bit integer range")
    if min(cols["frame"]) < 0:
        i = first(cols["frame"], lambda v: v < 0)
        fail(i, f"'frame' must be >= 0, got {cols['frame'][i]}")
    for name in ("feat", "spat", "cont"):
        col = cols[name]
        if set(map(type, col)) != {list}:
            fail(first(col, lambda v: type(v) is not list), f"'{name}' must be a list")
        kinds = {int, float} if name == "feat" else {int}
        if not set(map(type, chain.from_iterable(col))) <= kinds:
            fail(first(col, lambda v: not set(map(type, v)) <= kinds),
                 f"'{name}' must hold only JSON {'numbers' if name == 'feat' else 'integers'}")
    for name in ("spat", "cont"):
        if not set(chain.from_iterable(cols[name])) <= {0, 1}:
            fail(first(cols[name], lambda v: not set(v) <= {0, 1}),
                 f"'{name}' bits must be 0 or 1")
    feats = cols["feat"]
    width = len(feats[0])
    if set(map(len, feats)) != {width}:
        i = first(feats, lambda v: len(v) != width)
        fail(i, f"'feat' has {len(feats[i])} values, not the {width} of the first record")
    try:
        feat = np.array(feats, dtype=np.float64).reshape(len(docs), width)
        finite = bool(np.isfinite(feat).all())
    except OverflowError:               # an integer past the float range
        finite = False
    if not finite:
        fail(first(feats, lambda v: not all(abs(x) <= sys.float_info.max for x in v)),
             "'feat' must hold only finite numbers")
    return [TripletRecord(doc["clip"], doc["frame"], doc["subj"], doc["obj"], f,
                          doc["attn"], doc["spat"], doc["cont"])
            for doc, f in zip(docs, feat)]


def group_clips(records) -> list:
    """Records bucketed by clip id, each clip sorted by (frame, subj, obj)."""
    byclip = {}
    for rec in records:
        byclip.setdefault(rec.clip, []).append(rec)
    clips = []
    for cid in sorted(byclip):
        clips.append(sorted(byclip[cid], key=lambda r: (r.frame, r.subj, r.obj)))
    return clips


@dataclass(eq=False)
class Split:
    """Records as row columns, each clip's rows contiguous: clip i is rows
    ``starts[i]:starts[i + 1]``. ``feat`` is (rows, raw_dim) and ``spat`` and
    ``cont`` are (rows, classes) bits, as floats; the other columns are
    (rows,) integers. ``len()`` is the number of clips."""
    clip: np.ndarray
    frame: np.ndarray
    subj: np.ndarray
    obj: np.ndarray
    feat: np.ndarray
    attn: np.ndarray
    spat: np.ndarray
    cont: np.ndarray
    starts: np.ndarray

    def __len__(self) -> int:
        return self.starts.size - 1

    def view(self, lo: int, hi: int) -> "Split":
        """Clips lo to hi - 1, as slices of these columns."""
        a, b = self.starts[lo], self.starts[hi]
        return Split(*(getattr(self, f.name)[a:b] for f in fields(self)[:-1]),
                     self.starts[lo:hi + 1] - a)

    @classmethod
    def of(cls, records, raw_dim: int, counts: dict) -> "Split":
        """The columns of ``records``, in their order. This is where records
        meet a model: a feature width other than ``raw_dim``, a label width
        other than ``counts`` gives, an attention label outside [0,
        counts["attn"]), a clip whose records are not contiguous or a second
        record of one (clip, frame, subj, obj) raises ContractError naming
        the record and the field; so do no records.

        ``records`` may be a ready Split, whose records were checked when it
        was built: it is returned after its column widths and its largest
        attention label are checked against this model, and a mismatch
        raises ContractError naming the column."""
        widths = {"feat": raw_dim, "spat": counts["spat"], "cont": counts["cont"]}
        if isinstance(records, cls):
            for name, width in widths.items():
                got = getattr(records, name).shape[1]
                if got != width:
                    raise ContractError(f"split column '{name}' has {got} values "
                                        f"per row, expected {width}")
            top = records.attn.max(initial=0)
            if top >= counts["attn"]:
                raise ContractError(f"split column 'attn' holds {top}, outside "
                                    f"[0, {counts['attn']})")
            return records
        n = len(records)
        if not n:
            raise ContractError("no records")

        def check(bad, problem):
            """Raise for the first record where ``bad`` holds."""
            if bad.any():
                i = int(np.argmax(bad))
                r = records[i]
                raise ContractError(f"record (clip {r.clip}, frame {r.frame}, subj "
                                    f"{r.subj}, obj {r.obj}): {problem(i)}")

        for name, width in widths.items():
            got = np.fromiter((len(getattr(r, name)) for r in records), np.int64, n)
            check(got != width, lambda i: f"{name} has {got[i]} values, expected {width}")
        ints = {name: np.fromiter((getattr(r, name) for r in records), np.int64, n)
                for name in ("clip", "frame", "subj", "obj", "attn")}
        attn, clip = ints["attn"], ints["clip"]
        check((attn < 0) | (attn >= counts["attn"]),
              lambda i: f"attn {attn[i]} outside [0, {counts['attn']})")
        starts = np.flatnonzero(np.r_[True, clip[1:] != clip[:-1]])
        # a clip id that starts a second run of rows has records elsewhere
        resumed = np.zeros(n, dtype=bool)
        resumed[starts] = True
        resumed[starts[np.unique(clip[starts], return_index=True)[1]]] = False
        check(resumed, lambda i: f"clip {clip[i]} resumes after other clips' records")
        # a stable sort keeps equal keys in record order, so each key's first
        # record stays unmarked
        keys = np.column_stack([clip, ints["frame"], ints["subj"], ints["obj"]])
        order = np.lexsort(keys.T[::-1])
        repeat = (keys[order[1:]] == keys[order[:-1]]).all(axis=1)
        duplicate = np.zeros(n, dtype=bool)
        duplicate[order[1:][repeat]] = True
        check(duplicate, lambda i: "repeats an earlier record's (clip, frame, subj, obj)")
        rows = {name: np.array([getattr(r, name) for r in records], np.float64
                               ).reshape(n, width) for name, width in widths.items()}
        return cls(starts=np.append(starts, n), **ints, **rows)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def zipf_pmf(n_classes: int, s: float) -> np.ndarray:
    ranks = np.arange(1, n_classes + 1, dtype=np.float64)
    weights = ranks**-s
    return weights / weights.sum()


def _generate_split(cfg: SyntheticConfig, n_clips: int, clip_base: int,
                    protos: dict, rng: nc.Rng) -> list:
    """Records of one split, in (clip, frame, pair) order, drawn from one
    block of `rng`'s stream with the per-record layout given in the module
    docstring. The records' features are rows of one matrix."""
    n = n_clips * cfg.frames * cfg.pairs
    width = 2 * ((cfg.d + 1) // 2)          # uniforms behind d normals
    raw = rng.raw(n * (13 + width))         # 13 + width: a record's most draws
    u = nc.uniform_from_raw(raw)
    extra = u <= cfg.extra_label_rate
    flip = u <= cfg.flip

    # the five conditional draws of a record starting at each position of
    # the block; positions past its end occur only for starts no record has
    def hit(mask, pos):
        return mask[np.minimum(pos, raw.size - 1)].astype(np.int64)

    start = np.arange(raw.size)
    es = hit(extra, start + 2)
    ec = hit(extra, start + 4 + es)
    q = start + 5 + es + ec + width         # the attention flip's uniform
    fa = hit(flip, q)
    fs = hit(flip, q + 1 + fa)
    fc = hit(flip, q + 2 + fa + fs)
    length = (8 + width + es + ec + fa + fs + fc).tolist()
    offsets, pos = [], 0
    for _ in range(n):
        offsets.append(pos)
        pos += length[pos]
    s = np.asarray(offsets, dtype=np.int64)
    es, ec, q, fa, fs, fc = es[s], ec[s], q[s], fa[s], fs[s], fc[s]

    def labels(kind, pos, extra_pos, has_extra):
        """(smaller, larger, two distinct) of a label and its extra label."""
        pmf = zipf_pmf(cfg.class_counts()[kind], cfg.zipf_s)
        first = nc.categorical_from_uniforms(pmf, u[pos])
        second = np.where(has_extra == 1,
                          nc.categorical_from_uniforms(pmf, u[extra_pos]), first)
        return np.minimum(first, second), np.maximum(first, second), first != second

    attn = nc.categorical_from_uniforms(zipf_pmf(cfg.attn_classes, cfg.zipf_s), u[s])
    spat_lo, spat_hi, two_spat = labels("spat", s + 1, s + 3, es)
    cont_lo, cont_hi, two_cont = labels("cont", s + 3 + es, s + 5 + es, ec)
    normals = nc.box_muller(u[(s + 5 + es + ec)[:, None] + np.arange(width)].ravel())

    # the mean of the label prototypes as np.mean takes it: summed in the
    # order attention, sorted spatial, sorted contact, then divided
    feat = protos["attn"][attn] + protos["spat"][spat_lo]
    np.add(feat, protos["spat"][spat_hi], out=feat, where=two_spat[:, None])
    np.add(feat, protos["cont"][cont_lo], out=feat)
    np.add(feat, protos["cont"][cont_hi], out=feat, where=two_cont[:, None])
    feat /= (3 + two_spat + two_cont)[:, None]
    feat = feat + cfg.noise * normals.reshape(n, width)[:, :cfg.d]

    # label flips come after the feature, so flipped records carry features
    # that disagree with their labels
    def flipped(classes, hits, pos, keep):
        drawn = (raw[pos] % np.uint64(classes)).astype(np.int64)
        return np.where(hits == 1, drawn, keep)

    def bits(classes, lo, hi, hits, pos):
        out = np.zeros((n, classes), dtype=np.int64)
        out[np.arange(n), flipped(classes, hits, pos, lo)] = 1
        out[np.arange(n), flipped(classes, hits, pos, hi)] = 1
        return out.tolist()

    attn = flipped(cfg.attn_classes, fa, q + 1, attn)
    spat_bits = bits(cfg.spat_classes, spat_lo, spat_hi, fs, q + 2 + fa)
    cont_bits = bits(cfg.cont_classes, cont_lo, cont_hi, fc, q + 3 + fa + fs)
    per_clip = cfg.frames * cfg.pairs
    return [TripletRecord(clip=clip_base + i // per_clip,
                          frame=i // cfg.pairs % cfg.frames, subj=i % cfg.pairs,
                          obj=cfg.pairs + i % cfg.pairs, feat=f, attn=a,
                          spat=sb, cont=cb)
            for i, f, a, sb, cb in zip(range(n), feat, attn.tolist(),
                                       spat_bits, cont_bits)]


def label_counts(split: Split, cfg) -> dict:
    """Per-task label counts of a split. `cfg` is any config with
    `attn_classes` (a `SyntheticConfig` or a `ModelConfig`)."""
    # integer-valued sums, so exact in any order
    return {"attn": np.bincount(split.attn, minlength=cfg.attn_classes).astype(np.float64),
            "spat": split.spat.sum(axis=0), "cont": split.cont.sum(axis=0)}


def generate_dataset(cfg: SyntheticConfig, seed: int):
    """Returns (train records, test records, per-type train label counts)."""
    cfg.validate()
    root = nc.Rng(seed)
    proto_rng = root.spawn(0)
    protos = {t: proto_rng.normals((c, cfg.d))
              for t, c in cfg.class_counts().items()}
    train = _generate_split(cfg, cfg.clips, 0, protos, root.spawn(1))
    test = _generate_split(cfg, cfg.test_clips, cfg.clips, protos, root.spawn(2))
    return train, test, label_counts(Split.of(train, cfg.d, cfg.class_counts()), cfg)


# ---------------------------------------------------------------------------
# ranking and recall
# ---------------------------------------------------------------------------

def _group_starts(*cols) -> np.ndarray:
    """For rows sorted so that equal rows are adjacent, the index of the first
    row of each row's run of equal values over `cols`."""
    new = np.zeros(cols[0].size, dtype=bool)
    new[:1] = True
    for col in cols:
        new[1:] |= col[1:] != col[:-1]
    return np.maximum.accumulate(np.where(new, np.arange(new.size), 0))


def _truth_ranks(entries: np.ndarray, scores: np.ndarray, truth: np.ndarray,
                 constraint: bool = False, class_types=None) -> np.ndarray:
    """Rank inside its frame (0 is the top) of each truth triplet.

    `entries` rows are (frame, subj, obj, cls) with `scores` alongside;
    `truth` rows are (frame, subj, obj, cls). Every frame is ranked at once
    by score descending, ties broken by ascending class, then subject, then
    object. With the constraint on, only the first-ranked predicate of each
    (frame, subj, obj, relation type) slot keeps a place. A truth triplet
    that is never scored, or whose slot went to another predicate, ranks
    at infinity, so it is missed at every K."""
    f, s, o, c = entries.T
    order = np.lexsort((o, s, c, -scores, f))
    if constraint:
        types = np.zeros_like(c) if class_types is None \
            else np.asarray(class_types, dtype=np.int64)[c]
        # stable sort by slot keeps rank order inside each slot
        by_slot = np.lexsort((types[order], o[order], s[order], f[order]))
        slot_cols = [x[order][by_slot] for x in (f, s, o, types)]
        first = _group_starts(*slot_cols) == np.arange(by_slot.size)
        order = order[np.sort(by_slot[first])]
    ranked_f = f[order]
    pos = np.arange(order.size) - np.searchsorted(ranked_f, ranked_f)

    # a triplet scored more than once takes its best place: sort ranked
    # entries and truth rows together by triplet, then by rank
    cols = [np.concatenate([x[order], truth[:, j]])
            for j, x in enumerate((f, s, o, c))]
    rank = np.concatenate([pos.astype(np.float64), np.full(len(truth), np.inf)])
    by_triplet = np.lexsort((rank, cols[3], cols[2], cols[1], cols[0]))
    starts = _group_starts(*(col[by_triplet] for col in cols))
    best = np.empty_like(rank)
    best[by_triplet] = rank[by_triplet][starts]
    return best[order.size:]


def rank_recalls(entries: np.ndarray, scores: np.ndarray, truth: np.ndarray,
                 ks, constraint: bool = False, class_types=None) -> dict:
    """R@K, mR@K and the per-class recall table for every K in `ks`, from one
    ranking of every frame (see `_truth_ranks` for the arrays and the order).

    R@K is the mean over frames with truth of (truth triplets in the top K) /
    (truth triplets of that frame). Per-class recall pools every frame's
    truth, and mR@K is its unweighted mean over the classes that occur in the
    truth. Repeated truth rows of one frame count once."""
    if any(k <= 0 for k in ks):
        raise ContractError("K must be positive")
    truth = np.unique(np.asarray(truth, dtype=np.int64).reshape(-1, 4), axis=0)
    if not truth.size:
        raise ContractError("ground truth is empty")
    ranks = _truth_ranks(np.asarray(entries, dtype=np.int64).reshape(-1, 4),
                        np.asarray(scores, dtype=np.float64), truth,
                        constraint, class_types)
    _, frame_of = np.unique(truth[:, 0], return_inverse=True)
    classes, class_of = np.unique(truth[:, 3], return_inverse=True)
    frame_total = np.bincount(frame_of)
    class_total = np.bincount(class_of).tolist()
    out = {"recall": {}, "mean_recall": {}, "per_class": {}}
    for k in ks:
        hit = ranks < k
        found = np.bincount(frame_of, weights=hit, minlength=frame_total.size)
        out["recall"][k] = float(np.mean(found / frame_total))
        matched = np.bincount(class_of[hit], minlength=classes.size).tolist()
        per_class = {c: m / t for c, m, t in zip(classes.tolist(), matched,
                                                  class_total)}
        out["per_class"][k] = per_class
        out["mean_recall"][k] = float(np.mean(list(per_class.values())))
    return out


def _frame_rows(predictions: dict, ground_truth: dict) -> tuple:
    """(entries, scores, truth) rows of tuple-keyed frames, frames numbered
    in sorted key order; predictions of frames without a truth key are
    unused."""
    entries, scores, truth = [], [], []
    for f, key in enumerate(sorted(ground_truth)):
        for s, o, c, score in predictions.get(key, ()):
            entries.append((f, s, o, c))
            scores.append(score)
        truth.extend((f, s, o, c) for s, o, c in ground_truth[key])
    return entries, scores, truth


def recall_at_k(predictions: dict, ground_truth: dict, k: int,
                constraint: bool = False, class_types=None) -> float:
    """R@K for one K. `predictions` maps a clip-frame key to its scored
    (subj, obj, cls, score) tuples, `ground_truth` the same keys to
    (subj, obj, cls) triplets; see `rank_recalls`."""
    return rank_recalls(*_frame_rows(predictions, ground_truth), (k,),
                        constraint, class_types)["recall"][k]


def mean_recall_at_k(predictions: dict, ground_truth: dict, k: int,
                     constraint: bool = False, class_types=None):
    """(mR@K, per-class recall) for one K, inputs as in `recall_at_k`."""
    out = rank_recalls(*_frame_rows(predictions, ground_truth), (k,),
                       constraint, class_types)
    return out["mean_recall"][k], out["per_class"][k]


# the head bucket holds this share of the frequency mass, and the tail bucket
# this share of the classes
HEAD_MASS = 0.3
TAIL_SHARE = 0.3


def frequency_stratified_report(per_class_recalls: dict, prior: FrequencyPrior) -> dict:
    """Mean recall over the head bucket (smallest class set holding the top
    `HEAD_MASS` of frequency mass) and the tail bucket (the `TAIL_SHARE`
    least frequent classes, rounded up). A bucket with no class in
    `per_class_recalls` (none of its classes occurs in the ground truth) has
    no mean and reads None."""
    f = prior.f
    by_mass = sorted(range(f.size), key=lambda c: (-f[c], c))
    head, acc = [], 0.0
    for c in by_mass:
        head.append(c)
        acc += f[c]
        if acc >= HEAD_MASS:
            break
    n_tail = max(1, math.ceil(TAIL_SHARE * f.size))
    tail = sorted(range(f.size), key=lambda c: (f[c], c))[:n_tail]

    def bucket_mean(classes):
        vals = [per_class_recalls[c] for c in classes if c in per_class_recalls]
        return float(np.mean(vals)) if vals else None

    return {"head": bucket_mean(head), "tail": bucket_mean(tail),
            "head_classes": head, "tail_classes": tail}
