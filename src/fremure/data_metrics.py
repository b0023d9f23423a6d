"""Synthetic long-tail relation data and the recall evaluation suite.

The generator builds clips of tracked subject-object pairs. Every record
carries one single-label attention class and two multi-label bit-vectors
(spatial, contact). Labels follow a Zipf law per type, features are the mean
of the label prototypes plus Gaussian noise, and an optional post-feature
label flip injects irreducible label noise. Everything is driven by one
seeded counter generator, so a (config, seed) pair fixes the dataset bytes.

Evaluation ranks (pair, predicate) entries per frame by score with
deterministic tie-breaking, once for every K, and reports R@K, per-class
recall, mR@K, and head/tail bucket summaries. Ground-truth pairs are given
(no detection), and the triplet score is the predicate probability.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import numcore as nc
from .errors import ContractError
from .freqgate import FrequencyPrior

RELATION_TYPES = ("attn", "spat", "cont")


# ---------------------------------------------------------------------------
# configuration and records
# ---------------------------------------------------------------------------

@dataclass
class SyntheticConfig:
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
        if self.zipf_s <= 0:
            out.append("zipf_s must be > 0")
        if self.noise < 0:
            out.append("noise must be >= 0")
        if not 0.0 <= self.flip < 1.0:
            out.append("flip must be in [0, 1)")
        if not 0.0 <= self.extra_label_rate <= 1.0:
            out.append("extra_label_rate must be in [0, 1]")
        return out

    def validate(self):
        problems = self.problems()
        if problems:
            raise ContractError("; ".join(problems))

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
        return cls(clip=int(doc["clip"]), frame=int(doc["frame"]),
                   subj=int(doc["subj"]), obj=int(doc["obj"]),
                   feat=np.asarray(doc["feat"], dtype=np.float64),
                   attn=int(doc["attn"]), spat=[int(b) for b in doc["spat"]],
                   cont=[int(b) for b in doc["cont"]])


def write_jsonl(records, path):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_json()) + "\n")


def read_jsonl(path) -> list:
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(TripletRecord.from_json(json.loads(line)))
    return out


def group_clips(records) -> list:
    """Records bucketed by clip id, each clip sorted by (frame, subj, obj)."""
    byclip = {}
    for rec in records:
        byclip.setdefault(rec.clip, []).append(rec)
    clips = []
    for cid in sorted(byclip):
        clips.append(sorted(byclip[cid], key=lambda r: (r.frame, r.subj, r.obj)))
    return clips


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def zipf_pmf(n_classes: int, s: float) -> np.ndarray:
    ranks = np.arange(1, n_classes + 1, dtype=np.float64)
    weights = ranks**-s
    return weights / weights.sum()


def _bits(classes: int, labels) -> list:
    bits = [0] * classes
    for lab in labels:
        bits[int(lab)] = 1
    return bits


def _generate_split(cfg: SyntheticConfig, n_clips: int, clip_base: int,
                    protos: dict, rng: nc.Rng) -> list:
    pmf = {t: zipf_pmf(c, cfg.zipf_s) for t, c in cfg.class_counts().items()}
    records = []
    for ci in range(n_clips):
        for t in range(cfg.frames):
            for p in range(cfg.pairs):
                attn = int(rng.categorical(pmf["attn"])[0])
                spat = {int(rng.categorical(pmf["spat"])[0])}
                if rng.uniforms(1)[0] <= cfg.extra_label_rate:
                    spat.add(int(rng.categorical(pmf["spat"])[0]))
                cont = {int(rng.categorical(pmf["cont"])[0])}
                if rng.uniforms(1)[0] <= cfg.extra_label_rate:
                    cont.add(int(rng.categorical(pmf["cont"])[0]))

                stack = [protos["attn"][attn]]
                stack += [protos["spat"][c] for c in sorted(spat)]
                stack += [protos["cont"][c] for c in sorted(cont)]
                feat = np.mean(stack, axis=0) + cfg.noise * rng.normals(cfg.d)

                # label flips happen after the feature is built, so flipped
                # records carry features that disagree with their labels
                if rng.uniforms(1)[0] <= cfg.flip:
                    attn = int(rng.integers(cfg.attn_classes)[0])
                if rng.uniforms(1)[0] <= cfg.flip:
                    spat = {int(rng.integers(cfg.spat_classes)[0])}
                if rng.uniforms(1)[0] <= cfg.flip:
                    cont = {int(rng.integers(cfg.cont_classes)[0])}

                records.append(TripletRecord(
                    clip=clip_base + ci, frame=t, subj=p, obj=cfg.pairs + p,
                    feat=feat, attn=attn,
                    spat=_bits(cfg.spat_classes, spat),
                    cont=_bits(cfg.cont_classes, cont)))
    return records


def label_counts(records, cfg: SyntheticConfig) -> dict:
    counts = {"attn": np.zeros(cfg.attn_classes),
              "spat": np.zeros(cfg.spat_classes),
              "cont": np.zeros(cfg.cont_classes)}
    for rec in records:
        counts["attn"][rec.attn] += 1
        counts["spat"] += np.asarray(rec.spat, dtype=np.float64)
        counts["cont"] += np.asarray(rec.cont, dtype=np.float64)
    return counts


def generate_dataset(cfg: SyntheticConfig, seed: int):
    """Returns (train records, test records, per-type train label counts)."""
    cfg.validate()
    root = nc.Rng(seed)
    proto_rng = root.spawn(0)
    protos = {t: proto_rng.normals((c, cfg.d))
              for t, c in cfg.class_counts().items()}
    train = _generate_split(cfg, cfg.clips, 0, protos, root.spawn(1))
    test = _generate_split(cfg, cfg.test_clips, cfg.clips, protos, root.spawn(2))
    return train, test, label_counts(train, cfg)


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


def frequency_stratified_report(per_class_recalls: dict, prior: FrequencyPrior,
                                head_mass: float = 0.3, tail_share: float = 0.3) -> dict:
    """Mean recall over the head bucket (smallest class set holding the top
    `head_mass` of frequency mass) and the tail bucket (the `tail_share`
    least frequent classes, rounded up)."""
    f = prior.f
    by_mass = sorted(range(f.size), key=lambda c: (-f[c], c))
    head, acc = [], 0.0
    for c in by_mass:
        head.append(c)
        acc += f[c]
        if acc >= head_mass:
            break
    n_tail = max(1, math.ceil(tail_share * f.size))
    tail = sorted(range(f.size), key=lambda c: (f[c], c))[:n_tail]

    def bucket_mean(classes):
        vals = [per_class_recalls[c] for c in classes if c in per_class_recalls]
        return float(np.mean(vals)) if vals else float("nan")

    return {"head": bucket_mean(head), "tail": bucket_mean(tail),
            "head_classes": head, "tail_classes": tail}
