"""Recall oracle for the benchmark's output checks.

Written apart from ``fremure.data_metrics``: it shares no code with the
program's ranking, so a fault there cannot hide itself. A frame is a table
of scored triplets (subject, object, global class, score) plus its set of
ground-truth triplets. The ranking is by score descending, ties broken by
class, then subject, then object ascending. With the constraint on, only the
first-ranked predicate of each (subject, object, relation type) survives.
"""

from __future__ import annotations

import numpy as np


class Frame:
    """One clip-frame: parallel arrays of scored entries and its truth."""

    def __init__(self, subj, obj, cls, score, truth):
        self.subj = np.asarray(subj, dtype=np.int64)
        self.obj = np.asarray(obj, dtype=np.int64)
        self.cls = np.asarray(cls, dtype=np.int64)
        self.score = np.asarray(score, dtype=np.float64)
        self.truth = {tuple(int(v) for v in t) for t in truth}


def ranked(frame: Frame, constraint: bool, class_types) -> np.ndarray:
    """Entry indices of `frame` in rank order (after the constraint)."""
    # np.lexsort sorts by its last key first
    order = np.lexsort((frame.obj, frame.subj, frame.cls, -frame.score))
    if not constraint:
        return order
    types = np.asarray(class_types, dtype=np.int64)[frame.cls[order]]
    slots = np.stack([frame.subj[order], frame.obj[order], types], axis=1)
    _, first = np.unique(slots, axis=0, return_index=True)
    return order[np.sort(first)]


def top_k(frame: Frame, k: int, constraint: bool, class_types) -> set:
    idx = ranked(frame, constraint, class_types)[:k]
    return set(zip(frame.subj[idx].tolist(), frame.obj[idx].tolist(),
                   frame.cls[idx].tolist()))


def recalls(frames, ks, constraint: bool, class_types) -> dict:
    """R@K (mean over frames of the matched share of that frame's truth) and
    mR@K (per-class recall pooled over frames, averaged over the classes that
    occur in the truth), for each K."""
    out = {"recall": {}, "mean_recall": {}}
    for k in ks:
        per_frame = []
        matched, total = {}, {}
        for frame in frames:
            if not frame.truth:
                continue
            top = top_k(frame, k, constraint, class_types)
            per_frame.append(len(frame.truth & top) / len(frame.truth))
            for triplet in frame.truth:
                c = triplet[2]
                total[c] = total.get(c, 0) + 1
                matched[c] = matched.get(c, 0) + (triplet in top)
        if not per_frame:
            raise ValueError("no frame has ground truth")
        out["recall"][k] = sum(per_frame) / len(per_frame)
        out["mean_recall"][k] = sum(matched[c] / total[c] for c in total) / len(total)
    return out


def frames_from_scores(records, scores, offsets) -> list:
    """Frames from per-record label rows and score rows.

    records: dicts with clip, frame, subj, obj, attn, spat and cont as in the
    JSONL files; scores: one dict per record mapping each relation type to
    its row of class scores; offsets: the first global class of each type.
    """
    tables = {}
    for rec, row in zip(records, scores):
        key = (rec["clip"], rec["frame"])
        subj, obj = rec["subj"], rec["obj"]
        table = tables.setdefault(key, ([], [], [], [], set()))
        for t, off in offsets.items():
            values = np.asarray(row[t], dtype=np.float64)
            table[0].extend([subj] * values.size)
            table[1].extend([obj] * values.size)
            table[2].extend(range(off, off + values.size))
            table[3].extend(values.tolist())
        table[4].add((subj, obj, offsets["attn"] + rec["attn"]))
        for t in ("spat", "cont"):
            table[4].update((subj, obj, offsets[t] + c)
                            for c, bit in enumerate(rec[t]) if bit)
    return [Frame(*tables[key]) for key in sorted(tables)]
