"""Tests of the recall oracle on hand-built frames.

Run from the repository root:  python3 -m pytest -q bench/test_oracle.py
"""

import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from oracle import Frame, frames_from_scores, ranked, recalls, top_k  # noqa: E402

# classes 0 and 1 are type 0, classes 2, 3 and 4 are type 1
TYPES = [0, 0, 1, 1, 1]


def frame(entries, truth):
    subj, obj, cls, score = zip(*entries)
    return Frame(subj, obj, cls, score, truth)


def test_ties_break_by_class_then_subject_then_object():
    f = frame([(1, 5, 3, 0.5), (0, 5, 3, 0.5), (0, 4, 3, 0.5),
               (2, 6, 1, 0.5), (0, 4, 4, 0.9)], truth=[])
    order = [(int(f.subj[i]), int(f.obj[i]), int(f.cls[i]))
             for i in ranked(f, False, TYPES)]
    assert order == [(0, 4, 4), (2, 6, 1), (0, 4, 3), (0, 5, 3), (1, 5, 3)]


def test_tie_at_the_cut_keeps_the_lower_class():
    f = frame([(0, 1, 2, 0.3), (0, 1, 0, 0.3), (0, 1, 3, 0.1)],
              truth=[(0, 1, 2)])
    assert top_k(f, 1, False, TYPES) == {(0, 1, 0)}
    assert recalls([f], [1, 2], False, TYPES)["recall"] == {1: 0.0, 2: 1.0}


def test_constraint_keeps_one_predicate_per_pair_and_type():
    # pair (0, 1): class 2 beats class 3 inside type 1; class 0 is type 0
    f = frame([(0, 1, 2, 0.9), (0, 1, 3, 0.8), (0, 1, 0, 0.7), (2, 3, 4, 0.6)],
              truth=[(0, 1, 3), (2, 3, 4)])
    assert top_k(f, 2, True, TYPES) == {(0, 1, 2), (0, 1, 0)}
    assert top_k(f, 2, False, TYPES) == {(0, 1, 2), (0, 1, 3)}
    with_c = recalls([f], [2, 3, 10], True, TYPES)["recall"]
    without = recalls([f], [2, 3, 10], False, TYPES)["recall"]
    # the suppressed truth (0, 1, 3) is never recalled under the constraint
    assert with_c == {2: 0.0, 3: 0.5, 10: 0.5}
    assert without == {2: 0.5, 3: 0.5, 10: 1.0}


def test_k_at_and_above_the_slot_count_gives_equal_recall():
    # two pairs x two types = four constraint slots
    entries = [(s, s + 10, c, 0.05 * (c + 1) + 0.01 * s)
               for s in (0, 1) for c in range(5)]
    truth = [(0, 10, 1), (1, 11, 3), (1, 11, 4)]
    f = frame(entries, truth)
    assert len(ranked(f, True, TYPES)) == 4
    out = recalls([f], [3, 4, 5, 50], True, TYPES)
    assert out["recall"][4] == out["recall"][5] == out["recall"][50]
    assert out["mean_recall"][4] == out["mean_recall"][50]
    # class 3 of pair (1, 11) loses its slot to class 4
    assert out["recall"][50] == pytest.approx(2 / 3)
    full = recalls([f], [len(entries)], False, TYPES)
    assert full["recall"][len(entries)] == 1.0


def test_mean_recall_pools_classes_over_frames():
    a = frame([(0, 1, 0, 0.9), (0, 1, 2, 0.1)], truth=[(0, 1, 0), (0, 1, 2)])
    b = frame([(0, 1, 0, 0.2), (0, 1, 2, 0.8)], truth=[(0, 1, 0)])
    out = recalls([a, b], [1], True, TYPES)
    # class 0: one of two matched; class 2: none of one
    assert out["mean_recall"][1] == pytest.approx((0.5 + 0.0) / 2)
    assert out["recall"][1] == pytest.approx((0.5 + 0.0) / 2)


def test_frames_from_scores_uses_global_class_numbers():
    recs = [{"clip": 7, "frame": 0, "subj": 0, "obj": 2, "attn": 1,
             "spat": [0, 1], "cont": [1, 0, 1]}]
    rows = [{"attn": [0.2, 0.8], "spat": [0.1, 0.6], "cont": [0.7, 0.3, 0.5]}]
    (f,) = frames_from_scores(recs, rows, {"attn": 0, "spat": 2, "cont": 4})
    assert f.truth == {(0, 2, 1), (0, 2, 3), (0, 2, 4), (0, 2, 6)}
    assert f.cls.tolist() == [0, 1, 2, 3, 4, 5, 6]


def test_matches_the_program_on_random_frames():
    dm = pytest.importorskip("fremure.data_metrics")
    rng = random.Random(3)
    types = [0] * 3 + [1] * 2 + [2] * 4
    frames, preds, gt = [], {}, {}
    for key in range(40):
        entries = [(s, s + 5, c, round(rng.random(), 1))
                   for s in range(rng.randint(1, 4)) for c in range(9)]
        truth = {(s, o, c) for s, o, c, _ in entries if rng.random() < 0.2}
        truth.add(entries[0][:3])
        frames.append(frame(entries, truth))
        preds[key], gt[key] = entries, sorted(truth)
    ks = [1, 3, 8, 50]
    for constraint in (False, True):
        out = recalls(frames, ks, constraint, types)
        for k in ks:
            assert out["recall"][k] == pytest.approx(
                dm.recall_at_k(preds, gt, k, constraint, types), abs=1e-12)
            mr, _ = dm.mean_recall_at_k(preds, gt, k, constraint, types)
            assert out["mean_recall"][k] == pytest.approx(mr, abs=1e-12)
