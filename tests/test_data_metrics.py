"""Synthetic data generator and recall metrics against brute-force oracles."""

import math

import numpy as np
import pytest

from fremure import data_metrics as dm
from fremure import numcore as nc
from fremure.errors import ContractError
from fremure.freqgate import compute_frequencies

# ---------------------------------------------------------------------------
# config and generation
# ---------------------------------------------------------------------------


def _tiny_cfg(**kw):
    base = dict(attn_classes=3, spat_classes=3, cont_classes=4, zipf_s=1.5,
                d=4, clips=4, test_clips=2, frames=2, pairs=3,
                noise=0.2, flip=0.1, extra_label_rate=0.25)
    base.update(kw)
    return dm.SyntheticConfig(**base)


def test_config_validation_collects_all_problems():
    cfg = _tiny_cfg(clips=0, zipf_s=-1.0, flip=1.5)
    problems = cfg.problems()
    assert any("clips" in p for p in problems)
    assert any("zipf_s" in p for p in problems)
    assert any("flip" in p for p in problems)
    with pytest.raises(ContractError):
        cfg.validate()


def test_degenerate_generator_repeats_features():
    cfg = _tiny_cfg(noise=0.0, flip=0.0, extra_label_rate=0.0, clips=30)
    train, _, _ = dm.generate_dataset(cfg, seed=7)
    by_labels = {}
    for rec in train:
        key = (rec.attn, tuple(rec.spat), tuple(rec.cont))
        by_labels.setdefault(key, []).append(rec.feat)
    repeated = [feats for feats in by_labels.values() if len(feats) > 1]
    assert repeated, "expected some label combination to repeat"
    for feats in repeated:
        for f in feats[1:]:
            assert np.array_equal(f, feats[0])


def test_zipf_label_stream_matches_law():
    # the pure label stream: 1e5 draws from the rank-frequency law
    pmf = dm.zipf_pmf(10, 1.5)
    labels = nc.Rng(123).categorical(pmf, n=100000)
    for k in range(10):
        emp = (labels == k).mean()
        se = math.sqrt(pmf[k] * (1 - pmf[k]) / labels.size)
        assert abs(emp - pmf[k]) <= 3 * se, f"class {k}: {emp} vs {pmf[k]}"


def test_generated_attention_marginal_follows_zipf():
    cfg = _tiny_cfg(attn_classes=6, clips=400, frames=4, pairs=4, flip=0.0)
    train, _, counts = dm.generate_dataset(cfg, seed=11)
    n = len(train)
    pmf = dm.zipf_pmf(6, 1.5)
    emp = counts["attn"] / n
    for k in range(6):
        se = math.sqrt(pmf[k] * (1 - pmf[k]) / n)
        assert abs(emp[k] - pmf[k]) <= 4 * se


def test_record_count_and_clip_layout():
    cfg = _tiny_cfg()
    train, test, _ = dm.generate_dataset(cfg, seed=3)
    assert len(train) == cfg.clips * cfg.frames * cfg.pairs
    assert len(test) == cfg.test_clips * cfg.frames * cfg.pairs
    assert {r.clip for r in train} == set(range(cfg.clips))
    assert {r.clip for r in test} == set(range(cfg.clips, cfg.clips + cfg.test_clips))
    for r in train[:10]:
        assert len(r.spat) == cfg.spat_classes and len(r.cont) == cfg.cont_classes
        assert 0 <= r.attn < cfg.attn_classes
        assert sum(r.spat) >= 1 and sum(r.cont) >= 1


def test_generation_deterministic_bytes(tmp_path):
    cfg = _tiny_cfg()
    a, _, _ = dm.generate_dataset(cfg, seed=9)
    b, _, _ = dm.generate_dataset(cfg, seed=9)
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    dm.write_jsonl(a, pa)
    dm.write_jsonl(b, pb)
    assert pa.read_bytes() == pb.read_bytes()
    c, _, _ = dm.generate_dataset(cfg, seed=10)
    pc = tmp_path / "c.jsonl"
    dm.write_jsonl(c, pc)
    assert pa.read_bytes() != pc.read_bytes()


def test_jsonl_roundtrip_is_exact(tmp_path):
    cfg = _tiny_cfg(clips=2)
    train, _, _ = dm.generate_dataset(cfg, seed=5)
    path = tmp_path / "data.jsonl"
    dm.write_jsonl(train, path)
    back = dm.read_jsonl(path)
    assert len(back) == len(train)
    for x, y in zip(train, back):
        assert (x.clip, x.frame, x.subj, x.obj) == (y.clip, y.frame, y.subj, y.obj)
        assert np.array_equal(x.feat, y.feat)
        assert x.attn == y.attn and x.spat == y.spat and x.cont == y.cont


def test_label_counts_hand_check():
    cfg = _tiny_cfg(attn_classes=2, spat_classes=2, cont_classes=2)
    recs = [
        dm.TripletRecord(0, 0, 0, 1, np.zeros(4), 0, [1, 0], [1, 1]),
        dm.TripletRecord(0, 1, 0, 1, np.zeros(4), 1, [1, 1], [0, 1]),
    ]
    counts = dm.label_counts(recs, cfg)
    assert counts["attn"].tolist() == [1, 1]
    assert counts["spat"].tolist() == [2, 1]
    assert counts["cont"].tolist() == [1, 2]


def test_group_clips_sorted():
    recs = [
        dm.TripletRecord(1, 1, 0, 1, np.zeros(2), 0, [1], [1]),
        dm.TripletRecord(0, 0, 1, 2, np.zeros(2), 0, [1], [1]),
        dm.TripletRecord(1, 0, 0, 1, np.zeros(2), 0, [1], [1]),
    ]
    clips = dm.group_clips(recs)
    assert len(clips) == 2
    assert [r.clip for r in clips[0]] == [0]
    assert [(r.frame, r.subj) for r in clips[1]] == [(0, 0), (1, 0)]


# ---------------------------------------------------------------------------
# recall oracles
# ---------------------------------------------------------------------------


def _brute_topk(entries, k, constraint=False, class_types=None):
    # independent reimplementation: full sort, manual constraint filtering
    ranked = sorted(entries, key=lambda e: (-e[3], e[2], e[0], e[1]))
    if constraint:
        taken, kept = set(), []
        for e in ranked:
            slot = (e[0], e[1], 0 if class_types is None else int(class_types[e[2]]))
            if slot not in taken:
                taken.add(slot)
                kept.append(e)
        ranked = kept
    return {(s, o, c) for s, o, c, _ in ranked[:k]}


def test_recall_perfect_predictions():
    preds = {("c", 0): [(0, 1, 2, 0.9), (0, 1, 3, 0.8)]}
    gt = {("c", 0): [(0, 1, 2), (0, 1, 3)]}
    assert dm.recall_at_k(preds, gt, 10) == 1.0
    mr, per_class = dm.mean_recall_at_k(preds, gt, 10)
    assert mr == 1.0 and per_class == {2: 1.0, 3: 1.0}


def test_recall_half_found():
    preds = {("c", 0): [(0, 1, 2, 0.9), (0, 1, 7, 0.8)]}
    gt = {("c", 0): [(0, 1, 2), (0, 1, 3)]}
    assert dm.recall_at_k(preds, gt, 2) == 0.5


def test_recall_contract_errors():
    preds = {("c", 0): [(0, 1, 2, 0.9)]}
    with pytest.raises(ContractError):
        dm.recall_at_k(preds, {("c", 0): [(0, 1, 2)]}, 0)
    with pytest.raises(ContractError):
        dm.recall_at_k(preds, {}, 5)
    with pytest.raises(ContractError):
        dm.mean_recall_at_k(preds, {}, 5)


def test_recall_monotone_in_k():
    rng = nc.Rng(60)
    entries = [(int(rng.integers(3)[0]), 3 + int(rng.integers(3)[0]),
                int(rng.integers(8)[0]), float(rng.uniforms(1)[0]))
               for _ in range(40)]
    gt = {("c", 0): [(0, 3, 1), (1, 4, 2), (2, 5, 7)]}
    preds = {("c", 0): entries}
    values = [dm.recall_at_k(preds, gt, k) for k in (1, 3, 5, 10, 20, 40)]
    assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


def test_recall_tie_breaking_prefers_lower_class_index():
    preds = {("c", 0): [(0, 1, 5, 0.7), (0, 1, 2, 0.7), (0, 1, 9, 0.7)]}
    gt = {("c", 0): [(0, 1, 2)]}
    assert dm.recall_at_k(preds, gt, 1) == 1.0  # class 2 wins the tie
    gt9 = {("c", 0): [(0, 1, 9)]}
    assert dm.recall_at_k(preds, gt9, 1) == 0.0


def test_recall_constraint_keeps_best_predicate_per_pair_type():
    class_types = np.array([0, 0, 1])  # classes 0,1 one type; class 2 another
    preds = {("c", 0): [(0, 1, 0, 0.9), (0, 1, 1, 0.8), (0, 1, 2, 0.7)]}
    gt = {("c", 0): [(0, 1, 1)]}
    # unconstrained: class 1 sits at rank 2
    assert dm.recall_at_k(preds, gt, 2) == 1.0
    # constrained: class 1 is squeezed out by class 0 within its type
    assert dm.recall_at_k(preds, gt, 2, constraint=True, class_types=class_types) == 0.0
    # class 2 survives: it owns its type slot
    gt2 = {("c", 0): [(0, 1, 2)]}
    assert dm.recall_at_k(preds, gt2, 2, constraint=True, class_types=class_types) == 1.0


def _random_instance(rng, max_preds=60):
    n = 1 + int(rng.integers(max_preds)[0])
    entries = []
    for _ in range(n):
        s = int(rng.integers(4)[0])
        o = 4 + int(rng.integers(4)[0])
        c = int(rng.integers(10)[0])
        score = round(float(rng.uniforms(1)[0]), 2)  # coarse grid forces ties
        entries.append((s, o, c, score))
    gt = {(int(rng.integers(4)[0]), 4 + int(rng.integers(4)[0]),
           int(rng.integers(10)[0])) for _ in range(1 + int(rng.integers(6)[0]))}
    return entries, gt


def test_recall_matches_brute_force_on_200_instances():
    rng = nc.Rng(61)
    class_types = np.array([0] * 4 + [1] * 3 + [2] * 3)
    for trial in range(200):
        entries, gt = _random_instance(rng)
        constraint = trial % 2 == 1
        k = 1 + int(rng.integers(20)[0])
        preds = {("c", 0): entries}
        gts = {("c", 0): sorted(gt)}
        got = dm.recall_at_k(preds, gts, k, constraint=constraint,
                             class_types=class_types)
        top = _brute_topk(entries, k, constraint, class_types)
        assert got == len(gt & top) / len(gt)

        got_mr, got_pc = dm.mean_recall_at_k(preds, gts, k, constraint=constraint,
                                             class_types=class_types)
        total, matched = {}, {}
        for t in gt:
            total[t[2]] = total.get(t[2], 0) + 1
            if t in top:
                matched[t[2]] = matched.get(t[2], 0) + 1
        expect_pc = {c: matched.get(c, 0) / total[c] for c in total}
        assert got_pc == expect_pc
        assert got_mr == pytest.approx(np.mean(list(expect_pc.values())), abs=1e-15)


def test_mean_recall_hand_cases():
    preds = {("c", 0): [(0, 1, 0, 0.9)],
             ("c", 1): [(0, 1, 0, 0.9)]}
    gt = {("c", 0): [(0, 1, 0)], ("c", 1): [(0, 1, 1)]}
    mr, per_class = dm.mean_recall_at_k(preds, gt, 1)
    assert per_class == {0: 1.0, 1: 0.0}
    assert mr == 0.5


def test_mean_recall_sensitive_to_tail_misses():
    # head class recalled everywhere, tail class always missed
    preds, gt = {}, {}
    for f in range(9):
        preds[("c", f)] = [(0, 1, 0, 0.9)]
        gt[("c", f)] = [(0, 1, 0)]
    preds[("c", 9)] = [(0, 1, 0, 0.9)]
    gt[("c", 9)] = [(0, 1, 5)]
    r = dm.recall_at_k(preds, gt, 1)
    mr, _ = dm.mean_recall_at_k(preds, gt, 1)
    assert mr < r
    assert mr == 0.5 and r == 0.9


def test_constraint_removed_truth_is_missed_at_k_beyond_the_slots():
    # one pair and two types, so two slots; class 1 loses its slot to class 0
    class_types = np.array([0, 0, 1])
    preds = {("c", 0): [(0, 1, 0, 0.9), (0, 1, 1, 0.8), (0, 1, 2, 0.7)]}
    gt = {("c", 0): [(0, 1, 1), (0, 1, 2)]}
    for k in (2, 3, 50):
        assert dm.recall_at_k(preds, gt, k, True, class_types) == 0.5
        assert dm.mean_recall_at_k(preds, gt, k, True, class_types) == \
            (0.5, {1: 0.0, 2: 1.0})
    assert dm.recall_at_k(preds, gt, 3) == 1.0


def test_all_k_ranking_equals_per_k_calls_on_random_frames():
    rng = nc.Rng(62)
    class_types = np.array([0] * 4 + [1] * 3 + [2] * 3)
    ks = (1, 3, 5, 10, 24, 100)
    removed = 0
    for trial in range(60):
        preds, gt = {}, {}
        for f in range(1 + int(rng.integers(4)[0])):
            pairs = [(int(rng.integers(3)[0]), 3 + int(rng.integers(3)[0]))
                     for _ in range(1 + int(rng.integers(3)[0]))]
            pairs.append(pairs[0])     # two records of one (subj, obj)
            # quarter steps make score ties common
            entries = [(s, o, c, float(np.floor(rng.uniforms(1)[0] * 4) / 4))
                       for s, o in pairs for c in range(10)]
            truth = {e[:3] for e in entries if rng.uniforms(1)[0] < 0.15}
            truth.add((5, 9, int(rng.integers(10)[0])))     # never scored
            gt[("c", f)] = sorted(truth)
            if rng.uniforms(1)[0] < 0.85:
                preds[("c", f)] = entries    # else a frame with no predictions
        gt[("c", 99)] = []                   # a frame with nothing to find
        constraint = trial % 2 == 1
        types = None if trial % 4 == 3 else class_types

        keys = sorted(gt)
        rows = [(f, s, o, c) for f, key in enumerate(keys)
                for s, o, c, _ in preds.get(key, [])]
        scores = [e[3] for key in keys for e in preds.get(key, [])]
        truth = [(f, *t) for f, key in enumerate(keys) for t in gt[key]]
        got = dm.rank_recalls(np.array(rows, dtype=np.int64).reshape(-1, 4),
                              np.array(scores), np.array(truth), ks,
                              constraint, types)
        for k in ks:
            assert got["recall"][k] == dm.recall_at_k(preds, gt, k, constraint, types)
            mr, per_class = dm.mean_recall_at_k(preds, gt, k, constraint, types)
            assert got["mean_recall"][k] == mr
            assert got["per_class"][k] == per_class

            fracs, total, matched = [], {}, {}
            for key in keys:
                want = set(gt[key])
                top = _brute_topk(preds.get(key, []), k, constraint, types)
                if want:
                    fracs.append(len(want & top) / len(want))
                for t in want:
                    total[t[2]] = total.get(t[2], 0) + 1
                    matched[t[2]] = matched.get(t[2], 0) + (t in top)
            assert got["recall"][k] == np.mean(fracs)
            assert got["per_class"][k] == {c: matched[c] / total[c]
                                           for c in sorted(total)}
        if constraint:
            for key in keys:
                scored = {e[:3] for e in preds.get(key, [])}
                kept = _brute_topk(preds.get(key, []), 10**6, True, types)
                removed += len((set(gt[key]) & scored) - kept)
    assert removed > 0, "no truth triplet lost its slot to the constraint"


# ---------------------------------------------------------------------------
# stratified report
# ---------------------------------------------------------------------------


def test_stratified_uniform_recalls():
    prior = compute_frequencies([10, 5, 3, 1])
    report = dm.frequency_stratified_report({c: 0.7 for c in range(4)}, prior)
    assert report["head"] == pytest.approx(0.7)
    assert report["tail"] == pytest.approx(0.7)


def test_stratified_single_class():
    prior = compute_frequencies([42])
    report = dm.frequency_stratified_report({0: 0.3}, prior)
    assert report["head"] == report["tail"] == pytest.approx(0.3)
    assert report["head_classes"] == [0] and report["tail_classes"] == [0]


def test_stratified_buckets_match_direct_sort():
    rng = nc.Rng(62)
    counts = 1.0 + rng.integers(100, n=10).astype(float)
    recalls = {c: float(rng.uniforms(1)[0]) for c in range(10)}
    prior = compute_frequencies(counts)
    report = dm.frequency_stratified_report(recalls, prior)

    f = counts / counts.sum()
    order = sorted(range(10), key=lambda c: (-f[c], c))
    head, acc = [], 0.0
    for c in order:
        head.append(c)
        acc += f[c]
        if acc >= 0.3:
            break
    tail = sorted(range(10), key=lambda c: (f[c], c))[:3]
    assert report["head_classes"] == head
    assert report["tail_classes"] == tail
    assert report["head"] == pytest.approx(np.mean([recalls[c] for c in head]))
    assert report["tail"] == pytest.approx(np.mean([recalls[c] for c in tail]))
