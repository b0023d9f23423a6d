"""Model assembly: loss operations, task isolation, gradient conflict,
training determinism, and checkpoints."""

import json

import numpy as np
import pytest

from fremure import dpeg
from fremure import numcore as nc
from fremure import model as M
from fremure.data_metrics import SyntheticConfig, TripletRecord, generate_dataset, group_clips
from fremure.errors import ContractError, NumericalError
from fremure.heads import probability_loss

# mpmath, 40 digits
CE_123_T0 = 2.4076059644443803   # -log softmax([1,2,3])[0]
CE_123_T2 = 0.4076059644443803
BCE_HALF = 0.47407698418010668   # both entries reduce to softplus(-0.5)


def _clip(rng, n_frames=3, n_pairs=2, raw=6, ca=2, cs=4, cc=4, clip_id=0):
    recs = []
    for f in range(n_frames):
        for p in range(n_pairs):
            spat = [(f + p + c) % 2 for c in range(cs)]
            cont = [(f * p + c) % 2 for c in range(cc)]
            recs.append(TripletRecord(clip_id, f, p, n_pairs + p,
                                      rng.normals(raw), (f + p) % ca, spat, cont))
    return recs


def _small_cfg(**over):
    base = dict(raw_dim=6, d=8, h=2, attn_classes=2, spat_classes=4,
                cont_classes=4, window_w=2, window_s=1)
    base.update(over)
    return M.ModelConfig(**base)


class TestLossOps:
    def test_attention_loss_matches_frozen_values(self):
        logits = nc.Tensor(np.array([1.0, 2.0, 3.0]))
        assert M.loss_attention(logits, 0).item() == pytest.approx(CE_123_T0, abs=1e-14)
        assert M.loss_attention(logits, 2).item() == pytest.approx(CE_123_T2, abs=1e-14)

    def test_attention_loss_rejects_bad_target(self):
        logits = nc.Tensor(np.zeros(3))
        for target in (-1, 3):
            with pytest.raises(ContractError):
                M.loss_attention(logits, target)

    def test_attention_loss_gradient(self):
        x = nc.Tensor(nc.Rng(3).normals(5))
        err = nc.finite_diff_check(lambda t: M.loss_attention(t, 2), x)
        assert err < 1e-6

    def test_bce_matches_direct_sigmoid_formula(self):
        rng = nc.Rng(4)
        x = nc.Tensor(rng.normals(12) * 3.0)
        y = (rng.uniforms(12) < 0.5).astype(np.float64)
        got = M.loss_multilabel_bce(x, y).item()
        s = 1.0 / (1.0 + np.exp(-x.data))
        want = float(-(y * np.log(s) + (1 - y) * np.log(1 - s)).mean())
        assert got == pytest.approx(want, rel=1e-12)

    def test_bce_frozen_example(self):
        x = nc.Tensor(np.array([0.5, -0.5]))
        got = M.loss_multilabel_bce(x, np.array([1.0, 0.0])).item()
        assert got == pytest.approx(BCE_HALF, abs=1e-15)

    def test_bce_extreme_logits_stay_finite(self):
        x = nc.Tensor(np.array([1000.0, -1000.0]))
        loss = M.loss_multilabel_bce(x, np.array([0.0, 1.0])).item()
        assert loss == 1000.0  # softplus saturates to the hinge exactly

    def test_bce_shape_mismatch_rejected(self):
        with pytest.raises(ContractError):
            M.loss_multilabel_bce(nc.Tensor(np.zeros(3)), np.zeros(4))

    def test_bce_gradient(self):
        y = np.array([1.0, 0.0, 1.0, 1.0])
        x = nc.Tensor(nc.Rng(5).normals(4))
        err = nc.finite_diff_check(lambda t: M.loss_multilabel_bce(t, y), x)
        assert err < 1e-6

    def test_margin_hand_case(self):
        scores = nc.Tensor(np.array([0.9, 0.2, 0.7, 0.1]))
        got = M.loss_multilabel_margin(scores, [0, 2], [1, 3]).item()
        # pairs: 0.3, 0.2, 0.5, 0.4 over the 2x2 grid
        assert got == pytest.approx(0.35, rel=1e-12)

    def test_margin_empty_sets_give_zero(self):
        scores = nc.Tensor(np.array([0.9, 0.2]))
        assert M.loss_multilabel_margin(scores, [], [1]).item() == 0.0
        assert M.loss_multilabel_margin(scores, [0], []).item() == 0.0

    def test_margin_validates_index_sets(self):
        scores = nc.Tensor(np.zeros(3))
        with pytest.raises(ContractError):
            M.loss_multilabel_margin(scores, [0], [0, 2])
        with pytest.raises(ContractError):
            M.loss_multilabel_margin(scores, [0], [3])

    def test_margin_satisfied_pairs_cost_nothing(self):
        scores = nc.Tensor(np.array([2.5, 0.2]))
        assert M.loss_multilabel_margin(scores, [0], [1]).item() == 0.0

    def test_margin_gradient(self):
        # all hinges strictly active, away from the kink
        x = nc.Tensor(np.array([0.3, 0.1, 0.4, 0.2]))
        err = nc.finite_diff_check(
            lambda t: M.loss_multilabel_margin(t, [0, 2], [1, 3]), x)
        assert err < 1e-6

    def test_batched_single_label_loss_equals_rowwise(self):
        rng = nc.Rng(6)
        probs = nc.softmax(nc.Tensor(rng.normals((5, 4))), axis=-1)
        targets = rng.integers(4, 5)
        got = M._nll_rows(probs, targets).item()
        rows = [probability_loss(probs[i], targets[i], "single").item()
                for i in range(5)]
        assert got == pytest.approx(np.mean(rows), rel=1e-14)

    def test_batched_bce_equals_rowwise(self):
        rng = nc.Rng(7)
        probs = nc.sigmoid(nc.Tensor(rng.normals((5, 4))))
        bits = (rng.uniforms(20) < 0.5).astype(np.float64).reshape(5, 4)
        got = M._bce_rows(probs, bits).item()
        rows = [probability_loss(probs[i], bits[i], "multi").item()
                for i in range(5)]
        assert got == pytest.approx(np.mean(rows), rel=1e-14)

    def test_batched_margin_equals_rowwise(self):
        rng = nc.Rng(8)
        probs = nc.sigmoid(nc.Tensor(rng.normals((5, 4))))
        bits = np.array([[1, 0, 1, 0], [0, 1, 1, 1], [1, 1, 1, 1],
                         [0, 0, 0, 0], [1, 0, 0, 0]], dtype=np.float64)
        got = M._margin_rows(probs, bits).item()
        rows = []
        for i in range(5):
            pos, neg = np.flatnonzero(bits[i] == 1), np.flatnonzero(bits[i] == 0)
            rows.append(M.loss_multilabel_margin(probs[i], pos, neg).item())
        assert got == pytest.approx(np.mean(rows), rel=1e-12)


class TestConfig:
    def test_round_trips_through_json(self):
        cfg = _small_cfg(flags=M.AblationFlags(decouple=False, head="bayesian"),
                         multilabel_loss="margin", tau=0.0)
        back = M.ModelConfig.from_json(json.loads(json.dumps(cfg.to_json())))
        assert back == cfg

    def test_collects_all_problems(self):
        cfg = _small_cfg(d=9, window_s=5, window_w=3, sigma_min=0.0,
                         flags=M.AblationFlags(head="resnet"))
        problems = "; ".join(cfg.problems())
        for needle in ("divisible", "window_s", "sigma_min", "head"):
            assert needle in problems
        with pytest.raises(ContractError):
            cfg.validate()

    def test_head_kwargs_follow_head_kind(self):
        assert _small_cfg().head_kwargs()["k"] == 3
        bayes = _small_cfg(flags=M.AblationFlags(head="bayesian"))
        assert set(bayes.head_kwargs()) == {"s_train", "s_eval"}
        linear = _small_cfg(flags=M.AblationFlags(head="linear"))
        assert linear.head_kwargs() == {}


class TestStructure:
    def test_decoupled_parameters_partition_by_task(self):
        model = M.FremureModel(_small_cfg(), nc.Rng(0))
        paths = set(model.parameters())
        owners = {t: [p for p in paths
                      if p.startswith((f"trunks.{t}.", f"heads.{t}."))]
                  for t in M.TYPES}
        assert sorted(sum(owners.values(), [])) == sorted(paths)
        for t in M.TYPES:
            assert f"trunks.{t}.proj.w" in paths  # per-task input projection
            assert owners[t]

    def test_shared_mode_has_single_trunk(self):
        cfg = _small_cfg(flags=M.AblationFlags(decouple=False))
        model = M.FremureModel(cfg, nc.Rng(0))
        trunk = [p for p in model.parameters() if p.startswith("trunks.")]
        assert trunk and all(p.startswith("trunks.shared.") for p in trunk)
        assert model.trunks["shared"].dpeg.n_classes == 2 + 4 + 4

    def test_ablation_flags_shrink_parameter_tree(self):
        full = set(M.FremureModel(_small_cfg(), nc.Rng(0)).parameters())
        cfg = _small_cfg(flags=M.AblationFlags(dual_branch=False))
        single = set(M.FremureModel(cfg, nc.Rng(0)).parameters())
        assert not [p for p in single if "tail_enc" in p or "fusion" in p]
        assert [p for p in full if "tail_enc" in p]
        cfg = _small_cfg(flags=M.AblationFlags(frequency=False))
        nofreq = set(M.FremureModel(cfg, nc.Rng(0)).parameters())
        assert not [p for p in nofreq if "freq_gate" in p]

    def test_forward_shapes_align_with_records(self):
        model = M.FremureModel(_small_cfg(), nc.Rng(0))
        clip = _clip(nc.Rng(1))
        out = model.forward(clip, nc.Rng(2), training=False)
        n = len(clip)
        assert out["probs"]["attn"].shape == (n, 2)
        assert out["probs"]["spat"].shape == (n, 4)
        assert out["probs"]["cont"].shape == (n, 4)
        for t in M.TYPES:
            assert out["reports"][t].epistemic_rows.shape == (n,)

    def test_forward_validates_clip(self):
        model = M.FremureModel(_small_cfg(), nc.Rng(0))
        good = _clip(nc.Rng(1))
        cases = []
        bad = [r for r in good]
        bad[1] = TripletRecord(9, bad[1].frame, bad[1].subj, bad[1].obj,
                               bad[1].feat, bad[1].attn, bad[1].spat, bad[1].cont)
        cases.append(bad)                                     # mixed clip ids
        bad = [TripletRecord(0, 0, 0, 1, np.zeros(5), 0, [0] * 4, [0] * 4)]
        cases.append(bad)                                     # wrong raw dim
        bad = [TripletRecord(0, 0, 0, 1, np.zeros(6), 7, [0] * 4, [0] * 4)]
        cases.append(bad)                                     # attn out of range
        bad = [TripletRecord(0, 0, 0, 1, np.zeros(6), 0, [0] * 3, [0] * 4)]
        cases.append(bad)                                     # label width
        cases.append([])                                      # empty
        for clip in cases:
            with pytest.raises(ContractError):
                model.forward(clip)


class TestIsolation:
    def test_decoupled_perturbation_cannot_cross_tasks(self):
        model = M.FremureModel(_small_cfg(), nc.Rng(0))
        clip = _clip(nc.Rng(1))
        before = model.forward(clip, nc.Rng(5), training=True)
        for key, p in model.parameters().items():
            if key.startswith(("trunks.attn.", "heads.attn.")):
                p.data += 0.1
        after = model.forward(clip, nc.Rng(5), training=True)
        assert not np.array_equal(before["probs"]["attn"].data,
                                  after["probs"]["attn"].data)
        for t in ("spat", "cont"):
            assert np.array_equal(before["probs"][t].data, after["probs"][t].data)

    def test_shared_trunk_couples_tasks(self):
        cfg = _small_cfg(flags=M.AblationFlags(decouple=False))
        model = M.FremureModel(cfg, nc.Rng(0))
        clip = _clip(nc.Rng(1))
        before = model.forward(clip, nc.Rng(5))
        model.parameters()["trunks.shared.proj.w"].data += 0.1
        after = model.forward(clip, nc.Rng(5))
        for t in M.TYPES:
            assert not np.array_equal(before["probs"][t].data,
                                      after["probs"][t].data)


class TestBatchedTrunks:
    """All trunks run as one batched pass; each slice must equal its trunk
    run alone through its own projection and generator. The batched pass only
    reassociates float64 sums of at most 2d terms, hence 1e-12 relative."""

    RAGGED = [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (3, 1), (5, 2), (2, 2)]

    @staticmethod
    def _rel(got, want):
        return np.abs(got - want).max() / max(np.abs(want).max(), 1e-300)

    @pytest.mark.parametrize("shape", ["rectangular", "ragged"])
    @pytest.mark.parametrize("flags", [{}, {"frequency": False}, {"dual_branch": False},
                                       {"decouple": False}])
    def test_batched_embeddings_and_gradients_match_each_trunk_alone(self, shape, flags):
        model = M.FremureModel(_small_cfg(flags=M.AblationFlags(**flags)), nc.Rng(4))
        model.set_priors({"attn": [5.0, 1.0], "spat": [1.0, 9.0, 3.0, 2.0],
                          "cont": [4.0, 0.0, 2.0, 7.0]})
        rows = ([(f, p) for f in range(3) for p in range(2)] if shape == "rectangular"
                else self.RAGGED)
        rng = nc.Rng(6)
        feats = rng.normals((len(rows), 6))
        frames = np.array([f for f, _ in rows])
        pair_ids = np.array([p for _, p in rows])
        trunks = list(model.trunks.values())
        priors = ([model.priors[t] for t in M.TYPES] if model.cfg.flags.decouple
                  else [model.global_prior])
        readouts = [nc.Tensor(rng.normals((len(rows), 8))) for _ in trunks]

        model.zero_grad()
        batched = model._embed(feats, dpeg.clip_layout(frames, pair_ids))
        together = [batched[t] for t in M.TYPES][:len(trunks)]
        sum(((z * r).sum() for z, r in zip(together, readouts)), nc.Tensor(0.0)).backward()
        grads = {k: p.grad.copy() for k, p in model.parameters().items() if p.grad is not None}

        model.zero_grad()
        for trunk, prior, z, r in zip(trunks, priors, together, readouts):
            alone = trunk.dpeg(trunk.proj(nc.Tensor(feats)), frames, pair_ids, prior)
            assert self._rel(z.data, alone.data) <= 1e-12
            (alone * r).sum().backward()
        alone_grads = {k: p.grad for k, p in model.parameters().items() if p.grad is not None}

        assert set(grads) == set(alone_grads)
        assert len(alone_grads) == len([k for k in model.parameters()
                                        if k.startswith("trunks.")])
        for key, g in alone_grads.items():
            assert self._rel(grads[key], g) <= 1e-12, key


class TestConflict:
    def test_decoupled_is_not_applicable(self):
        model = M.FremureModel(_small_cfg(), nc.Rng(0))
        report = M.grad_conflict(model, _clip(nc.Rng(1)))
        assert report == M.ConflictReport(False, 0, {})

    def test_shared_reports_three_bounded_cosines(self):
        cfg = _small_cfg(flags=M.AblationFlags(decouple=False))
        model = M.FremureModel(cfg, nc.Rng(0))
        report = M.grad_conflict(model, _clip(nc.Rng(1)), nc.Rng(2))
        assert set(report.cosines) == {"attn_spat", "attn_cont", "spat_cont"}
        assert all(-1.0 <= v <= 1.0 for v in report.cosines.values())
        trunk = model.trunks["shared"].parameters().values()
        assert report.shared_params == sum(p.data.size for p in trunk)
        assert report.to_json()["applicable"] is True

    def test_complementary_labels_drive_antiparallel_gradients(self):
        # spat and cont heads share tiny weights; cont labels are the exact
        # complement of spat labels, so at near-0.5 probabilities the BCE
        # residuals (and hence the trunk gradients) are sign flips of each
        # other.
        cfg = _small_cfg(flags=M.AblationFlags(decouple=False, head="linear"))
        model = M.FremureModel(cfg, nc.Rng(0))
        rng = nc.Rng(42)
        clip = []
        for f in range(3):
            for p in range(2):
                bits = [(f + p + c) % 2 for c in range(4)]
                clip.append(TripletRecord(0, f, p, 2 + p, rng.normals(6),
                                          (f + p) % 2, bits,
                                          [1 - b for b in bits]))
        w = model.heads["spat"].lin.w.data * 1e-6
        for t in ("spat", "cont"):
            model.heads[t].lin.w.data = w.copy()
            model.heads[t].lin.b.data[:] = 0.0
        report = M.grad_conflict(model, clip)
        assert report.cosines["spat_cont"] < -0.999

    def test_zero_gradient_task_scores_cosine_zero(self):
        cfg = _small_cfg(flags=M.AblationFlags(decouple=False, head="linear"))
        model = M.FremureModel(cfg, nc.Rng(0))
        # constant-zero logits: the spat loss never touches the trunk
        model.heads["spat"].lin.w.data[:] = 0.0
        model.heads["spat"].lin.b.data[:] = 0.0
        report = M.grad_conflict(model, _clip(nc.Rng(1)))
        assert report.cosines["attn_spat"] == 0.0
        assert report.cosines["spat_cont"] == 0.0
        assert report.cosines["attn_cont"] != 0.0


class TestLossAssemblyAndGradients:
    def test_total_equals_sum_of_parts(self):
        model = M.FremureModel(_small_cfg(), nc.Rng(0))
        total, parts = model.total_loss(_clip(nc.Rng(1)), nc.Rng(2))
        assert total.item() == ((parts["L_a"] + parts["L_s"]) + parts["L_c"]) + parts["reg"]
        assert parts["total"] == total.item()

    def test_margin_loss_is_selectable(self):
        cfg = _small_cfg(multilabel_loss="margin")
        model = M.FremureModel(cfg, nc.Rng(0))
        clip = _clip(nc.Rng(1))
        _, parts = model.total_loss(clip, nc.Rng(2))
        cfg_bce = _small_cfg()
        model_bce = M.FremureModel(cfg_bce, nc.Rng(0))
        _, parts_bce = model_bce.total_loss(clip, nc.Rng(2))
        assert parts["L_a"] == parts_bce["L_a"]
        assert parts["L_s"] != parts_bce["L_s"]

    def test_full_model_gradients_match_finite_differences(self):
        cfg = M.ModelConfig(raw_dim=3, d=4, h=2, attn_classes=2, spat_classes=2,
                            cont_classes=2, window_w=2, window_s=1, ffn_mult=1,
                            k=2)
        model = M.FremureModel(cfg, nc.Rng(0))
        clip = _clip(nc.Rng(1), n_frames=2, n_pairs=2, raw=3, ca=2, cs=2, cc=2)

        def loss():
            total, _ = model.total_loss(clip, nc.Rng(9), training=True)
            return total

        assert M.finite_diff_model(model, loss) < 1e-4


class TestTraining:
    def _records(self, seed=11):
        cfg = SyntheticConfig(attn_classes=2, spat_classes=4, cont_classes=4,
                              d=6, clips=5, test_clips=2, frames=3, pairs=2)
        return generate_dataset(cfg, seed)

    def test_training_is_deterministic(self):
        train, test, _ = self._records()
        tcfg = M.TrainConfig(epochs=2, ks=(5,))
        m1, h1 = M.train(train, _small_cfg(), tcfg, 7, val_records=test)
        m2, h2 = M.train(train, _small_cfg(), tcfg, 7, val_records=test)
        assert h1 == h2
        for key, p in m1.parameters().items():
            assert np.array_equal(p.data, m2.parameters()[key].data)
        m3, _ = M.train(train, _small_cfg(), tcfg, 8)
        assert any(not np.array_equal(p.data, m3.parameters()[k].data)
                   for k, p in m1.parameters().items())

    def test_zero_learning_rate_freezes_parameters(self):
        train, _, counts = self._records()
        tcfg = M.TrainConfig(lr=0.0, epochs=1)
        trained, _ = M.train(train, _small_cfg(), tcfg, 7)
        fresh = M.FremureModel(_small_cfg(), nc.Rng(7).spawn(0))
        for key, p in fresh.parameters().items():
            assert np.array_equal(p.data, trained.parameters()[key].data)

    def test_loss_decreases(self):
        train, _, _ = self._records()
        _, hist = M.train(train, _small_cfg(), M.TrainConfig(epochs=4), 7)
        first = hist[0]["L_a"] + hist[0]["L_s"] + hist[0]["L_c"]
        last = hist[-1]["L_a"] + hist[-1]["L_s"] + hist[-1]["L_c"]
        assert last < first

    def test_non_finite_loss_aborts_with_context(self):
        train, _, _ = self._records()
        train[3].feat[0] = np.nan
        with pytest.raises(NumericalError, match="epoch 0"):
            M.train(train, _small_cfg(), M.TrainConfig(epochs=1), 7)

    def test_history_carries_validation_metrics(self):
        train, test, _ = self._records()
        _, hist = M.train(train, _small_cfg(), M.TrainConfig(epochs=1, ks=(5, 10)),
                          7, val_records=test)
        assert {"epoch", "L_a", "L_s", "L_c", "reg", "mR@5", "mR@10",
                "R@5", "R@10"} == set(hist[0])


class TestEvalAndCheckpoint:
    def _trained(self, head="gmm_plus"):
        cfg = SyntheticConfig(attn_classes=2, spat_classes=4, cont_classes=4,
                              d=6, clips=4, test_clips=2, frames=3, pairs=2)
        train, test, _ = generate_dataset(cfg, 11)
        mcfg = _small_cfg(flags=M.AblationFlags(head=head))
        model, _ = M.train(train, mcfg, M.TrainConfig(epochs=1), 7)
        return model, test

    def test_predictions_score_every_class(self):
        model, test = self._trained()
        pred = M.predict_clips(model, group_clips(test), nc.Rng(0))
        frames, subj, obj, cls = pred.entries.T
        assert set(frames.tolist()) == set(pred.truth[:, 0].tolist())
        for f in set(frames.tolist()):
            mine = frames == f
            pairs = set(zip(subj[mine].tolist(), obj[mine].tolist()))
            # every class of every pair is scored exactly once
            scored = sorted(zip(subj[mine].tolist(), obj[mine].tolist(),
                                cls[mine].tolist()))
            assert scored == sorted((s, o, c) for s, o in pairs
                                    for c in range(2 + 4 + 4))
        assert pred.scores.shape == (len(pred.entries),)
        # ground truth uses the global numbering: attn ids precede spat ids
        assert all(0 <= c < 10 for c in pred.truth[:, 3])
        attn = pred.truth[pred.truth[:, 3] < 2]
        assert len(attn) == len(test)

    def test_evaluate_is_deterministic_and_bounded(self):
        model, test = self._trained(head="bayesian")
        r1 = M.evaluate(model, test, ks=(5, 10), seed=3)
        r2 = M.evaluate(model, test, ks=(5, 10), seed=3)
        assert r1 == r2
        for k in (5, 10):
            assert 0.0 <= r1["recall"][k] <= 1.0
            assert 0.0 <= r1["mean_recall"][k] <= 1.0

    def test_checkpoint_round_trip_is_bitwise(self):
        model, test = self._trained()
        doc = json.loads(json.dumps(M.checkpoint_dict(model, epoch=1, seed=7)))
        back = M.model_from_checkpoint(doc)
        for key, p in model.parameters().items():
            assert np.array_equal(p.data, back.parameters()[key].data)
        assert M.evaluate(back, test, ks=(5,), seed=0) == \
            M.evaluate(model, test, ks=(5,), seed=0)

    def test_checkpoint_rejects_wrong_architecture(self):
        model, _ = self._trained()
        doc = M.checkpoint_dict(model, epoch=1, seed=7)
        smaller = json.loads(json.dumps(doc))
        smaller["config"]["d"] = 4
        with pytest.raises(ContractError):
            M.model_from_checkpoint(smaller)
        dropped = json.loads(json.dumps(doc))
        dropped["parameters"].popitem()
        with pytest.raises(ContractError):
            M.model_from_checkpoint(dropped)

    def test_checkpoint_carries_optimizer_state(self):
        model, _ = self._trained()
        opt = nc.Adam(model.parameters())
        for p in model.parameters().values():
            p.grad = np.ones_like(p.data)
        opt.step()
        doc = M.checkpoint_dict(model, epoch=1, seed=7, optimizer=opt)
        assert doc["optimizer"]["t"] == 1
