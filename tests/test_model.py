"""Model assembly: loss operations, task isolation, gradient conflict,
training determinism, and checkpoints."""

import base64
import hashlib
import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from draws import integers
from fremure import dpeg
from fremure import numcore as nc
from fremure import model as M
from fremure.data_metrics import Split, SyntheticConfig, TripletRecord, generate_dataset
from fremure.errors import ContractError, NumericalError
from gradcheck import backward_visiting_everything, finite_diff_check, finite_diff_model

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


def _loss_multilabel_margin(scores, positives, negatives):
    """Per-row oracle for ``M._margin_rows``: the pairwise hinge
    mean(max(0, 1 - s_p + s_n)) over positives x negatives of one row of
    scores, zero when either set is empty."""
    pos = np.asarray(positives, dtype=np.int64).ravel()
    neg = np.asarray(negatives, dtype=np.int64).ravel()
    if pos.size == 0 or neg.size == 0:
        return nc.Tensor(0.0)
    sp = nc.reshape(scores[pos], (pos.size, 1))
    sn = nc.reshape(scores[neg], (1, neg.size))
    return nc.maximum(1.0 - sp + sn, 0.0).mean()


def _split(model, clips):
    """The Split of clips (lists of records), back to back."""
    return Split.of(sum(clips, []), model.cfg.raw_dim, model.cfg.class_counts())


def _owned(p: nc.Tensor, tasks: int, i: int) -> tuple:
    """The index of the part of trunk tensor ``p`` that task slice ``i`` of
    a ``tasks``-task trunk owns: slice i, and slice tasks + i too in the
    local head/tail stack."""
    return (np.arange(i, p.shape[0], tasks),)


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

    def test_attention_loss_gradient(self):
        x = nc.Tensor(nc.Rng(3).normals(5))
        err = finite_diff_check(lambda t: M.loss_attention(t, 2), x)
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

    def test_bce_gradient(self):
        y = np.array([1.0, 0.0, 1.0, 1.0])
        x = nc.Tensor(nc.Rng(5).normals(4))
        err = finite_diff_check(lambda t: M.loss_multilabel_bce(t, y), x)
        assert err < 1e-6

    def test_margin_hand_case(self):
        scores = nc.Tensor(np.array([[0.9, 0.2, 0.7, 0.1]]))
        got = M._margin_rows(scores, np.array([[1.0, 0.0, 1.0, 0.0]])).item()
        # pairs: 0.3, 0.2, 0.5, 0.4 over the 2x2 grid
        assert got == pytest.approx(0.35, rel=1e-12)

    def test_margin_empty_sets_give_zero(self):
        scores = nc.Tensor(np.array([[0.9, 0.2]]))
        assert M._margin_rows(scores, np.array([[0.0, 0.0]])).item() == 0.0
        assert M._margin_rows(scores, np.array([[1.0, 1.0]])).item() == 0.0

    def test_margin_satisfied_pairs_cost_nothing(self):
        scores = nc.Tensor(np.array([[2.5, 0.2]]))
        assert M._margin_rows(scores, np.array([[1.0, 0.0]])).item() == 0.0

    def test_margin_gradient(self):
        # all hinges strictly active, away from the kink
        x = nc.Tensor(np.array([[0.3, 0.1, 0.4, 0.2]]))
        bits = np.array([[1.0, 0.0, 1.0, 0.0]])
        err = finite_diff_check(lambda t: M._margin_rows(t, bits), x)
        assert err < 1e-6

    def test_batched_single_label_loss_equals_rowwise(self):
        rng = nc.Rng(6)
        logits = nc.Tensor(rng.normals((5, 4)))
        targets = integers(rng, 4, 5)
        got = M.loss_attention(logits, targets).item()
        rows = [M.loss_attention(logits[i], targets[i]).item() for i in range(5)]
        assert got == pytest.approx(np.mean(rows), rel=1e-14)

    def test_batched_bce_equals_rowwise(self):
        rng = nc.Rng(7)
        logits = nc.Tensor(rng.normals((5, 4)))
        bits = (rng.uniforms(20) < 0.5).astype(np.float64).reshape(5, 4)
        got = M.loss_multilabel_bce(logits, bits).item()
        rows = [M.loss_multilabel_bce(logits[i], bits[i]).item() for i in range(5)]
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
            rows.append(_loss_multilabel_margin(probs[i], pos, neg).item())
        assert got == pytest.approx(np.mean(rows), rel=1e-12)

    def test_masked_margin_equals_rowwise_reference(self):
        # value and every gradient of the one-graph hinge against the sum of
        # per-row _loss_multilabel_margin graphs, on random bits; lattice
        # scores make hinges that are exactly 0, where both route the
        # gradient through the hinge (maximum's first argument)
        degenerate = exact_zero = 0
        for inst in range(240):
            rng = nc.Rng(41).spawn(inst)
            n = 1 if inst % 6 == 0 else 1 + int(integers(rng, 7)[0])
            c = 1 if inst % 6 == 1 else 1 + int(integers(rng, 8)[0])
            rate = rng.uniforms(n)[:, None]
            rate[rng.uniforms(n) < 0.25] = float(inst % 2)  # all-pos or all-neg rows
            bits = (rng.uniforms(n * c).reshape(n, c) < rate).astype(np.float64)
            if inst % 3 == 0:
                data = integers(rng, 3, n * c).reshape(n, c) * 0.5
            else:
                data = rng.uniforms(n * c).reshape(n, c)
            got_x = nc.Tensor(data, requires_grad=True)
            ref_x = nc.Tensor(data, requires_grad=True)
            got = M._margin_rows(got_x, bits)
            ref = _margin_rows_reference(ref_x, bits)
            assert abs(got.item() - ref.item()) <= 1e-12
            got.backward()
            ref.backward()
            ref_grad = ref_x.grad if ref_x.grad is not None else np.zeros((n, c))
            np.testing.assert_allclose(got_x.grad, ref_grad, rtol=0, atol=1e-12)
            pos, neg = bits == 1, bits == 0
            degenerate += int(np.sum(~pos.any(axis=1) | ~neg.any(axis=1)))
            hinge = 1.0 - data[:, :, None] + data[:, None, :]
            exact_zero += int(np.sum((hinge == 0.0)
                                     & pos[:, :, None] & neg[:, None, :]))
        assert degenerate > 0 and exact_zero > 0

    def test_masked_margin_tape_does_not_grow_with_rows(self):
        def tape_nodes(n):
            rng = nc.Rng(43).spawn(n)
            x = nc.Tensor(rng.uniforms(n * 16).reshape(n, 16), requires_grad=True)
            bits = (rng.uniforms(n * 16).reshape(n, 16) < 0.3).astype(np.float64)
            seen, todo = set(), [M._margin_rows(x, bits)]
            while todo:
                node = todo.pop()
                if id(node) not in seen:
                    seen.add(id(node))
                    todo.extend(node._parents)
            return len(seen)

        assert tape_nodes(2) == tape_nodes(40)


def _margin_rows_reference(scores, bits):
    """Mean over rows of one _loss_multilabel_margin graph per row."""
    total = nc.Tensor(0.0)
    for i in range(bits.shape[0]):
        pos, neg = np.flatnonzero(bits[i] == 1), np.flatnonzero(bits[i] == 0)
        total = total + _loss_multilabel_margin(scores[i], pos, neg)
    return total * (1.0 / bits.shape[0])


class TestUnderflowingTargets:
    """Targets whose probability underflows, reached through the training
    losses: head biases 200 apart put that probability near e^-200, and the
    loss must still equal its closed form on the logits, with a gradient."""

    def _model(self, head):
        model = M.FremureModel(_small_cfg(flags=M.AblationFlags(head=head)), nc.Rng(0))
        return model, _clip(nc.Rng(1))

    def test_linear_single_label(self):
        model, clip = self._model("linear")
        head = model.heads["attn"]
        head.lin.w.data[:] = 0.0
        head.lin.b.data[:] = [0.0, -200.0]
        y = np.array([r.attn for r in clip]) == 1
        losses, _ = model._type_losses(clip, nc.Rng(2), training=True)
        # -log softmax([0, -200]) = log1p(e^-200) + [0, 200]
        want = math.log1p(math.exp(-200.0)) + 200.0 * y.mean()
        assert losses["attn"].item() == pytest.approx(want, rel=1e-15)
        losses["attn"].backward()
        # row mean of softmax - onehot: [f, -f] for a share f of class-1 rows
        np.testing.assert_allclose(head.lin.b.grad, [y.mean(), -y.mean()], rtol=1e-12)
        assert y.any()

    def test_linear_multi_label(self):
        model, clip = self._model("linear")
        head = model.heads["spat"]
        head.lin.w.data[:] = 0.0
        head.lin.b.data[:] = -200.0
        y = np.array([r.spat for r in clip], dtype=np.float64)
        losses, _ = model._type_losses(clip, nc.Rng(2), training=True)
        # softplus(-200) + 200 y per entry
        want = math.log1p(math.exp(-200.0)) + 200.0 * y.mean()
        assert losses["spat"].item() == pytest.approx(want, rel=1e-15)
        losses["spat"].backward()
        n, c = y.shape
        want_grad = (n / (1.0 + math.exp(200.0)) - y.sum(axis=0)) / (n * c)
        np.testing.assert_allclose(head.lin.b.grad, want_grad, rtol=1e-12)
        assert np.all(head.lin.b.grad[y.any(axis=0)] < 0.0)

    def test_bayesian_multi_label(self):
        model, clip = self._model("bayesian")
        head = model.heads["spat"]
        head.mu.w.data[:] = 0.0
        head.mu.b.data[:] = -200.0
        head.logvar.w.data[:] = 0.0
        head.logvar.b.data[:] = 0.0             # unit variance
        y = np.array([r.spat for r in clip], dtype=np.float64)
        n, c = y.shape
        losses, _ = model._type_losses(clip, nc.Rng(2), training=True)
        # the spatial head's draws: -200 + eps, eps from its stream
        eps = nc.Rng(2).spawn(1).normals((model.cfg.s_train, n, c))
        # every draw's probability is e^(-200 + eps), so the mean
        # probability's log-odds are -200 + log mean exp(eps), to far below
        # double precision, and a 1-bit costs minus that
        logit = -200.0 + np.log(np.exp(eps).mean(axis=0))
        want = float((-logit * y).mean())
        assert losses["spat"].item() == pytest.approx(want, rel=1e-12)
        losses["spat"].backward()
        # each draw moves with mu one for one
        np.testing.assert_allclose(head.mu.b.grad, -y.sum(axis=0) / (n * c), rtol=1e-12)
        assert np.any(head.mu.b.grad != 0.0)


class TestConfig:
    def test_round_trips_through_json(self):
        cfg = _small_cfg(flags=M.AblationFlags(decouple=False, head="bayesian"),
                         multilabel_loss="margin", tau=0.0)
        back = M.ModelConfig.from_json(json.loads(json.dumps(asdict(cfg))))
        assert back == cfg

    @pytest.mark.parametrize("key, value", [
        ("d", "8"), ("d", 8.0), ("sigma_min", True), ("window_mode", 1),
        ("flags.decouple", 1), ("flags.head", None)])
    def test_from_json_names_a_field_of_the_wrong_type(self, key, value):
        doc = asdict(_small_cfg())
        section, name = (doc["flags"], key[6:]) if key.startswith("flags.") else (doc, key)
        section[name] = value
        with pytest.raises(ContractError, match=f"model config field '{key}' must be"):
            M.ModelConfig.from_json(doc)

    def test_from_json_takes_an_integer_for_a_float_field(self):
        doc = asdict(_small_cfg())
        doc["tau"] = 0
        assert M.ModelConfig.from_json(doc) == _small_cfg(tau=0.0)

    def test_collects_all_problems(self):
        cfg = _small_cfg(d=9, window_s=5, window_w=3, sigma_min=0.0,
                         lam=float("inf"), flags=M.AblationFlags(head="resnet"))
        problems = "; ".join(cfg.problems())
        for needle in ("even", "divisible", "window_s", "sigma_min",
                       "lam must be finite", "head"):
            assert needle in problems
        with pytest.raises(ContractError):
            cfg.validate()

    # the layers below the config take these values as given, so the config
    # is the one place that rejects them
    @pytest.mark.parametrize("name, value, needle", [
        ("window_w", 0, "window_w must be >= 1"),
        ("window_s", 0, "window_s must be >= 1"),
        ("window_mode", "gaussian", "unknown window_mode 'gaussian'"),
        ("k", 0, "k must be >= 1"),
        ("s_train", 0, "s_train must be >= 1"),
        ("s_eval", 0, "s_eval must be >= 1"),
    ], ids=["window_w", "window_s", "window_mode", "k", "s_train", "s_eval"])
    def test_states_each_layer_rule(self, name, value, needle):
        cfg = _small_cfg(**{name: value})
        assert needle in cfg.problems()
        with pytest.raises(ContractError, match=needle):
            M.FremureModel(cfg, nc.Rng(0))

    def test_head_kwargs_follow_head_kind(self):
        assert _small_cfg().head_kwargs()["k"] == 3
        bayes = _small_cfg(flags=M.AblationFlags(head="bayesian"))
        assert set(bayes.head_kwargs()) == {"s_train", "s_eval"}
        linear = _small_cfg(flags=M.AblationFlags(head="linear"))
        assert linear.head_kwargs() == {}


class TestStructure:
    def test_decoupled_parameters_partition_by_task(self):
        # one trunk whose every tensor has a task axis, slice t task t's (the
        # local stack holds the three heads, then the three tails), and one
        # head per task
        model = M.FremureModel(_small_cfg(), nc.Rng(0))
        params = model.parameters()
        trunk = [k for k in params if k.startswith("trunk.")]
        heads = {t: [k for k in params if k.startswith(f"heads.{t}.")] for t in M.TYPES}
        assert sorted(trunk + sum(heads.values(), [])) == sorted(params)
        assert all(heads.values())
        assert params["trunk.proj.w"].shape == (3, 6, 8)  # per-task input projection
        for key in trunk:
            assert params[key].shape[0] == (6 if ".local." in key else 3), key
        # gate weights padded to the widest class count (4)
        assert params["trunk.dpeg.fusion.w"].shape == (3, 2 * 8 + 4, 8)
        assert params["trunk.dpeg.freq_gate.w"].shape == (3, 4, 8)
        owned = np.zeros(6, dtype=int)
        for i in range(3):
            owned[_owned(params["trunk.dpeg.local.q.w"], 3, i)] += 1
        assert owned.tolist() == [1] * 6

    def test_shared_mode_has_single_trunk(self):
        cfg = _small_cfg(flags=M.AblationFlags(decouple=False))
        model = M.FremureModel(cfg, nc.Rng(0))
        trunk = {k: p for k, p in model.parameters().items() if k.startswith("trunk.")}
        assert trunk and all(p.shape[0] == (2 if ".local." in k else 1)
                             for k, p in trunk.items())
        assert model.trunk.dpeg.class_counts == (2 + 4 + 4,)

    def test_trunk_slices_start_as_each_trunk_alone_draws(self):
        # slice t is what a one-task trunk of task t's class count draws from
        # the same Rng key, zero-padded; a shared trunk is the one-task case
        for decouple in (True, False):
            cfg = _small_cfg(flags=M.AblationFlags(decouple=decouple))
            model = M.FremureModel(cfg, nc.Rng(5))
            counts = model.trunk.dpeg.class_counts
            big = model.trunk.parameters()
            for i, n in enumerate(counts):
                alone = M._Trunk(cfg, [n], [nc.Rng(5).spawn(i)]).parameters()
                for key, p in alone.items():
                    got = big[key].data[_owned(big[key], len(counts), i)]
                    region = (slice(None),) + tuple(map(slice, p.shape[1:]))
                    assert np.array_equal(got[region], p.data), key
                    got[region] = 0.0
                    assert not got.any(), key

    def test_gate_padding_stays_exactly_zero(self):
        # attention has 2 classes, the widest task 4: rows 2 and 3 of its
        # fusion- and frequency-gate weights meet only zero inputs, so their
        # gradient is exactly zero on every step and Adam leaves them at zero
        model = M.FremureModel(_small_cfg(), nc.Rng(2))
        params = model.parameters()
        rows = {"trunk.dpeg.fusion.w": slice(2 * 8 + 2, None),
                "trunk.dpeg.freq_gate.w": slice(2, None)}
        t = M.TrainConfig(lr=1e-2)
        opt = nc.Adam(params, t.lr, t.beta1, t.beta2, t.eps)
        before = {key: params[key].data.copy() for key in rows}
        for step in range(20):
            opt.zero_grad()
            total, _ = model.total_loss(_clip(nc.Rng(60 + step % 4), clip_id=step % 4),
                                        nc.Rng(200 + step), training=True)
            total.backward()
            for key, pad in rows.items():
                assert np.all(params[key].grad[0, pad] == 0.0), (step, key)
                assert params[key].grad[0, :pad.start].any(), (step, key)
            opt.step()
        for key, pad in rows.items():
            assert np.all(params[key].data[0, pad] == 0.0), key
            assert not np.array_equal(params[key].data, before[key]), key

    def test_ablation_flags_shrink_parameter_tree(self):
        full = M.FremureModel(_small_cfg(), nc.Rng(0)).parameters()
        cfg = _small_cfg(flags=M.AblationFlags(dual_branch=False))
        single = M.FremureModel(cfg, nc.Rng(0)).parameters()
        assert not [p for p in single if "fusion" in p]
        assert single["trunk.dpeg.local.q.w"].shape[0] == 3     # heads only
        assert full["trunk.dpeg.local.q.w"].shape[0] == 6       # heads and tails
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
            assert out["logits"][t].shape == out["probs"][t].shape
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
            if key.startswith("heads.attn."):
                p.data += 0.1
            elif key.startswith("trunk."):
                p.data[_owned(p, 3, 0)] += 0.1
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
        model.parameters()["trunk.proj.w"].data += 0.1
        after = model.forward(clip, nc.Rng(5))
        for t in M.TYPES:
            assert not np.array_equal(before["probs"][t].data,
                                      after["probs"][t].data)


class TestBatchedTrunks:
    """The trunk runs every task as one batched pass; each slice must equal
    a one-task trunk holding that slice's unpadded weights, run alone. The
    batched pass only reassociates float64 sums of at most 2d terms, hence
    1e-12 relative. Padding rows get exactly zero gradient."""

    RAGGED = [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (3, 1), (5, 2), (2, 2)]

    @staticmethod
    def _rel(got, want):
        return np.abs(got - want).max() / max(np.abs(want).max(), 1e-300)

    @staticmethod
    def _alone(model, i):
        """A one-task trunk holding task slice i of ``model``'s trunk, its
        padding dropped, and where each of its tensors sits in the stack."""
        counts = model.trunk.dpeg.class_counts
        alone = M._Trunk(model.cfg, [counts[i]], [nc.Rng(99)])
        big = model.trunk.parameters()
        where = {}
        for key, p in alone.parameters().items():
            where[key] = _owned(big[key], len(counts), i) + \
                tuple(map(slice, p.shape[1:]))
            p.data[...] = big[key].data[where[key]]
        return alone, where

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
        tasks = len(model.trunk.dpeg.class_counts)
        priors = ([model.priors[t] for t in M.TYPES] if model.cfg.flags.decouple
                  else [model.global_prior])
        readouts = [nc.Tensor(rng.normals((len(rows), 8))) for _ in range(tasks)]

        model.zero_grad()
        layout = dpeg.clip_layout(frames, pair_ids, np.zeros_like(frames),
                                  np.zeros_like(frames))
        batched = model._embed(feats, layout)
        together = [batched[t] for t in M.TYPES][:tasks]
        sum(((z * r).sum() for z, r in zip(together, readouts)), nc.Tensor(0.0)).backward()
        grads = {k[len("trunk."):]: p.grad for k, p in model.parameters().items()
                 if p.grad is not None}
        assert set(grads) == set(model.trunk.parameters())

        covered = {key: np.zeros(g.shape, dtype=bool) for key, g in grads.items()}
        for i, (prior, z, r) in enumerate(zip(priors, together, readouts)):
            alone, where = self._alone(model, i)
            x = nc.affine(nc.Tensor(feats[None]), alone.proj.w, alone.proj.b)
            got = nc.reshape(dpeg.encode_stacked(alone.dpeg, x, layout, [prior]), z.shape)
            assert self._rel(z.data, got.data) <= 1e-12
            (got * r).sum().backward()
            for key, p in alone.parameters().items():
                assert self._rel(grads[key][where[key]], p.grad) <= 1e-12, (i, key)
                covered[key][where[key]] = True
        for key, g in grads.items():
            assert not g[~covered[key]].any(), key      # padding rows


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
        trunk = model.trunk.parameters().values()
        assert report.shared_params == sum(p.data.size for p in trunk)
        assert report.applicable is True

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

        assert finite_diff_model(model, loss) < 1e-4


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

    def test_validation_records_are_checked_before_the_first_step(self, monkeypatch):
        train, test, _ = self._records()
        test[1].spat = test[1].spat + [0]

        def step(*args, **kwargs):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(M.FremureModel, "total_loss", step)
        r = test[1]
        with pytest.raises(ContractError, match=rf"record \(clip {r.clip}, frame "
                           rf"{r.frame}, subj {r.subj}, obj {r.obj}\): spat has 5 values"):
            M.train(train, _small_cfg(), M.TrainConfig(epochs=1), 7, val_records=test)

    @pytest.mark.parametrize("field, value", [
        ("lr", float("nan")), ("beta1", 1.0), ("beta2", -0.1), ("eps", 0.0),
        ("epochs", -2), ("ks", ())], ids=["lr", "beta1", "beta2", "eps", "epochs", "ks"])
    def test_train_config_is_checked_before_anything_is_built(self, monkeypatch,
                                                               field, value):
        train, _, _ = self._records()

        def build(*args, **kwargs):
            raise AssertionError("train built a split or a model")

        monkeypatch.setattr(M, "clip_split", build)
        monkeypatch.setattr(M, "FremureModel", build)
        with pytest.raises(ContractError, match=rf"^{field} must"):
            M.train(train, _small_cfg(), M.TrainConfig(**{field: value}), 7)

    def test_validation_split_is_built_once(self, monkeypatch):
        train, test, _ = self._records()
        built = []
        of = Split.of.__func__

        def counting(cls, records, raw_dim, counts):
            if not isinstance(records, Split):      # a ready Split is only checked
                built.append(len(records))
            return of(cls, records, raw_dim, counts)

        monkeypatch.setattr(Split, "of", classmethod(counting))
        _, hist = M.train(train, _small_cfg(), M.TrainConfig(epochs=3, ks=(5,)), 7,
                          val_records=test)
        assert len(hist) == 3 and "mR@5" in hist[2]
        assert built == [len(train), len(test)]


# sha256 of every parameter's bytes, in `parameters()` order (the stacked
# trunk's layout), after 20 Adam steps at a one-window config, taken with the
# tape that visited constants and stored a gradient on every node (numpy 2.4,
# x86-64; another BLAS may round differently)
TWENTY_STEPS = {
    "gmm_plus": "191d870e4ffb8b2d7a3ec86a323ab1fb8c073cdcd67e2c0f1149b641ee36eacd",
    "bayesian": "5d2ab6fba435e3cb0583f8f137c46ee7f924901044a29a507fc77d89270fb5ef",
}


class TestLeanTape:
    @staticmethod
    def _twenty_steps(head, backward):
        cfg = _small_cfg(window_w=4, window_s=2, flags=M.AblationFlags(head=head))
        model = M.FremureModel(cfg, nc.Rng(3))     # 3 frames: one window per track
        t = M.TrainConfig(lr=1e-2)
        opt = nc.Adam(model.parameters(), t.lr, t.beta1, t.beta2, t.eps)
        clips = [_clip(nc.Rng(10 + i), clip_id=i) for i in range(4)]
        for step in range(20):
            opt.zero_grad()
            total, _ = model.total_loss(clips[step % 4], nc.Rng(100 + step), training=True)
            backward(total)
            opt.step()
        return model

    @pytest.mark.parametrize("head", sorted(TWENTY_STEPS))
    def test_twenty_adam_steps_keep_their_bits(self, head):
        lean = self._twenty_steps(head, nc.Tensor.backward)
        full = self._twenty_steps(head, backward_visiting_everything)
        for (key, p), q in zip(lean.parameters().items(), full.parameters().values()):
            assert np.array_equal(p.data, q.data), key
        digest = hashlib.sha256(b"".join(p.data.tobytes()
                                         for p in lean.parameters().values()))
        assert digest.hexdigest() == TWENTY_STEPS[head]

    def test_only_parameters_keep_gradients(self):
        model = M.FremureModel(_small_cfg(), nc.Rng(0))
        total, _ = model.total_loss(_clip(nc.Rng(1)), nc.Rng(2), training=True)
        total.backward()
        params = {id(p) for p in model.parameters().values()}
        stack, seen = [total], set()
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            assert (node.grad is not None) == (id(node) in params)
            stack.extend(node._parents)


class TestPackedScoring:
    """``predict_clips`` scores packs of clips in one forward each; every
    score and uncertainty value must equal that of the clip's own forward."""

    @staticmethod
    def _ragged_clips():
        clips = [_clip(nc.Rng(20), n_frames=3, n_pairs=2, clip_id=0),
                 _clip(nc.Rng(21), n_frames=2, n_pairs=3, clip_id=1),
                 _clip(nc.Rng(22), n_frames=4, n_pairs=2, clip_id=2)]
        # clip 3 is ragged inside: pair 2 misses frame 0, frames start at 5
        ragged = [r for r in _clip(nc.Rng(23), n_frames=3, n_pairs=3, clip_id=3)
                  if (r.frame, r.subj) != (0, 2)]
        clips.append([TripletRecord(r.clip, r.frame + 5, r.subj, r.obj, r.feat,
                                    r.attn, r.spat, r.cont) for r in ragged])
        clips.append(_clip(nc.Rng(24), n_frames=3, n_pairs=2, clip_id=4))
        return clips

    @staticmethod
    def _alone(model, clips, seed):
        rng = nc.Rng(seed)
        scores, uncertainty = [], {}
        with nc.no_grad():
            for ci, clip in enumerate(clips):
                out = model.forward(clip, rng.spawn(ci), training=False)
                scores.append(np.concatenate([out["probs"][t].data for t in M.TYPES],
                                             axis=1))
                for t in M.TYPES:
                    report = out["reports"][t]
                    uncertainty.setdefault(f"{t}_aleatoric", []).extend(
                        report.aleatoric_rows.tolist())
                    uncertainty.setdefault(f"{t}_epistemic", []).extend(
                        report.epistemic_rows.tolist())
        return np.concatenate(scores).ravel(), uncertainty

    @pytest.mark.parametrize("head", M.HEAD_KINDS)
    @pytest.mark.parametrize("cap", [1, 16, M.PACK_RECORDS])
    def test_packs_score_as_each_clip_alone(self, head, cap, monkeypatch):
        # clips of 6, 6, 8, 8 and 6 records: cap 16 packs (0, 1), (2, 3)
        # and (4); cap 1 scores every clip alone; the default packs all five
        model = M.FremureModel(_small_cfg(flags=M.AblationFlags(head=head)), nc.Rng(8))
        clips = self._ragged_clips()
        monkeypatch.setattr(M, "PACK_RECORDS", cap)
        packs = M._packs([len(clip) for clip in clips], cap)
        assert [ci for lo, hi in packs for ci in range(lo, hi)] == list(range(len(clips)))
        if cap == 16:
            assert packs == [(0, 2), (2, 4), (4, 5)]
        pred = M.predict_clips(model, _split(model, clips), nc.Rng(9))
        scores, uncertainty = self._alone(model, clips, 9)
        assert np.array_equal(pred.scores, scores)
        assert pred.uncertainty == uncertainty

    def test_one_row_blocks_round_alike(self):
        # a clip whose frames hold one pair each multiplies one-row matrices
        # alone; in a pack those rows join a larger block, which BLAS may
        # round differently in the last bit, and no further
        model = M.FremureModel(_small_cfg(flags=M.AblationFlags(head="bayesian")),
                               nc.Rng(8))
        clips = [_clip(nc.Rng(30), n_frames=4, n_pairs=1, clip_id=0),
                 _clip(nc.Rng(31), n_frames=1, n_pairs=1, clip_id=1),
                 _clip(nc.Rng(32), n_frames=3, n_pairs=2, clip_id=2)]
        pred = M.predict_clips(model, _split(model, clips), nc.Rng(9))
        scores, uncertainty = self._alone(model, clips, 9)
        np.testing.assert_allclose(pred.scores, scores, rtol=1e-14, atol=0)
        for name, rows in uncertainty.items():
            np.testing.assert_allclose(pred.uncertainty[name], rows, rtol=1e-13, atol=1e-300)

    def test_pack_needs_one_rng_per_clip(self):
        model = M.FremureModel(_small_cfg(), nc.Rng(0))
        pack = _clip(nc.Rng(1), clip_id=0) + _clip(nc.Rng(2), clip_id=1)
        with pytest.raises(ContractError):
            model.forward(pack, [nc.Rng(3)])
        with pytest.raises(ContractError):
            model.forward(pack, nc.Rng(3))
        with pytest.raises(ContractError):
            model.forward(pack, [nc.Rng(3), nc.Rng(4)], training=True)
        assert model.forward(pack, [nc.Rng(3), nc.Rng(4)])["probs"]["attn"].shape == (12, 2)


class TestSplitForward:
    """``forward`` reads a `Split` view of whole clips; a list of records goes
    through ``Split.of`` in its own order."""

    @staticmethod
    def _same(a, b):
        for t in M.TYPES:
            assert a["logits"][t].data.tobytes() == b["logits"][t].data.tobytes(), t
            assert a["probs"][t].data.tobytes() == b["probs"][t].data.tobytes(), t
            for rows in ("aleatoric_rows", "epistemic_rows"):
                assert getattr(a["reports"][t], rows).tobytes() == \
                    getattr(b["reports"][t], rows).tobytes(), (t, rows)

    @pytest.mark.parametrize("head", ["gmm_plus", "bayesian"])
    def test_a_record_list_and_its_split_view_give_the_same_bits(self, head):
        model = M.FremureModel(_small_cfg(flags=M.AblationFlags(head=head)), nc.Rng(8))
        clips = TestPackedScoring._ragged_clips()
        split = _split(model, clips)
        # one clip, then a pack of clips 2 to 4, clip 3 ragged inside
        for lo, hi in ((0, 1), (2, 5)):
            records = [rec for clip in clips[lo:hi] for rec in clip]

            def rng():
                if hi - lo == 1:
                    return nc.Rng(40)
                return [nc.Rng(40 + ci) for ci in range(lo, hi)]

            with nc.no_grad():
                self._same(model.forward(records, rng()),
                           model.forward(split.view(lo, hi), rng()))
        # and a training forward, through the losses
        _, parts = model.total_loss(clips[3], nc.Rng(41), training=True)
        assert model.total_loss(split.view(3, 4), nc.Rng(41), training=True)[1] == parts

    def test_a_record_list_keeps_its_row_order(self):
        model = M.FremureModel(_small_cfg(), nc.Rng(8))
        clip = _clip(nc.Rng(1))                 # in group_clips order
        order = [5, 2, 0, 4, 1, 3]
        shuffled = [clip[i] for i in order]
        split = Split.of(shuffled, 6, model.cfg.class_counts())
        assert split.frame.tolist() == [rec.frame for rec in shuffled]
        assert split.subj.tolist() == [rec.subj for rec in shuffled]
        with nc.no_grad():
            want = model.forward(clip)
            got = model.forward(shuffled)
        # the rows keep the list's order; inside a frame's attention block
        # they sum in that order too, which may round the last bit apart
        for t in M.TYPES:
            np.testing.assert_allclose(got["probs"][t].data, want["probs"][t].data[order],
                                       rtol=1e-12, atol=0)


class TestSplitOfAnotherModel:
    """A ready Split meets the model through ``Split.of`` as records do: one
    built for another model's feature width, label widths or attention
    classes is a ContractError naming the column, in ``forward``, ``train``
    and ``evaluate`` alike."""

    @pytest.mark.parametrize("column, other", [
        ("feat", dict(raw_dim=7)), ("spat", dict(spat_classes=5)),
        ("cont", dict(cont_classes=3)), ("attn", dict(attn_classes=3))],
        ids=["feat", "spat", "cont", "attn"])
    def test_is_rejected_naming_the_column(self, column, other):
        cfg, foreign = _small_cfg(), _small_cfg(**other)
        # attention labels (f + p) % 3 reach 2, outside the model's [0, 2)
        records = _clip(nc.Rng(1), raw=foreign.raw_dim, ca=foreign.attn_classes,
                        cs=foreign.spat_classes, cc=foreign.cont_classes)
        split = M.clip_split(records, foreign)
        model = M.FremureModel(cfg, nc.Rng(0))
        named = f"split column '{column}'"
        with pytest.raises(ContractError, match=named):
            model.forward(split, nc.Rng(2))
        with pytest.raises(ContractError, match=named):
            M.train(split, cfg, M.TrainConfig(epochs=1), 7)
        with pytest.raises(ContractError, match=named):
            M.evaluate(model, split, (5,), True, seed=0)


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
        pred = M.predict_clips(model, M.clip_split(test, model.cfg), nc.Rng(0))
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
        r1 = M.evaluate(model, test, (5, 10), True, seed=3)
        r2 = M.evaluate(model, test, (5, 10), True, seed=3)
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
        assert M.evaluate(back, test, (5,), True, seed=0) == \
            M.evaluate(model, test, (5,), True, seed=0)

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


_F64_EDGES = np.array([-0.0, 5e-324, -2.2250738585072014e-308 / 3,
                       np.finfo(np.float64).max, -np.finfo(np.float64).max])


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                                max_side=5),
                  elements=st.floats(allow_nan=False, allow_infinity=False)),
       st.sampled_from([np.nan, np.inf, -np.inf]), st.integers(0, 10**6))
@example(_F64_EDGES, np.nan, 0).via("-0.0, subnormals and +-max")
def test_checkpoint_tensor_codec_is_bit_exact_and_refuses_non_finite(arr, bad, at):
    # through JSON text, as a checkpoint file carries it
    entry = json.loads(json.dumps(M._tensor_entry(arr, "parameters.w")))
    back = M._tensor(entry, arr.shape, "parameters.w")
    assert back.dtype == np.float64 and back.shape == arr.shape
    assert back.tobytes() == arr.tobytes() and back.flags.writeable
    if arr.size == 0:
        return
    broken = arr.copy()
    broken.flat[at % arr.size] = bad
    with pytest.raises(NumericalError, match="checkpoint 'parameters.w' not written"):
        M._tensor_entry(broken, "parameters.w")
    # the bytes of a non-finite value, written by hand, are refused at read
    entry["f64le"] = base64.b64encode(broken.astype("<f8").tobytes()).decode()
    with pytest.raises(ContractError, match="'parameters.w' must hold only finite"):
        M._tensor(entry, arr.shape, "parameters.w")


class TestFlatAdam:
    def test_flat_adam_is_bitwise_the_per_tensor_update(self):
        params = M.FremureModel(M.ModelConfig(), nc.Rng(5)).parameters()
        stops = np.cumsum([p.data.size for p in params.values()])
        starts = stops - [p.data.size for p in params.values()]
        # the default model's arena spans many chunks, and some tensor
        # straddles a chunk boundary
        assert np.any(starts // nc.ADAM_CHUNK != (stops - 1) // nc.ADAM_CHUNK)
        lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
        ref = {k: p.data.copy() for k, p in params.items()}
        m = {k: np.zeros_like(x) for k, x in ref.items()}
        v = {k: np.zeros_like(x) for k, x in ref.items()}
        opt = nc.Adam(params, lr, b1, b2, eps)
        rng = nc.Rng(47)
        for t in range(1, 7):
            # gradients written into the arena views; every fifth tensor's is
            # left at zero, as for a parameter the backward pass never reaches
            opt.zero_grad()
            for i, p in enumerate(params.values()):
                if (i + t) % 5:
                    p.grad += rng.normals(p.data.shape) * 10.0 ** (i % 4 - 2)
            opt.step()
            # the per-tensor update, formula for formula
            bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            for key, p in params.items():
                g = p.grad
                m[key] *= b1
                m[key] += (1.0 - b1) * g
                v[key] *= b2
                v[key] += (1.0 - b2) * (g * g)
                ref[key] -= lr * (m[key] / bc1) / (np.sqrt(v[key] / bc2) + eps)
            for key, p in params.items():
                assert np.array_equal(p.data, ref[key]), key
        # the moments live in the arena, in parameter order
        assert np.array_equal(opt.m, np.concatenate([x.ravel() for x in m.values()]))
        assert np.array_equal(opt.v, np.concatenate([x.ravel() for x in v.values()]))
