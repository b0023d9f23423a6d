"""Release gate: nine end-to-end checks, one test per criterion, run in
order. Each prints a single [criterion N] PASS/FAIL line (visible under
``pytest -s``) before asserting, so a red run still shows every verdict.

The slow entries are criterion 1 (full-parameter central differences over a
deliberately tiny but fully heterogeneous model, budget 2 minutes; median
91 s over three solo runs on a 2-CPU machine, Python 3.11) and criterion 6
(a 5-variant x 5-seed ablation sweep on the default synthetic dataset,
budget 30 minutes; median 149 s on the same machine)."""

import json
import math
import time
from dataclasses import replace

import numpy as np

from draws import integers
from fremure import dpeg
from fremure import heads as fh
from fremure import model as fm
from fremure import numcore as nc
from fremure.cli import VARIANTS, main
from fremure.data_metrics import (SyntheticConfig, TripletRecord,
                                  generate_dataset, mean_recall_at_k,
                                  recall_at_k)
from gradcheck import finite_diff_model


def _verdict(num: int, ok: bool, detail: str):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}  {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def _clip(rng, n_frames=3, n_pairs=2, raw=6, ca=2, cs=4, cc=4, clip_id=0):
    recs = []
    for f in range(n_frames):
        for p in range(n_pairs):
            spat = [(f + p + c) % 2 for c in range(cs)]
            cont = [(f * p + c) % 2 for c in range(cc)]
            recs.append(TripletRecord(clip_id, f, p, n_pairs + p,
                                      rng.normals(raw), (f + p) % ca, spat, cont))
    return recs


# ---------------------------------------------------------------------------
# criterion 1: every analytic gradient agrees with central differences
# ---------------------------------------------------------------------------

def test_criterion_1_full_model_gradients_match_finite_differences():
    """One model carrying all three head kinds at once (linear attention
    head, sampling spatial head, mixture contact head), checked coordinate
    by coordinate on 20 random clips. Sampling is disabled by clamping the
    predicted log-variance far negative (the head then takes its closed-form
    path) and by tau=0, so the loss is a deterministic function and central
    differences are meaningful."""
    t0 = time.perf_counter()
    cfg = fm.ModelConfig(raw_dim=3, d=4, h=2, attn_classes=2, spat_classes=2,
                         cont_classes=2, window_w=2, window_s=1, ffn_mult=1,
                         k=2, tau=0.0, flags=fm.AblationFlags(head="linear"))
    model = fm.FremureModel(cfg, nc.Rng(0))
    model.heads["spat"] = fh.build_head("bayesian", cfg.d, 2, nc.Rng(5), "multi",
                                        s_train=2, s_eval=2)
    model.heads["spat"].logvar.b.data[:] = -1e9   # exp underflows to exactly 0
    model.heads["cont"] = fh.build_head("gmm_plus", cfg.d, 2, nc.Rng(6), "multi",
                                        **replace(cfg, flags=fm.AblationFlags()).head_kwargs())
    n_params = sum(p.data.size for p in model.parameters().values())

    # h sits in the step-size plateau: at 1e-5 roundoff on coordinates with
    # gradients near 1e-7 costs ~1e-4 relative, at 1e-4 relu kinks enter the
    # stencil; a scan confirmed the difference quotient converges to the
    # analytic value through this region
    worst = 0.0
    for i in range(20):
        clip = _clip(nc.Rng(100 + i), n_frames=2, n_pairs=2, raw=3,
                     ca=2, cs=2, cc=2, clip_id=i)
        err = finite_diff_model(
            model, lambda c=clip: model.total_loss(c, None, training=False)[0],
            h=3e-5)
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 120.0
    _verdict(1, ok, f"max rel grad err {worst:.3g} (tol 1e-4) over 20 clips x "
                    f"{n_params} params in {elapsed:.1f}s (budget 120s)")


# ---------------------------------------------------------------------------
# criterion 2: closed-form values
# ---------------------------------------------------------------------------

def test_criterion_2_closed_form_values():
    sig = nc.sigmoid(nc.Tensor(math.log(2.0))).item()
    ok_sig = abs(sig - 2.0 / 3.0) <= 1e-12

    # single-component unit-variance mixture evaluated at its own mean:
    # the class logit must be the standard normal log-density at zero
    head = fh.build_head("gmm_plus", 3, 1, nc.Rng(0), "single",
                         **fm.ModelConfig(k=1).head_kwargs())
    head.proj.w.data[:] = 0.0
    head.proj.b.data[:] = 0.0
    head.means.data[:] = 0.0
    head.rho.data[:] = np.log(np.expm1(1.0 - head.sigma_min))  # variance == 1
    pdf = float(np.exp(head.logits_and_variance(nc.Tensor(np.zeros(3)))[0].data[0]))
    ok_pdf = abs(pdf - 0.3989423) <= 1e-6

    # zeroed gate parameters put the fusion gate at exactly 1/2, and
    # 0.5*h + 0.5*t rounds identically to (h + t)/2, so this is bitwise
    rng = nc.Rng(3)
    gate = dpeg.FusionGate(5, 4, rng)
    gate.w.data[:] = 0.0
    gate.b.data[:] = 0.0
    h = nc.Tensor(rng.normals((6, 5)) * 100.0)
    t = nc.Tensor(rng.normals((6, 5)))
    fused = dpeg.gated_mix(h, t, np.full(4, 0.25), gate.w, gate.b).data
    ok_mid = np.array_equal(fused, (h.data + t.data) / 2.0)

    ok = ok_sig and ok_pdf and ok_mid
    _verdict(2, ok, f"sigmoid(log 2) off 2/3 by {abs(sig - 2/3):.2e} (tol 1e-12); "
                    f"mixture density at mean {pdf:.7f} (want 0.3989423 +-1e-6); "
                    f"zero-gate fusion bitwise equal to midpoint: {ok_mid}")


# ---------------------------------------------------------------------------
# criterion 3: task gradients stay inside their own branch
# ---------------------------------------------------------------------------

def test_criterion_3_attention_loss_never_touches_other_branches():
    """Every trunk tensor has a task axis of T=3: the attention task owns
    slice 0, and slice T too in the local stack of T head and T tail
    encoders. Its loss must leave every other slice's gradient, and every
    spatial and contact head gradient, exactly zero, and reach each trunk
    tensor's attention slices."""
    cfg = fm.ModelConfig(raw_dim=6, d=8, h=2, attn_classes=2, spat_classes=4,
                         cont_classes=4, window_w=2, window_s=1)
    model = fm.FremureModel(cfg, nc.Rng(1))
    tasks = len(fm.TYPES)
    trunk = [name for name in model.parameters() if name.startswith("trunk.")]
    leaks = []
    attn_reached = 0
    trunk_reached = set()
    for i in range(100):
        clip = _clip(nc.Rng(3000 + i), n_frames=1 + i % 3,
                     n_pairs=1 + (i * 7) % 3, clip_id=i)
        model.zero_grad()
        losses, _ = model._type_losses(clip, nc.Rng(7).spawn(i), training=True)
        losses["attn"].backward()
        for name, p in model.parameters().items():
            grad = np.zeros_like(p.data) if p.grad is None else p.grad
            if name in trunk:
                attn = np.zeros(p.shape[0], dtype=bool)
                attn[::tasks] = True        # slice 0, and slice T of a 2T stack
                if np.any(grad[~attn]):
                    leaks.append(f"batch {i}: {name} outside the attention slices")
                if np.any(grad[attn]):
                    trunk_reached.add(name)
                continue
            task = name.split(".")[1]       # heads.<task>.*
            if task in ("spat", "cont") and np.any(grad):
                leaks.append(f"batch {i}: {name}")
            elif task == "attn" and np.any(grad):
                attn_reached += 1
    model.zero_grad()
    ok = not leaks and attn_reached > 0 and trunk and trunk_reached == set(trunk)
    _verdict(3, ok, "100 random batches, attention-loss backward left every "
                    "spatial/contact head gradient and every trunk gradient "
                    "outside the attention slices identically zero; "
                    f"{len(trunk_reached)}/{len(trunk)} trunk tensors reached "
                    "inside them"
                    + (f"; LEAKED: {leaks[:3]}" if leaks else ""))


# ---------------------------------------------------------------------------
# criterion 4: a shared trunk can be shown fighting itself
# ---------------------------------------------------------------------------

def test_criterion_4_shared_trunk_conflict_witness():
    """Witness construction: a shared-trunk model whose contact head is a
    tiny copy of the spatial head and whose contact labels are the exact
    complement of the spatial labels. Both task residuals then pull the
    trunk in near-opposite directions, so at least one pairwise cosine of
    the per-task trunk gradients must be negative at the first step. A
    decoupled model has no shared parameters to fight over."""
    cfg = fm.ModelConfig(raw_dim=6, d=8, h=2, attn_classes=2, spat_classes=4,
                         cont_classes=4, window_w=2, window_s=1,
                         flags=fm.AblationFlags(decouple=False, head="linear"))
    model = fm.FremureModel(cfg, nc.Rng(3))
    model.heads["cont"].lin.w.data[:] = model.heads["spat"].lin.w.data * 1e-6
    model.heads["spat"].lin.b.data[:] = 0.0
    model.heads["cont"].lin.b.data[:] = 0.0

    rng = nc.Rng(4)
    recs = []
    for f in range(2):
        for p in range(2):
            spat = [(f + p + c) % 2 for c in range(4)]
            recs.append(TripletRecord(0, f, p, 2 + p, rng.normals(6),
                                      (f + p) % 2, spat, [1 - b for b in spat]))

    rep = fm.grad_conflict(model, recs)
    min_cos = min(rep.cosines.values())
    ok_shared = rep.applicable and rep.shared_params > 0 and min_cos < 0.0

    dec = fm.FremureModel(fm.ModelConfig(raw_dim=6, d=8, h=2, attn_classes=2,
                                         spat_classes=4, cont_classes=4,
                                         window_w=2, window_s=1,
                                         flags=fm.AblationFlags(head="linear")),
                          nc.Rng(3))
    rep_dec = fm.grad_conflict(dec, recs)
    ok_dec = (not rep_dec.applicable) and rep_dec.shared_params == 0

    ok = ok_shared and ok_dec
    _verdict(4, ok, f"shared trunk ({rep.shared_params} params): min pairwise "
                    f"cosine {min_cos:.6f} < 0 at step 1; decoupled model "
                    f"reports {rep_dec.shared_params} shared params")


# ---------------------------------------------------------------------------
# criterion 5: ranking metrics against a counting oracle
# ---------------------------------------------------------------------------

def _okey(e):
    # total order: score descending, then class, subject, object ascending
    return (-e[3], e[2], e[0], e[1])


def _oracle_topk(entries, k, constraint, types):
    def slot(e):
        return (e[0], e[1], 0 if types is None else int(types[e[2]]))
    if constraint:
        entries = [e for e in entries
                   if not any(slot(o) == slot(e) and _okey(o) < _okey(e)
                              for o in entries)]
    # rank by counting strictly-better entries instead of sorting
    return {(e[0], e[1], e[2]) for e in entries
            if sum(1 for o in entries if _okey(o) < _okey(e)) < k}


def _oracle_recall(preds, gt, k, constraint, types):
    fracs = []
    for key in sorted(gt):
        want = set(map(tuple, gt[key]))
        if not want:
            continue
        top = _oracle_topk(preds.get(key, []), k, constraint, types)
        fracs.append(len(want & top) / len(want))
    return float(np.mean(fracs))


def _oracle_mean_recall(preds, gt, k, constraint, types):
    hit, tot = {}, {}
    for key in sorted(gt):
        top = _oracle_topk(preds.get(key, []), k, constraint, types)
        for s, o, c in set(map(tuple, gt[key])):
            tot[c] = tot.get(c, 0) + 1
            hit[c] = hit.get(c, 0) + ((s, o, c) in top)
    per_class = {c: hit[c] / tot[c] for c in sorted(tot)}
    return float(np.mean(list(per_class.values()))), per_class


def test_criterion_5_recall_matches_brute_force_exactly():
    """200 randomized instances with deliberately quantized scores (eighths,
    so ties are common), frames missing from the predictions, empty
    ground-truth frames, and ground-truth triplets that were never
    predicted. Comparison is exact float equality; both sides reduce the
    same per-frame ratios, so any mismatch is a ranking or tie-break bug."""
    checked = 0
    for i in range(200):
        rng = nc.Rng(900 + i)
        n_cls = 3 + int(integers(rng, 10)[0])
        types = integers(rng, 3, n_cls)
        preds, gt = {}, {}
        for fidx in range(1 + int(integers(rng, 3)[0])):
            key = (i, fidx)
            trips = set()
            goal = 5 + int(integers(rng, 25)[0])
            while len(trips) < goal:
                trips.add((int(integers(rng, 4)[0]), int(integers(rng, 4)[0]),
                           int(integers(rng, n_cls)[0])))
            preds[key] = [(s, o, c, float(np.floor(rng.uniforms(1)[0] * 8) / 8))
                          for s, o, c in sorted(trips)]
            pool = sorted(trips)
            want = set()
            while len(want) < 1 + int(integers(rng, 5)[0]):
                if rng.uniforms(1)[0] < 0.5:
                    want.add(pool[int(integers(rng, len(pool))[0])])
                else:
                    want.add((int(integers(rng, 4)[0]), int(integers(rng, 4)[0]),
                              int(integers(rng, n_cls)[0])))
            gt[key] = sorted(want)
            if rng.uniforms(1)[0] < 0.10:
                del preds[key]      # frame with no predictions at all
        if rng.uniforms(1)[0] < 0.15:
            gt[(i, 99)] = []        # frame with nothing to find
        k = (1, 2, 3, 5, 10, 20)[int(integers(rng, 6)[0])]
        constraint = bool(i % 2)
        types_arg = None if rng.uniforms(1)[0] < 0.2 else types

        got_r = recall_at_k(preds, gt, k, constraint, types_arg)
        want_r = _oracle_recall(preds, gt, k, constraint, types_arg)
        assert got_r == want_r, f"instance {i}: R@{k} {got_r} != {want_r}"
        got_mr, got_pc = mean_recall_at_k(preds, gt, k, constraint, types_arg)
        want_mr, want_pc = _oracle_mean_recall(preds, gt, k, constraint, types_arg)
        assert got_mr == want_mr, f"instance {i}: mR@{k} {got_mr} != {want_mr}"
        assert got_pc == want_pc, f"instance {i}: per-class table differs"
        checked += 1
    _verdict(5, checked == 200,
             f"{checked}/200 randomized instances: R@K, mR@K and per-class "
             "tables all equal the counting oracle exactly")


# ---------------------------------------------------------------------------
# criterion 6: the ablation table keeps its ordering
# ---------------------------------------------------------------------------

def test_criterion_6_ablation_ordering_on_default_dataset():
    """Five variants x five seeds on the default synthetic dataset. The two
    full models must beat every single-ablation mean, removing decoupling
    must hurt the most, and the decoupling margin must clear one standard
    error (checked against the paired-difference SE and both per-arm SEs,
    whichever is largest)."""
    t0 = time.perf_counter()
    data_cfg = SyntheticConfig()
    train_recs, test_recs, _ = generate_dataset(data_cfg, 0)
    vals = {}
    for name, flag_kw in VARIANTS.items():
        scores = []
        for seed in range(5):
            mcfg = fm.ModelConfig(raw_dim=data_cfg.d, d=16, h=2,
                                  attn_classes=data_cfg.attn_classes,
                                  spat_classes=data_cfg.spat_classes,
                                  cont_classes=data_cfg.cont_classes,
                                  window_w=2, window_s=1, ffn_mult=2, k=3,
                                  flags=fm.AblationFlags(**flag_kw))
            tcfg = fm.TrainConfig(lr=3e-3, epochs=5, ks=(10,), constraint=True)
            model, _ = fm.train(train_recs, mcfg, tcfg, seed)
            rep = fm.evaluate(model, test_recs, ks=(10,), constraint=True, seed=seed)
            scores.append(rep["mean_recall"][10])
        vals[name] = np.asarray(scores)
    elapsed = time.perf_counter() - t0

    means = {name: float(v.mean()) for name, v in vals.items()}
    ablations = ("no-decouple", "no-frequency", "no-dual-branch")
    lines = [f"{n}: mean mR@10 {means[n]:.4f} (seeds {np.round(vals[n], 4)})"
             for n in VARIANTS]
    print("[criterion 6] " + "; ".join(lines), flush=True)

    ok_full = all(means[f] > means[a]
                  for f in ("full+bayes", "full+gmm") for a in ablations)
    ok_worst = all(means["no-decouple"] < means[a]
                   for a in ("no-frequency", "no-dual-branch"))
    ok_margin = True
    margin_notes = []
    for full in ("full+bayes", "full+gmm"):
        diff = vals[full] - vals["no-decouple"]
        margin = float(diff.mean())
        se = max(float(diff.std(ddof=1) / np.sqrt(diff.size)),
                 float(vals[full].std(ddof=1) / np.sqrt(5)),
                 float(vals["no-decouple"].std(ddof=1) / np.sqrt(5)))
        margin_notes.append(f"{full}-no-decouple {margin:.4f} vs SE {se:.4f}")
        ok_margin = ok_margin and margin > se

    ok = ok_full and ok_worst and ok_margin and elapsed < 1800.0
    _verdict(6, ok, f"full models beat ablations: {ok_full}; no-decouple is "
                    f"worst: {ok_worst}; {'; '.join(margin_notes)}; "
                    f"{elapsed:.0f}s (budget 1800s)")


# ---------------------------------------------------------------------------
# criterion 7: mixture variances never reach the floor
# ---------------------------------------------------------------------------

def test_criterion_7_variance_floor_holds_on_all_checkpoints(tmp_path):
    """Two training runs through the command line, one gentle and one
    deliberately hostile to variances (high learning rate, no width
    regularizer, noisy means). Every checkpoint written must decode to
    heads whose smallest component variance still sits at or above the
    configured floor."""
    base = {
        "data.attn_classes": 3, "data.spat_classes": 3, "data.cont_classes": 4,
        "data.d": 6, "data.clips": 8, "data.test_clips": 3,
        "data.frames": 2, "data.pairs": 2,
        "model.d": 8, "model.h": 2, "model.window_w": 2, "model.window_s": 1,
        "model.k": 2, "train.epochs": 2, "train.lr": 0.003, "seed": 5,
    }
    hostile = dict(base)
    hostile.update({"train.lr": 0.1, "train.epochs": 4,
                    "model.lam": 0.0, "model.tau": 0.05, "seed": 6})

    floors = []
    for idx, doc in enumerate((base, hostile)):
        cfg_path = tmp_path / f"exp{idx}.cfg"
        cfg_path.write_text("\n".join(f"{k} = {v}" for k, v in doc.items()) + "\n")
        out = tmp_path / f"run{idx}"
        assert main(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        model = fm.model_from_checkpoint(
            json.loads((out / "checkpoint.json").read_text()))
        for task, head in model.heads.items():
            if hasattr(head, "variances"):
                floors.append((idx, task, float(head.variances().data.min()),
                               model.cfg.sigma_min))
    ok = bool(floors) and all(mv >= floor for _, _, mv, floor in floors)
    worst = min(floors, key=lambda r: r[2] - r[3])
    _verdict(7, ok, f"{len(floors)} mixture heads across {2} checkpoints; "
                    f"smallest variance {worst[2]:.6f} vs floor {worst[3]:g} "
                    f"(run {worst[0]}, task {worst[1]})")


# ---------------------------------------------------------------------------
# criterion 8: sampling noise shrinks like 1/S
# ---------------------------------------------------------------------------

def test_criterion_8_sampling_head_variance_decays_inversely_with_draws():
    """The sampling head's output is a mean over S draws, so its estimator
    variance scales as 1/S: slope -1 in log-log, while the standard
    deviation itself falls with slope -1/2 (halving per fourfold S). Both
    slopes are printed; the variance slope carries the assertion."""
    cfg = fm.ModelConfig(flags=fm.AblationFlags(head="bayesian"))
    head = fh.build_head("bayesian", 6, 4, nc.Rng(21), "multi", **cfg.head_kwargs())
    z = nc.Tensor(nc.Rng(22).normals((3, 6)))
    draws = (10, 100, 1000)
    stds = []
    for s in draws:
        head.s_eval = s
        reps = np.stack([head.predict(z, nc.Rng(500 + r), training=False)[1].data
                         for r in range(50)])
        stds.append(float(reps.std(axis=0, ddof=1).mean()))
    logs = np.log(np.asarray(draws, dtype=np.float64))
    std_slope = float(np.polyfit(logs, np.log(stds), 1)[0])
    var_slope = 2.0 * std_slope
    ok = abs(var_slope - (-1.0)) <= 0.2
    _verdict(8, ok, f"50 repeated evals at S={draws}: variance slope "
                    f"{var_slope:.3f} (want -1 +-0.2); std slope "
                    f"{std_slope:.3f} (the expected -1/2)")


# ---------------------------------------------------------------------------
# criterion 9: training is byte-reproducible
# ---------------------------------------------------------------------------

def test_criterion_9_identical_runs_write_identical_metrics(tmp_path):
    doc = {
        "data.attn_classes": 3, "data.spat_classes": 3, "data.cont_classes": 4,
        "data.d": 6, "data.clips": 8, "data.test_clips": 3,
        "data.frames": 2, "data.pairs": 2,
        "model.d": 8, "model.h": 2, "model.window_w": 2, "model.window_s": 1,
        "model.k": 2, "train.epochs": 2, "train.lr": 0.003, "seed": 17,
    }
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("\n".join(f"{k} = {v}" for k, v in doc.items()) + "\n")
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        blobs.append({f: (out / f).read_bytes()
                      for f in ("metrics.csv", "checkpoint.json")})
    ok_metrics = blobs[0]["metrics.csv"] == blobs[1]["metrics.csv"]
    ok_ckpt = blobs[0]["checkpoint.json"] == blobs[1]["checkpoint.json"]
    ok = ok_metrics and ok_ckpt
    _verdict(9, ok, f"two identical train runs: metrics.csv byte-identical "
                    f"({len(blobs[0]['metrics.csv'])} bytes), checkpoint "
                    f"byte-identical: {ok_ckpt}")
