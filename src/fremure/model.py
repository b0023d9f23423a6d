"""Three-task relation model, its losses, and the training loop.

A clip is a list of pair records sharing one clip id. Each record carries a
raw feature vector plus one attention label and multi-hot spatial and contact
labels. The model projects features, refines them with the dual-branch
pair-encoding stack, and classifies each task with its own head.

Decoupled mode (the default) gives every task a disjoint stack: its own input
projection, encoder, and head, so no parameter is touched by more than one
task loss. Shared mode routes all tasks through a single trunk whose
frequency machinery sees the concatenated label space; only the heads stay
separate. ``grad_conflict`` quantifies why decoupling exists by measuring
pairwise cosines between per-task gradients on the shared trunk.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from . import numcore as nc
from .data_metrics import group_clips, rank_recalls
# the benchmark's tracer (bench/tracing.py) wraps these names in this module
from .data_metrics import mean_recall_at_k, recall_at_k  # noqa: F401
from .dpeg import Dpeg, WindowConfig, clip_layout, encode_stacked, stack_tasks
from .errors import ContractError, NumericalError
from .freqgate import FrequencyPrior, compute_frequencies
from .heads import PROB_FLOOR, build_head
from .numcore import Tensor

TYPES = ("attn", "spat", "cont")
TYPE_MODES = {"attn": "single", "spat": "multi", "cont": "multi"}
HEAD_KINDS = ("linear", "bayesian", "gmm_plus")
MULTILABEL_LOSSES = ("bce", "margin")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class AblationFlags:
    decouple: bool = True
    frequency: bool = True
    dual_branch: bool = True
    head: str = "gmm_plus"


@dataclass
class ModelConfig:
    raw_dim: int = 16
    d: int = 64
    h: int = 4
    attn_classes: int = 3
    spat_classes: int = 6
    cont_classes: int = 16
    window_w: int = 4
    window_s: int = 2
    window_mode: str = "average"
    ffn_mult: int = 2
    k: int = 3                   # mixture components per class
    sigma_min: float = 1e-3
    sigma_target: float = 0.1
    tau: float = 0.01
    lam: float = 0.1
    s_train: int = 5             # sampling-head draws
    s_eval: int = 20
    multilabel_loss: str = "bce"
    flags: AblationFlags = field(default_factory=AblationFlags)

    def problems(self) -> list:
        out = []
        for name in ("raw_dim", "d", "h", "attn_classes", "spat_classes",
                     "cont_classes", "window_w", "window_s", "ffn_mult", "k",
                     "s_train", "s_eval"):
            if getattr(self, name) < 1:
                out.append(f"{name} must be >= 1")
        if self.d % self.h != 0:
            out.append(f"d={self.d} not divisible by h={self.h}")
        if self.window_s > self.window_w:
            out.append("window_s must not exceed window_w")
        if self.window_mode not in ("average", "triangular"):
            out.append(f"unknown window_mode '{self.window_mode}'")
        if self.sigma_min <= 0:
            out.append("sigma_min must be positive")
        if self.tau < 0 or self.lam < 0:
            out.append("tau and lam must be nonnegative")
        if self.flags.head not in HEAD_KINDS:
            out.append(f"head must be one of {HEAD_KINDS}")
        if self.multilabel_loss not in MULTILABEL_LOSSES:
            out.append(f"multilabel_loss must be one of {MULTILABEL_LOSSES}")
        return out

    def validate(self):
        problems = self.problems()
        if problems:
            raise ContractError("; ".join(problems))

    def class_counts(self) -> dict:
        return {"attn": self.attn_classes, "spat": self.spat_classes,
                "cont": self.cont_classes}

    def head_kwargs(self) -> dict:
        if self.flags.head == "bayesian":
            return {"s_train": self.s_train, "s_eval": self.s_eval}
        if self.flags.head == "gmm_plus":
            return {"k": self.k, "sigma_min": self.sigma_min,
                    "sigma_target": self.sigma_target, "tau": self.tau,
                    "lam": self.lam}
        return {}

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, doc: dict) -> "ModelConfig":
        doc = dict(doc)
        try:
            flags = AblationFlags(**doc.pop("flags"))
            return cls(flags=flags, **doc)
        except (KeyError, TypeError) as exc:
            raise ContractError(f"malformed model config: {exc}")


# ---------------------------------------------------------------------------
# loss operations
# ---------------------------------------------------------------------------

def loss_attention(logits: Tensor, target: int) -> Tensor:
    """Single-label cross-entropy: -log softmax(logits)[target]."""
    n = logits.shape[-1]
    target = int(target)
    if not 0 <= target < n:
        raise ContractError(f"target {target} outside [0, {n})")
    return -nc.log_softmax(logits, axis=-1)[target]


def loss_multilabel_bce(logits: Tensor, targets) -> Tensor:
    """Mean binary cross-entropy with logits, in the softplus form
    softplus(x) - x*y that never exponentiates a positive argument."""
    y = np.asarray(targets, dtype=np.float64)
    if y.shape != logits.shape:
        raise ContractError(f"target shape {y.shape} != logit shape {logits.shape}")
    return (nc.softplus(logits) - Tensor(y) * logits).mean()


def loss_multilabel_margin(scores: Tensor, positives, negatives) -> Tensor:
    """Pairwise hinge mean(max(0, 1 - s_p + s_n)) over positives x negatives.
    Either set empty means no ranking evidence, so the loss is zero."""
    n = scores.shape[-1]
    pos = np.asarray(positives, dtype=np.int64).ravel()
    neg = np.asarray(negatives, dtype=np.int64).ravel()
    for idx in (pos, neg):
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise ContractError(f"class index outside [0, {n})")
    if np.intersect1d(pos, neg).size:
        raise ContractError("positive and negative sets must be disjoint")
    if pos.size == 0 or neg.size == 0:
        return Tensor(0.0)
    sp = nc.reshape(scores[pos], (pos.size, 1))
    sn = nc.reshape(scores[neg], (1, neg.size))
    return nc.maximum(1.0 - sp + sn, 0.0).mean()


def _nll_rows(probs: Tensor, targets: np.ndarray) -> Tensor:
    picked = probs[np.arange(probs.shape[0]), targets]
    return -nc.log(nc.maximum(picked, PROB_FLOOR)).mean()


def _bce_rows(probs: Tensor, bits: np.ndarray) -> Tensor:
    y = Tensor(bits)
    p = nc.maximum(probs, PROB_FLOOR)
    q = nc.maximum(1.0 - probs, PROB_FLOOR)
    return -(y * nc.log(p) + (1.0 - y) * nc.log(q)).mean()


def _margin_rows(probs: Tensor, bits: np.ndarray) -> Tensor:
    total = Tensor(0.0)
    for i in range(bits.shape[0]):
        pos = np.flatnonzero(bits[i] == 1)
        neg = np.flatnonzero(bits[i] == 0)
        total = total + loss_multilabel_margin(probs[i], pos, neg)
    return total * (1.0 / bits.shape[0])


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

class _Trunk(nc.Module):
    """Input projection followed by the pair-encoding stack. A model's trunks
    always run together, as one batched pass (``FremureModel._embed``)."""

    def __init__(self, raw_dim: int, cfg: ModelConfig, n_classes: int, rng: nc.Rng):
        window = WindowConfig(cfg.window_w, cfg.window_s, cfg.window_mode)
        self.proj = nc.Linear(raw_dim, cfg.d, rng.spawn(0))
        self.dpeg = Dpeg(cfg.d, cfg.h, n_classes, rng.spawn(1), window,
                         cfg.ffn_mult, cfg.flags.dual_branch, cfg.flags.frequency)


class FremureModel(nc.Module):
    """Per-task (or shared) trunks plus one classification head per task."""

    def __init__(self, cfg: ModelConfig, rng: nc.Rng):
        cfg.validate()
        self.cfg = cfg
        counts = cfg.class_counts()
        if cfg.flags.decouple:
            self.trunks = {t: _Trunk(cfg.raw_dim, cfg, counts[t], rng.spawn(i))
                           for i, t in enumerate(TYPES)}
        else:
            total = sum(counts.values())
            self.trunks = {"shared": _Trunk(cfg.raw_dim, cfg, total, rng.spawn(0))}
        self.heads = {t: build_head(cfg.flags.head, cfg.d, counts[t],
                                    rng.spawn(3 + i), TYPE_MODES[t],
                                    **cfg.head_kwargs())
                      for i, t in enumerate(TYPES)}
        self.set_priors({t: np.ones(c) for t, c in counts.items()})

    def set_priors(self, counts: dict):
        """Install per-task label counts (usually from the training split)."""
        expected = self.cfg.class_counts()
        for t in TYPES:
            got = np.asarray(counts[t], dtype=np.float64)
            if got.shape != (expected[t],):
                raise ContractError(f"{t} counts have shape {got.shape}, "
                                    f"expected ({expected[t]},)")
        self.priors = {t: compute_frequencies(counts[t]) for t in TYPES}
        self.global_prior = compute_frequencies(
            np.concatenate([self.priors[t].counts for t in TYPES]))

    # priors live outside the parameter tree; Module.parameters would otherwise
    # not see them anyway since FrequencyPrior holds plain arrays.

    def _check_clip(self, clip):
        if not clip:
            raise ContractError("empty clip")
        cid = clip[0].clip
        counts = self.cfg.class_counts()
        for i, rec in enumerate(clip):
            if rec.clip != cid:
                raise ContractError(f"record {i} belongs to clip {rec.clip}, "
                                    f"expected {cid}")
            if len(rec.feat) != self.cfg.raw_dim:
                raise ContractError(f"record {i} feature dim {len(rec.feat)} != "
                                    f"configured raw_dim {self.cfg.raw_dim}")
            if not 0 <= rec.attn < counts["attn"]:
                raise ContractError(f"record {i} attention label {rec.attn} "
                                    f"outside [0, {counts['attn']})")
            if len(rec.spat) != counts["spat"] or len(rec.cont) != counts["cont"]:
                raise ContractError(f"record {i} label widths do not match the "
                                    "configured class counts")

    def forward(self, clip, rng: nc.Rng | None = None, training: bool = False):
        """Returns {"probs": {task: (N, C_task) Tensor}, "reports": {task: ...}}
        with rows aligned to the clip's record order."""
        self._check_clip(clip)
        feats = np.array([r.feat for r in clip], dtype=np.float64)
        frames = np.asarray([r.frame for r in clip], dtype=np.int64)
        pair_keys = [(r.subj, r.obj) for r in clip]
        codes = {pair: i for i, pair in enumerate(sorted(set(pair_keys)))}
        pair_ids = np.asarray([codes[p] for p in pair_keys], dtype=np.int64)
        embeds = self._embed(feats, clip_layout(frames, pair_ids))

        probs, reports = {}, {}
        for i, t in enumerate(TYPES):
            child = rng.spawn(i) if rng is not None else None
            probs[t], reports[t] = self.heads[t].predict(embeds[t], child, training)
        return {"probs": probs, "reports": reports}

    __call__ = forward

    def _embed(self, feats: np.ndarray, layout) -> dict:
        """Every trunk in one pass: projection and generator weights are
        stacked along a leading trunk axis, so the three decoupled trunks cost
        one set of batched ops instead of three. Slice i of the result is
        trunk i's embedding of the clip."""
        trunks = list(self.trunks.values())
        if self.cfg.flags.decouple:
            priors = [self.priors[t] for t in TYPES]
        else:
            priors = [self.global_prior]
        raw = Tensor(feats[None].repeat(len(trunks), axis=0))
        w, b = stack_tasks([(tr.proj.w, tr.proj.b) for tr in trunks])
        proj = nc.affine(raw, w, b)
        z = encode_stacked([tr.dpeg for tr in trunks], proj, layout, priors)
        if not self.cfg.flags.decouple:
            shared = z[0]
            return {t: shared for t in TYPES}
        return {t: z[i] for i, t in enumerate(TYPES)}

    def _type_losses(self, clip, rng, training):
        out = self.forward(clip, rng, training)
        attn = np.asarray([r.attn for r in clip], dtype=np.int64)
        spat = np.asarray([r.spat for r in clip], dtype=np.float64)
        cont = np.asarray([r.cont for r in clip], dtype=np.float64)
        multi = _bce_rows if self.cfg.multilabel_loss == "bce" else _margin_rows
        losses = {"attn": _nll_rows(out["probs"]["attn"], attn),
                  "spat": multi(out["probs"]["spat"], spat),
                  "cont": multi(out["probs"]["cont"], cont)}
        reg = Tensor(0.0)
        for t in TYPES:
            head = self.heads[t]
            if hasattr(head, "regularizer"):
                reg = reg + head.regularizer(self.priors[t])
        return losses, reg

    def total_loss(self, clip, rng: nc.Rng | None = None, training: bool = True):
        """Scalar training loss and its components as plain floats."""
        losses, reg = self._type_losses(clip, rng, training)
        total = losses["attn"] + losses["spat"] + losses["cont"] + reg
        parts = {"L_a": losses["attn"].item(), "L_s": losses["spat"].item(),
                 "L_c": losses["cont"].item(), "reg": reg.item(),
                 "total": total.item()}
        return total, parts


# ---------------------------------------------------------------------------
# gradient conflict diagnostics
# ---------------------------------------------------------------------------

@dataclass
class ConflictReport:
    applicable: bool
    shared_params: int
    cosines: dict

    def to_json(self) -> dict:
        return {"applicable": self.applicable, "shared_params": self.shared_params,
                "cosines": dict(self.cosines)}


def _cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(u @ v / (nu * nv))


def grad_conflict(model: FremureModel, clip, rng: nc.Rng | None = None) -> ConflictReport:
    """Pairwise cosine similarity of per-task loss gradients over the shared
    trunk. Decoupled models share no parameters, so the report is marked not
    applicable rather than inventing a number."""
    if model.cfg.flags.decouple:
        return ConflictReport(False, 0, {})
    losses, _ = model._type_losses(clip, rng, training=False)
    shared = model.trunks["shared"].parameters()
    vecs = {}
    for t in TYPES:
        model.zero_grad()
        losses[t].backward()
        vecs[t] = np.concatenate(
            [(p.grad if p.grad is not None else np.zeros_like(p.data)).ravel()
             for _, p in sorted(shared.items())])
    model.zero_grad()
    n_shared = int(sum(p.data.size for p in shared.values()))
    cosines = {f"{a}_{b}": _cosine(vecs[a], vecs[b])
               for a, b in (("attn", "spat"), ("attn", "cont"), ("spat", "cont"))}
    return ConflictReport(True, n_shared, cosines)


def finite_diff_model(model: nc.Module, f, h: float = 1e-5) -> float:
    """Check the tape gradient of ``f()`` (a scalar Tensor closure over the
    model) against central differences, coordinate by coordinate over every
    parameter. ``f`` must be deterministic; fix any sampling inside it.
    Returns the worst relative error, |ad - fd| / (|fd| + 1e-8)."""
    params = model.parameters()
    model.zero_grad()
    out = f()
    if out.data.size != 1:
        raise ContractError("finite_diff_model expects a scalar loss closure")
    out.backward()
    grads = {k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
             for k, p in params.items()}
    worst = 0.0
    with nc.no_grad():
        for key, p in params.items():
            flat = p.data.ravel()
            gflat = grads[key].ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                hi = f().item()
                flat[i] = orig - h
                lo = f().item()
                flat[i] = orig
                central = (hi - lo) / (2.0 * h)
                err = abs(gflat[i] - central) / (abs(central) + 1e-8)
                worst = max(worst, err)
    model.zero_grad()
    return worst


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def class_type_array(cfg: ModelConfig) -> np.ndarray:
    counts = cfg.class_counts()
    return np.concatenate([np.full(counts[t], i) for i, t in enumerate(TYPES)])


@dataclass
class Predictions:
    """What one no-grad pass over some clips gives evaluation.

    Frames are numbered in sorted (clip, frame) order and classes in the
    global numbering (attention, then spatial, then contact). `entries` rows
    are (frame, subj, obj, class), one per class of every record, with
    `scores` alongside; `truth` rows are the records' labels in the same
    form. `uncertainty` maps "<task>_aleatoric" and "<task>_epistemic" to
    one value per record, records in clip order."""
    entries: np.ndarray
    scores: np.ndarray
    truth: np.ndarray
    uncertainty: dict


def predict_clips(model: FremureModel, clips, rng: nc.Rng) -> Predictions:
    """Score every class for every record, one forward pass per clip; clip
    i draws from ``rng.spawn(i)``."""
    counts = model.cfg.class_counts()
    keys = sorted({(rec.clip, rec.frame) for clip in clips for rec in clip})
    frame_of = {key: i for i, key in enumerate(keys)}
    ids, scores, labels = [], [], []
    uncertainty = {f"{t}_{kind}": [] for t in TYPES
                   for kind in ("aleatoric", "epistemic")}
    with nc.no_grad():
        for ci, clip in enumerate(clips):
            out = model.forward(clip, rng.spawn(ci), training=False)
            ids.append(np.array([(frame_of[(r.clip, r.frame)], r.subj, r.obj)
                                 for r in clip], dtype=np.int64))
            # columns in TYPES order are the global class numbering
            scores.append(np.concatenate([out["probs"][t].data for t in TYPES],
                                         axis=1))
            labels.append(np.concatenate(
                [np.eye(counts["attn"], dtype=bool)[[r.attn for r in clip]]]
                + [np.array([getattr(r, t) for r in clip]) != 0
                   for t in ("spat", "cont")], axis=1))
            for t in TYPES:
                report = out["reports"][t]
                uncertainty[f"{t}_aleatoric"].append(report.aleatoric_rows)
                uncertainty[f"{t}_epistemic"].append(report.epistemic_rows)
    ids = np.concatenate(ids)
    scores = np.concatenate(scores)
    n_cls = scores.shape[1]
    entries = np.column_stack([np.repeat(ids, n_cls, axis=0),
                               np.tile(np.arange(n_cls), len(ids))])
    rec, cls = np.nonzero(np.concatenate(labels))
    return Predictions(entries, scores.ravel(), np.column_stack([ids[rec], cls]),
                       {name: np.concatenate(rows).tolist()
                        for name, rows in uncertainty.items()})


def evaluate(model: FremureModel, records, ks=(10, 20, 50), constraint: bool = True,
             seed: int = 0) -> dict:
    """Recall, mean recall and per-class recall at each K over the given
    records, from one forward pass per clip and one ranking of every frame.
    "uncertainty" holds each record's uncertainty values from those passes
    (see `Predictions`), records in `group_clips` order."""
    clips = group_clips(records)
    if not clips:
        raise ContractError("no records to evaluate")
    pred = predict_clips(model, clips, nc.Rng(seed))
    out = rank_recalls(pred.entries, pred.scores, pred.truth, ks, constraint,
                       class_type_array(model.cfg))
    out["uncertainty"] = pred.uncertainty
    return out


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    epochs: int = 10
    batch_clips: int = 1
    ks: tuple = (10, 20, 50)
    constraint: bool = True

    def problems(self) -> list:
        out = []
        if self.lr < 0:
            out.append("lr must be >= 0")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                out.append(f"{name} must be in [0, 1)")
        if self.eps <= 0:
            out.append("eps must be positive")
        if self.epochs < 0:
            out.append("epochs must be >= 0")
        if self.batch_clips < 1:
            out.append("batch_clips must be >= 1")
        if not self.ks or any(int(k) < 1 for k in self.ks):
            out.append("ks must be a non-empty list of positive integers")
        return out


def _count_labels(records, cfg: ModelConfig) -> dict:
    counts = {t: np.zeros(c) for t, c in cfg.class_counts().items()}
    for rec in records:
        counts["attn"][rec.attn] += 1
        counts["spat"] += np.asarray(rec.spat, dtype=np.float64)
        counts["cont"] += np.asarray(rec.cont, dtype=np.float64)
    return counts


def train(train_records, mcfg: ModelConfig, tcfg: TrainConfig, seed: int,
          val_records=None):
    """Adam training over clips, one clip per step, fully determined by
    (records, configs, seed). Returns (model, per-epoch history rows); with
    validation records, each row also carries that epoch's mR@K and R@K."""
    clips = group_clips(train_records)
    if not clips:
        raise ContractError("no training records")
    root = nc.Rng(seed)
    model = FremureModel(mcfg, root.spawn(0))
    model.set_priors(_count_labels(train_records, mcfg))
    opt = nc.Adam(model.parameters(), tcfg.lr, tcfg.beta1, tcfg.beta2, tcfg.eps)
    shuffle_rng = root.spawn(1)
    sample_root = root.spawn(2)

    history = []
    for epoch in range(tcfg.epochs):
        order = shuffle_rng.spawn(epoch).permutation(len(clips))
        epoch_rng = sample_root.spawn(epoch)
        sums = {"L_a": 0.0, "L_s": 0.0, "L_c": 0.0, "reg": 0.0}
        for j0 in range(0, len(order), tcfg.batch_clips):
            chunk = order[j0:j0 + tcfg.batch_clips]
            opt.zero_grad()
            for off, ci in enumerate(chunk):
                j = j0 + off
                total, parts = model.total_loss(clips[ci], epoch_rng.spawn(j),
                                                training=True)
                if not np.isfinite(parts["total"]):
                    raise NumericalError(f"non-finite loss at epoch {epoch}, "
                                         f"step {j} (clip {clips[ci][0].clip})")
                # gradients average over the batch; a singleton batch keeps
                # the unscaled loss so the stream matches batch_clips=1 runs
                loss = total if len(chunk) == 1 else total * (1.0 / len(chunk))
                loss.backward()
                for key in sums:
                    sums[key] += parts[key]
            opt.step()
        row = {"epoch": epoch}
        row.update({k: v / len(clips) for k, v in sums.items()})
        if val_records:
            scores = evaluate(model, val_records, tcfg.ks, tcfg.constraint,
                              seed=seed)
            for k in tcfg.ks:
                row[f"mR@{k}"] = scores["mean_recall"][k]
                row[f"R@{k}"] = scores["recall"][k]
        history.append(row)
    return model, history


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

def checkpoint_dict(model: FremureModel, epoch: int, seed: int,
                    optimizer: nc.Adam | None = None) -> dict:
    doc = {
        "config": model.cfg.to_json(),
        "priors": {t: model.priors[t].counts.tolist() for t in TYPES},
        "parameters": {k: p.data.tolist() for k, p in model.parameters().items()},
        "epoch": int(epoch),
        "seed": int(seed),
    }
    if optimizer is not None:
        doc["optimizer"] = optimizer.state_dict()
    return doc


def model_from_checkpoint(doc: dict) -> FremureModel:
    missing = [k for k in ("config", "priors", "parameters", "seed")
               if k not in doc]
    if missing:
        raise ContractError(f"checkpoint missing required keys: {missing}")
    cfg = ModelConfig.from_json(doc["config"])
    model = FremureModel(cfg, nc.Rng(int(doc["seed"])).spawn(0))
    model.set_priors({t: np.asarray(v, dtype=np.float64)
                      for t, v in doc["priors"].items()})
    params = model.parameters()
    stored = doc["parameters"]
    if set(stored) != set(params):
        raise ContractError("checkpoint parameter names do not match the "
                            "configured architecture")
    for key, p in params.items():
        arr = np.asarray(stored[key], dtype=np.float64)
        if arr.shape != p.data.shape:
            raise ContractError(f"checkpoint shape {arr.shape} != expected "
                                f"{p.data.shape} for '{key}'")
        p.data = arr
    return model
