"""Three-task relation model, its losses, and the training loop.

The model reads records as columns: a `data_metrics.Split`, which `train`,
`evaluate` and the CLI build once per split (`clip_split`, in `group_clips`
order) and where records are checked against the model's feature width and
class counts. A forward takes a view of whole consecutive clips: one clip
per training step, or a pack of clips when scoring. Each record carries a
raw feature vector plus one attention label and multi-hot spatial and
contact labels. The model projects features, refines them with the
dual-branch pair-encoding stack, and classifies each task with its own
head. Heads give
logits; the attention and BCE losses take those logits, and the margin loss
ranks the probabilities the heads build from them.

Decoupled mode (the default) gives every task a disjoint stack: its own slice
of every trunk weight (stored once, with a leading task axis) and its own
head, so no parameter element is touched by more than one task loss. Shared
mode is the one-slice trunk, whose frequency machinery sees the concatenated
label space; only the heads stay separate. ``grad_conflict`` quantifies why
decoupling exists by measuring pairwise cosines between per-task gradients on
the shared trunk.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import numcore as nc
from .data_metrics import Split, group_clips, label_counts, rank_recalls
# the benchmark's tracer (bench/tracing.py) wraps these names in this module
from .data_metrics import mean_recall_at_k, recall_at_k  # noqa: F401
from .dpeg import Dpeg, WindowConfig, clip_layout, encode_stacked, stack_tasks
from .errors import ContractError, NumericalError, Validated
from .freqgate import FrequencyPrior
from .heads import build_head
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
class ModelConfig(Validated):
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
        if self.d % 2 != 0:
            out.append(f"d={self.d} must be even (sinusoidal positions)")
        if self.d % self.h != 0:
            out.append(f"d={self.d} not divisible by h={self.h}")
        if self.window_s > self.window_w:
            out.append("window_s must not exceed window_w")
        if self.window_mode not in ("average", "triangular"):
            out.append(f"unknown window_mode '{self.window_mode}'")
        for name in ("sigma_min", "sigma_target", "tau", "lam"):
            if not math.isfinite(getattr(self, name)):
                out.append(f"{name} must be finite")
        if self.sigma_min <= 0:
            out.append("sigma_min must be positive")
        if self.tau < 0 or self.lam < 0:
            out.append("tau and lam must be nonnegative")
        if self.flags.head not in HEAD_KINDS:
            out.append(f"head must be one of {HEAD_KINDS}")
        if self.multilabel_loss not in MULTILABEL_LOSSES:
            out.append(f"multilabel_loss must be one of {MULTILABEL_LOSSES}")
        return out

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

    @classmethod
    def from_json(cls, doc: dict) -> "ModelConfig":
        """The config stored in a checkpoint. A missing field takes its
        default; an unknown field, or a value whose JSON type does not match
        the field's default, raises ContractError naming the field."""
        if not isinstance(doc, dict) or not isinstance(doc.get("flags"), dict):
            raise ContractError("malformed model config: expected an object "
                                "with a 'flags' object")
        doc = dict(doc)
        flags = doc.pop("flags")
        _check_json_types(AblationFlags, flags, "flags.")
        _check_json_types(cls, doc, "")
        try:
            return cls(flags=AblationFlags(**flags), **doc)
        except TypeError as exc:
            raise ContractError(f"malformed model config: {exc}")


def field_types(cls) -> dict:
    """name -> type of every field of the config dataclass ``cls``: the type
    of the field's default value."""
    defaults = cls()
    return {f.name: type(getattr(defaults, f.name)) for f in fields(cls)}


# JSON types accepted for a config field, by the field's type
_JSON_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


def _check_json_types(cls, doc: dict, prefix: str):
    for name, kind in field_types(cls).items():
        if name not in doc or kind not in _JSON_TYPES:
            continue
        value = doc[name]
        if not isinstance(value, _JSON_TYPES[kind]) or \
                (isinstance(value, bool) and kind is not bool):
            raise ContractError(f"model config field '{prefix}{name}' must be "
                                f"{kind.__name__}, got {type(value).__name__}")


# ---------------------------------------------------------------------------
# loss operations
# ---------------------------------------------------------------------------

def loss_attention(logits: Tensor, targets) -> Tensor:
    """Single-label cross-entropy -log softmax(logits)[target], averaged over
    rows: (C,) logits take one target, (N, C) logits N of them."""
    targets = np.asarray(targets, dtype=np.int64)
    rows = tuple(np.indices(targets.shape))     # none for (C,) logits
    return -nc.log_softmax(logits)[rows + (targets,)].mean()


def loss_multilabel_bce(logits: Tensor, targets) -> Tensor:
    """Mean binary cross-entropy with logits, in the softplus form
    softplus(x) - x*y that never exponentiates a positive argument."""
    return (nc.softplus(logits) - Tensor(targets) * logits).mean()


def _margin_rows(probs: Tensor, bits: np.ndarray) -> Tensor:
    """Row mean of the pairwise hinge mean(max(0, 1 - s_p + s_n)) over each
    row's 1-bits p against its 0-bits n, as one hinge over every (row, class,
    class) triple weighted by a constant mask. A row without positives or
    negatives has no ranking evidence and weighs 0."""
    n, c = bits.shape
    pos, neg = bits == 1, bits == 0
    count = pos.sum(axis=1) * neg.sum(axis=1) * n
    scale = np.divide(1.0, count, out=np.zeros(n), where=count > 0)
    weight = (pos[:, :, None] & neg[:, None, :]) * scale[:, None, None]
    hinge = nc.maximum(1.0 - nc.reshape(probs, (n, c, 1))
                       + nc.reshape(probs, (n, 1, c)), 0.0)
    return (hinge * Tensor(weight)).sum()


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

def _codes(*cols) -> np.ndarray:
    """Each row's index among the distinct rows of ``cols``, sorted."""
    return np.unique(np.column_stack(cols), axis=0, return_inverse=True)[1].reshape(-1)


class _RowStreams:
    """One Rng per block of consecutive rows, for a pack of clips. A draw of
    shape (..., rows, C) concatenates each stream's own (..., its rows, C)
    draw along the row axis, so every block gets what its Rng alone gives."""

    def __init__(self, rngs, sizes):
        self.rngs = rngs
        self.sizes = sizes

    def spawn(self, key: int) -> "_RowStreams":
        return _RowStreams([r.spawn(key) for r in self.rngs], self.sizes)

    def normals(self, shape) -> np.ndarray:
        return np.concatenate([r.normals(shape[:-2] + (n, shape[-1]))
                               for r, n in zip(self.rngs, self.sizes)], axis=-2)


class _Trunk(nc.Module):
    """Input projection and pair-encoding stack of T tasks: slice t of each
    weight is what a trunk of ``class_counts[t]`` classes draws from ``rngs[t]``."""

    def __init__(self, cfg: ModelConfig, class_counts, rngs):
        window = WindowConfig(cfg.window_w, cfg.window_s, cfg.window_mode)
        self.proj = stack_tasks([nc.Linear(cfg.raw_dim, cfg.d, r.spawn(0)) for r in rngs])
        self.dpeg = Dpeg(cfg.d, cfg.h, class_counts, [r.spawn(1) for r in rngs], window,
                         cfg.ffn_mult, cfg.flags.dual_branch, cfg.flags.frequency)


class FremureModel(nc.Module):
    """One trunk, of 3 task slices (decoupled) or 1 (shared), and one head per task."""

    def __init__(self, cfg: ModelConfig, rng: nc.Rng):
        cfg.validate()
        self.cfg = cfg
        counts = cfg.class_counts()
        sizes = ([counts[t] for t in TYPES] if cfg.flags.decouple
                 else [sum(counts.values())])
        self.trunk = _Trunk(cfg, sizes, [rng.spawn(i) for i in range(len(sizes))])
        self.heads = {t: build_head(cfg.flags.head, cfg.d, counts[t],
                                    rng.spawn(3 + i), TYPE_MODES[t],
                                    **cfg.head_kwargs())
                      for i, t in enumerate(TYPES)}
        self.set_priors({t: np.ones(c) for t, c in counts.items()})

    def set_priors(self, counts: dict, key: str = "{} prior"):
        """Install per-task label counts (usually from the training split).
        This is where priors meet the model: counts of another class count,
        or that `FrequencyPrior` rejects, raise ContractError naming
        ``key.format(task)``."""
        expected = self.cfg.class_counts()
        for t in TYPES:
            got = np.asarray(counts[t], dtype=np.float64)
            if got.shape != (expected[t],):
                raise ContractError(f"{key.format(t)} must hold {expected[t]} "
                                    f"counts, got shape {got.shape}")
        self.priors = {t: FrequencyPrior(counts[t], key.format(t)) for t in TYPES}
        self.global_prior = FrequencyPrior(
            np.concatenate([self.priors[t].counts for t in TYPES]))

    def _split(self, clip) -> Split:
        """The `Split.of` ``clip``, a Split or records in order, for this model."""
        return Split.of(clip, self.cfg.raw_dim, self.cfg.class_counts())

    def forward(self, clip, rng=None, training: bool = False):
        """Returns {"logits": ..., "probs": ..., "reports": ...}, each keyed
        by task: (N, C_task) logit and probability Tensors and the head's
        `UncertaintyReport`, rows aligned to the rows of ``clip``: a `Split`
        view of whole consecutive clips, or a list of records, taken in its
        order through `Split.of`.

        One clip takes ``rng`` an ``nc.Rng`` or None; several clips, a pack
        for scoring only, take a list of one Rng per clip. Rows of different
        clips share no attention and no window, and each clip's draws come
        from its own Rng, so a pack gives every clip the rows its own forward
        would. The one exception is rounding: a clip with a one-row block (a
        frame of one pair) multiplies one-row matrices alone, which BLAS may
        round in the last bit unlike the same row inside a pack's larger block.
        """
        view = self._split(clip)
        sizes = np.diff(view.starts)
        if isinstance(rng, list):
            if training:
                raise ContractError("a pack of clips is scored, not trained: "
                                    "training takes one clip per forward")
            if len(rng) != sizes.size:
                raise ContractError(f"a pack of {sizes.size} clips needs as many "
                                    f"Rngs, got {len(rng)}")
            rng = _RowStreams(rng, sizes.tolist())
        elif sizes.size > 1:
            raise ContractError(f"{sizes.size} clips need a list of one Rng each")
        layout = clip_layout(view.frame, view.subj, view.obj,
                             np.repeat(np.arange(sizes.size), sizes))
        embeds = self._embed(view.feat, layout)

        out = {"logits": {}, "probs": {}, "reports": {}}
        for i, t in enumerate(TYPES):
            child = rng.spawn(i) if rng is not None else None
            out["logits"][t], out["probs"][t], out["reports"][t] = \
                self.heads[t].predict(embeds[t], child, training)
        return out

    def _embed(self, feats: np.ndarray, layout) -> dict:
        """The trunk in one pass of batched ops over its task axis. The decouple
        flag picks the priors and which slice of the result each head reads:
        its own, or the one shared slice."""
        decouple = self.cfg.flags.decouple
        priors = [self.priors[t] for t in TYPES] if decouple else [self.global_prior]
        proj = self.trunk.proj
        raw = Tensor(feats[None].repeat(len(priors), axis=0))
        z = encode_stacked(self.trunk.dpeg, nc.affine(raw, proj.w, proj.b), layout, priors)
        slices = [z[i] for i in range(len(priors))]
        return {t: slices[i if decouple else 0] for i, t in enumerate(TYPES)}

    def _type_losses(self, clip, rng, training):
        view = self._split(clip)
        out = self.forward(view, rng, training)
        losses = {"attn": loss_attention(out["logits"]["attn"], view.attn)}
        for t in ("spat", "cont"):
            bits = getattr(view, t)
            if self.cfg.multilabel_loss == "bce":
                losses[t] = loss_multilabel_bce(out["logits"][t], bits)
            else:
                losses[t] = _margin_rows(out["probs"][t], bits)
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
    shared = model.trunk.parameters()
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
    one value per record, in the split's row order."""
    entries: np.ndarray
    scores: np.ndarray
    truth: np.ndarray
    uncertainty: dict


# records per no-grad forward in `predict_clips`: packing clips up to this
# size cuts per-op dispatch. At d=64, packs of 320 records made arrays large
# enough that the allocator mapped fresh pages for them on every pack (about
# 57k page faults per eval-dense scoring pass), which cost more than packing
# saved
PACK_RECORDS = 200


def _packs(sizes, cap: int) -> list:
    """(first, end) ranges of consecutive clips, for clips of ``sizes``
    records, of at most ``cap`` records each; a clip of more records than
    that is a pack of its own."""
    firsts, size = [], cap
    for ci, n in enumerate(sizes):
        size += n
        if size > cap:
            firsts.append(ci)
            size = n
    return list(zip(firsts, firsts[1:] + [len(sizes)]))


def predict_clips(model: FremureModel, split: Split, rng: nc.Rng) -> Predictions:
    """Score every class for every record of ``split``. Consecutive clips go
    through ``FremureModel.forward`` together, in packs of at most
    ``PACK_RECORDS`` records, and clip i draws from ``rng.spawn(i)`` as if
    scored alone. A non-finite probability or uncertainty value raises
    NumericalError naming the first clip with one (numpy's warnings muted)."""
    ids = np.column_stack([_codes(split.clip, split.frame), split.subj, split.obj])
    packs = []
    with nc.no_grad(), np.errstate(all="ignore"):
        for lo, hi in _packs(np.diff(split.starts).tolist(), PACK_RECORDS):
            out = model.forward(split.view(lo, hi),
                                [rng.spawn(ci) for ci in range(lo, hi)], training=False)
            # class columns in TYPES order are the global class numbering;
            # each task's aleatoric and epistemic values follow them
            reports = [out["reports"][t] for t in TYPES]
            packs.append(np.column_stack(
                [out["probs"][t].data for t in TYPES]
                + [rows for r in reports for rows in (r.aleatoric_rows, r.epistemic_rows)]))
    table = np.concatenate(packs)
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        raise NumericalError(f"clip {split.clip[np.argmin(finite)]}: non-finite "
                             f"class probability or uncertainty value")
    names = [f"{t}_{kind}" for t in TYPES for kind in ("aleatoric", "epistemic")]
    n_cls = table.shape[1] - len(names)
    entries = np.column_stack([np.repeat(ids, n_cls, axis=0),
                               np.tile(np.arange(n_cls), len(ids))])
    labels = np.concatenate([np.eye(model.cfg.attn_classes, dtype=bool)[split.attn],
                             split.spat != 0, split.cont != 0], axis=1)
    rec, cls = np.nonzero(labels)
    return Predictions(entries, table[:, :n_cls].ravel(), np.column_stack([ids[rec], cls]),
                       {name: table[:, n_cls + j].tolist() for j, name in enumerate(names)})


def clip_split(records, cfg: ModelConfig) -> Split:
    """The `Split` of ``records`` in `group_clips` order, checked against
    ``cfg``'s feature width and class counts; ``records`` itself, so checked,
    if it is such a Split already."""
    if not isinstance(records, Split):
        records = [rec for clip in group_clips(records) for rec in clip]
    return Split.of(records, cfg.raw_dim, cfg.class_counts())


def evaluate(model: FremureModel, records, ks, constraint: bool, seed: int) -> dict:
    """Recall, mean recall and per-class recall at each K over the given
    records (or their `clip_split`), from packed forward passes
    (`predict_clips`) and one ranking of every frame. "samples" maps "clip",
    "frame", "subj", "obj" and each uncertainty value of those passes (see
    `Predictions`) to one value per record, records in `group_clips` order."""
    split = clip_split(records, model.cfg)
    pred = predict_clips(model, split, nc.Rng(seed))
    out = rank_recalls(pred.entries, pred.scores, pred.truth, ks, constraint,
                       class_type_array(model.cfg))
    ids = {name: getattr(split, name).tolist() for name in ("clip", "frame", "subj", "obj")}
    out["samples"] = dict(ids, **pred.uncertainty)
    return out


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig(Validated):
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    epochs: int = 10
    ks: tuple = (10, 20, 50)
    constraint: bool = True

    def problems(self) -> list:
        out = []
        for name in ("lr", "eps"):
            if not math.isfinite(getattr(self, name)):
                out.append(f"{name} must be finite")
        if self.lr < 0:
            out.append("lr must be >= 0")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                out.append(f"{name} must be in [0, 1)")
        if self.eps <= 0:
            out.append("eps must be positive")
        if self.epochs < 0:
            out.append("epochs must be >= 0")
        if not self.ks or any(int(k) < 1 for k in self.ks):
            out.append("ks must be a non-empty list of positive integers")
        return out


def train(train_records, mcfg: ModelConfig, tcfg: TrainConfig, seed: int,
          val_records=None):
    """Adam training over clips, one clip per step, fully determined by
    (records, configs, seed). Returns (model, per-epoch history rows); with
    validation records, each row also carries that epoch's mR@K and R@K.
    Either set of records may be given as its `clip_split`; both are checked
    against ``mcfg`` before the first step, after ``tcfg`` is validated."""
    tcfg.validate()
    split = clip_split(train_records, mcfg)
    val = clip_split(val_records, mcfg) if val_records else None
    root = nc.Rng(seed)
    model = FremureModel(mcfg, root.spawn(0))
    model.set_priors(label_counts(split, mcfg))
    opt = nc.Adam(model.parameters(), tcfg.lr, tcfg.beta1, tcfg.beta2, tcfg.eps)
    shuffle_rng = root.spawn(1)
    sample_root = root.spawn(2)

    history = []
    for epoch in range(tcfg.epochs):
        order = shuffle_rng.spawn(epoch).permutation(len(split))
        epoch_rng = sample_root.spawn(epoch)
        sums = {"L_a": 0.0, "L_s": 0.0, "L_c": 0.0, "reg": 0.0}
        for j, ci in enumerate(order):
            clip = split.view(ci, ci + 1)
            opt.zero_grad()
            # an overflow is named below as a non-finite loss, not by numpy
            with np.errstate(all="ignore"):
                total, parts = model.total_loss(clip, epoch_rng.spawn(j), training=True)
            if not np.isfinite(parts["total"]):
                raise NumericalError(f"non-finite loss at epoch {epoch}, "
                                     f"step {j} (clip {clip.clip[0]})")
            total.backward()
            for key in sums:
                sums[key] += parts[key]
            opt.step()
        row = {"epoch": epoch}
        row.update({k: v / len(split) for k, v in sums.items()})
        if val is not None:
            scores = evaluate(model, val, tcfg.ks, tcfg.constraint,
                              seed=seed)
            for k in tcfg.ks:
                row[f"mR@{k}"] = scores["mean_recall"][k]
                row[f"R@{k}"] = scores["recall"][k]
        history.append(row)
    return model, history


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

def checkpoint_dict(model: FremureModel, epoch: int, seed: int) -> dict:
    return {
        "config": asdict(model.cfg),
        "priors": {t: model.priors[t].counts.tolist() for t in TYPES},
        "parameters": {k: p.data.tolist() for k, p in model.parameters().items()},
        "epoch": int(epoch),
        "seed": int(seed),
    }


def _numbers(value, key: str) -> np.ndarray:
    """A checkpoint entry as a float64 array; ContractError naming ``key``
    unless it is a finite number or a rectangular nest of finite numbers
    (Python's JSON reader takes NaN and Infinity tokens)."""
    try:
        arr = np.asarray(value)
    except ValueError:                  # ragged nesting
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf":
        raise ContractError(f"checkpoint '{key}' must hold only numbers")
    arr = arr.astype(np.float64)
    if not np.isfinite(arr).all():
        raise ContractError(f"checkpoint '{key}' must hold only finite numbers")
    return arr


def model_from_checkpoint(doc: dict) -> FremureModel:
    missing = [k for k in ("config", "priors", "parameters", "seed")
               if k not in doc]
    if missing:
        raise ContractError(f"checkpoint missing required keys: {missing}")
    cfg = ModelConfig.from_json(doc["config"])
    seed, priors, stored = doc["seed"], doc["priors"], doc["parameters"]
    if type(seed) is not int:
        raise ContractError(f"checkpoint 'seed' must be an integer, got "
                            f"{type(seed).__name__}")
    for key in ("priors", "parameters"):
        if not isinstance(doc[key], dict):
            raise ContractError(f"checkpoint '{key}' must be an object")
    model = FremureModel(cfg, nc.Rng(seed).spawn(0))
    model.set_priors({t: _numbers(priors.get(t), f"priors.{t}") for t in TYPES},
                     "checkpoint 'priors.{}'")
    params = model.parameters()
    missing = next((key for key in params if key not in stored), None)
    unexpected = next((key for key in stored if key not in params), None)
    if missing or unexpected:
        raise ContractError("checkpoint parameter names do not match the configured "
                            f"architecture (first missing: {missing}; first "
                            f"unexpected: {unexpected})")
    for key, p in params.items():
        arr = _numbers(stored[key], f"parameters.{key}")
        if arr.shape != p.data.shape:
            raise ContractError(f"checkpoint shape {arr.shape} != expected "
                                f"{p.data.shape} for '{key}'")
        p.data = arr
    return model
