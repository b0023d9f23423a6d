"""Command-line front end: dataset generation, training, evaluation,
ablation sweeps, and gradient-conflict diagnostics as reproducible runs.

Conventions shared by every command: configuration comes from a plain-text
key=value file with dotted section prefixes (data.*, model.*, train.*,
flags.*, plus bare seed/out); --seed and --out override the file; every
output lands under the chosen directory together with a manifest that
records the exact configuration, seed, and output hashes needed to replay
the run. Exit codes: 0 success, 1 validation failure, 2 I/O failure,
3 numerical abort.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import multiprocessing
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import numcore as nc
from .data_metrics import (SyntheticConfig, generate_dataset, group_clips,
                           read_jsonl, write_jsonl,
                           frequency_stratified_report)
from .errors import ContractError, NumericalError
from .freqgate import compute_frequencies
from .model import (TYPES, AblationFlags, FremureModel, ModelConfig,
                    TrainConfig, checkpoint_dict, evaluate, grad_conflict,
                    model_from_checkpoint, train)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_NUMERICAL = 3

# ablation variants: name -> flag overrides relative to the full model
VARIANTS = {
    "full+bayes": {"head": "bayesian"},
    "full+gmm": {"head": "gmm_plus"},
    "no-decouple": {"head": "gmm_plus", "decouple": False},
    "no-frequency": {"head": "gmm_plus", "frequency": False},
    "no-dual-branch": {"head": "gmm_plus", "dual_branch": False},
}


class ConfigError(ContractError):
    """Validation failure carrying every detected problem, not just the first."""

    def __init__(self, problems):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


# ---------------------------------------------------------------------------
# configuration file parsing
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    data: SyntheticConfig = field(default_factory=SyntheticConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0
    out: str = "runs"

    def to_json(self) -> dict:
        return {"data": asdict(self.data), "model": asdict(self.model),
                "train": asdict(self.train), "seed": self.seed, "out": self.out}


_SECTIONS = {"data": SyntheticConfig, "model": ModelConfig,
             "train": TrainConfig, "flags": AblationFlags}
# settable per section: scalar fields only; flags live in their own section
# and evaluation knobs (ks, constraint) come from command-line options
_EXCLUDED = {("model", "flags"), ("train", "ks"), ("train", "constraint")}
_TOP_LEVEL = {"seed": int, "out": str}

# the model consumes what the generator emits, so these default to the
# matching data.* values unless the file pins them explicitly
_INHERITED = {"raw_dim": "d", "attn_classes": "attn_classes",
              "spat_classes": "spat_classes", "cont_classes": "cont_classes"}


def _section_fields(section: str) -> dict:
    out = {}
    for f in fields(_SECTIONS[section]):
        if (section, f.name) in _EXCLUDED:
            continue
        out[f.name] = type(getattr(_SECTIONS[section](), f.name))
    return out


def _convert(key: str, raw: str, kind: type, problems: list):
    try:
        if kind is bool:
            low = raw.lower()
            if low in ("true", "false"):
                return low == "true"
            raise ValueError
        if kind is int:
            return int(raw, 10)
        if kind is float:
            return float(raw)
        return raw
    except ValueError:
        problems.append(f"{key}: cannot parse '{raw}' as {kind.__name__}")
        return None


def parse_config(text: str) -> ExperimentConfig:
    """Parse a key=value config body. Collects every problem (syntax, unknown
    keys, bad values, dataclass invariants) and raises one ConfigError."""
    problems = []
    pairs = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            problems.append(f"line {lineno}: expected key = value")
            continue
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key in pairs:
            problems.append(f"duplicate key '{key}'")
            continue
        pairs[key] = value

    overrides = {name: {} for name in _SECTIONS}
    top = {}
    for key, raw in pairs.items():
        if "." in key:
            section, _, name = key.partition(".")
            known = _section_fields(section) if section in _SECTIONS else {}
            if name not in known:
                problems.append(f"unknown key '{key}'")
                continue
            value = _convert(key, raw, known[name], problems)
            if value is not None:
                overrides[section][name] = value
        elif key in _TOP_LEVEL:
            value = _convert(key, raw, _TOP_LEVEL[key], problems)
            if value is not None:
                top[key] = value
        else:
            problems.append(f"unknown key '{key}'")

    data = SyntheticConfig(**overrides["data"])
    for model_field, data_field in _INHERITED.items():
        overrides["model"].setdefault(model_field, getattr(data, data_field))
    flags = AblationFlags(**overrides["flags"])
    model = ModelConfig(flags=flags, **overrides["model"])
    tcfg = TrainConfig(**overrides["train"])

    for section, cfg in (("data", data), ("model", model), ("train", tcfg)):
        problems.extend(f"{section}: {p}" for p in cfg.problems())
    if model.raw_dim != data.d:
        problems.append(f"model.raw_dim={model.raw_dim} contradicts data.d={data.d}")
    for model_field in ("attn_classes", "spat_classes", "cont_classes"):
        if getattr(model, model_field) != getattr(data, model_field):
            problems.append(f"model.{model_field}={getattr(model, model_field)} "
                            f"contradicts data.{model_field}="
                            f"{getattr(data, model_field)}")
    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(data=data, model=model, train=tcfg, **top)


def load_config(path: str, seed=None, out=None) -> ExperimentConfig:
    with open(path) as fh:
        exp = parse_config(fh.read())
    if seed is not None:
        exp.seed = seed
    if out is not None:
        exp.out = out
    return exp


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

_WRITE_CHUNK = 1 << 20      # characters of JSON text encoded at a time


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_json(path: str, doc):
    # a checkpoint's text is megabytes: encode and write it a chunk at a
    # time instead of holding whole copies of it
    text = _canonical(doc)
    with open(path, "wb") as fh:
        for i in range(0, len(text), _WRITE_CHUNK):
            fh.write(text[i:i + _WRITE_CHUNK].encode())
        fh.write(b"\n")


def _file_sha(path: str) -> str:
    with open(path, "rb") as fh:
        return _sha256(fh.read())


def _write_manifest(outdir: str, command: str, exp: ExperimentConfig,
                    options: dict, files: dict) -> str:
    # the output directory is a location, not part of the experiment identity
    config = exp.to_json()
    config.pop("out")
    doc = {"command": command,
           "seed": exp.seed,
           "config": config,
           "config_sha256": _sha256(_canonical(config).encode()),
           "options": options,
           "files": files}
    path = os.path.join(outdir, f"{command.replace('-', '_')}_manifest.json")
    _write_json(path, doc)
    return path


def _write_csv(path: str, header: list, rows: list):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _ensure_outdir(path: str):
    os.makedirs(path, exist_ok=True)


def _require_files(*paths):
    for p in paths:
        if not os.path.exists(p):
            raise FileNotFoundError(f"missing dataset file: {p}")


def _load_checkpoint(path: str) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ContractError(f"checkpoint {path} is not valid JSON: {exc}")


def _check_compat(records, mcfg: ModelConfig):
    """Dataset and model must agree on feature and label layout."""
    if not records:
        raise ContractError("dataset contains no records")
    first = records[0]
    if len(first.feat) != mcfg.raw_dim:
        raise ContractError(f"dataset feature dim {len(first.feat)} != "
                            f"model raw_dim {mcfg.raw_dim}")
    if len(first.spat) != mcfg.spat_classes:
        raise ContractError(f"dataset spat width {len(first.spat)} != "
                            f"model spat_classes {mcfg.spat_classes}")
    if len(first.cont) != mcfg.cont_classes:
        raise ContractError(f"dataset cont width {len(first.cont)} != "
                            f"model cont_classes {mcfg.cont_classes}")
    worst = max(rec.attn for rec in records)
    if worst >= mcfg.attn_classes:
        raise ContractError(f"dataset attention label {worst} outside "
                            f"model range [0, {mcfg.attn_classes})")


def _mr_table(scores: dict, ks) -> str:
    cells = [f"mR@{k}={scores['mean_recall'][k]:.4f}" for k in ks]
    cells += [f"R@{k}={scores['recall'][k]:.4f}" for k in ks]
    return "  ".join(cells)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen_data(exp: ExperimentConfig, args) -> int:
    _ensure_outdir(exp.out)
    train_recs, test_recs, counts = generate_dataset(exp.data, exp.seed)
    train_path = os.path.join(exp.out, "train.jsonl")
    test_path = os.path.join(exp.out, "test.jsonl")
    write_jsonl(train_recs, train_path)
    write_jsonl(test_recs, test_path)
    prior_path = os.path.join(exp.out, "prior.json")
    prior = {t: {"counts": counts[t].tolist(),
                 "frequencies": compute_frequencies(counts[t]).f.tolist()}
             for t in TYPES}
    _write_json(prior_path, prior)
    files = {os.path.basename(p): _file_sha(p)
             for p in (train_path, test_path, prior_path)}
    _write_manifest(exp.out, "gen-data", exp, {}, files)
    print(f"wrote {len(train_recs)} train and {len(test_recs)} test records "
          f"to {exp.out}")
    return EXIT_OK


def cmd_train(exp: ExperimentConfig, args) -> int:
    _ensure_outdir(exp.out)
    train_path = os.path.join(exp.out, "train.jsonl")
    test_path = os.path.join(exp.out, "test.jsonl")
    _require_files(train_path, test_path)
    records = read_jsonl(train_path)
    test_records = read_jsonl(test_path)
    _check_compat(records, exp.model)

    tcfg = replace(exp.train, ks=args.k, constraint=args.constraint)
    model, history = train(records, exp.model, tcfg, exp.seed,
                           val_records=test_records)

    header = ["epoch", "L_a", "L_s", "L_c", "reg"] + [f"mR@{k}" for k in tcfg.ks]
    rows = [[row[col] for col in header] for row in history]
    metrics_path = os.path.join(exp.out, "metrics.csv")
    _write_csv(metrics_path, header, rows)

    ckpt_path = os.path.join(exp.out, "checkpoint.json")
    _write_json(ckpt_path, checkpoint_dict(model, tcfg.epochs, exp.seed))

    files = {os.path.basename(p): _file_sha(p) for p in (metrics_path, ckpt_path)}
    _write_manifest(exp.out, "train", exp,
                    {"k": list(tcfg.ks), "constraint": tcfg.constraint}, files)

    if history:
        # the last epoch's validation scored this model on these records
        # with this seed
        last = history[-1]
        scores = {"mean_recall": {k: last[f"mR@{k}"] for k in tcfg.ks},
                  "recall": {k: last[f"R@{k}"] for k in tcfg.ks}}
    else:
        scores = evaluate(model, test_records, tcfg.ks, tcfg.constraint,
                          seed=exp.seed)
    print(f"final  {_mr_table(scores, tcfg.ks)}")
    return EXIT_OK


def _uncertainty_rows(clips, uncertainty: dict) -> list:
    """Per-record aleatoric/epistemic numbers for each task head, from the
    values `evaluate` kept for the records of `clips` in order."""
    rows = []
    records = (rec for clip in clips for rec in clip)
    for i, rec in enumerate(records):
        row = {"clip": rec.clip, "frame": rec.frame,
               "subj": rec.subj, "obj": rec.obj}
        for t in TYPES:
            row[f"{t}_aleatoric"] = uncertainty[f"{t}_aleatoric"][i]
            row[f"{t}_epistemic"] = uncertainty[f"{t}_epistemic"][i]
        rows.append(row)
    return rows


def cmd_eval(args) -> int:
    model = model_from_checkpoint(_load_checkpoint(args.checkpoint))
    records = read_jsonl(args.data)
    _check_compat(records, model.cfg)
    _ensure_outdir(args.out)

    scores = evaluate(model, records, args.k, args.constraint, seed=args.seed)
    strata = {k: frequency_stratified_report(scores["per_class"][k],
                                             model.global_prior)
              for k in args.k}
    report = {"k": list(args.k), "constraint": args.constraint,
              "recall": {str(k): scores["recall"][k] for k in args.k},
              "mean_recall": {str(k): scores["mean_recall"][k] for k in args.k},
              "per_class": {str(k): {str(c): v
                                     for c, v in scores["per_class"][k].items()}
                            for k in args.k},
              "head_tail": {str(k): strata[k] for k in args.k}}

    report_path = os.path.join(args.out, "eval_report.json")
    _write_json(report_path, report)

    header = ["metric"] + [f"K={k}" for k in args.k]
    csv_rows = [
        ["recall"] + [scores["recall"][k] for k in args.k],
        ["mean_recall"] + [scores["mean_recall"][k] for k in args.k],
        ["head_recall"] + [strata[k]["head"] for k in args.k],
        ["tail_recall"] + [strata[k]["tail"] for k in args.k],
    ]
    csv_path = os.path.join(args.out, "eval_report.csv")
    _write_csv(csv_path, header, csv_rows)

    samples = _uncertainty_rows(group_clips(records), scores["uncertainty"])
    samples_path = os.path.join(args.out, "eval_samples.jsonl")
    with open(samples_path, "w") as fh:
        for row in samples:
            fh.write(_canonical(row) + "\n")

    exp = ExperimentConfig(model=model.cfg, seed=args.seed, out=args.out)
    files = {os.path.basename(p): _file_sha(p)
             for p in (report_path, csv_path, samples_path)}
    _write_manifest(args.out, "eval", exp,
                    {"checkpoint": args.checkpoint, "data": args.data,
                     "k": list(args.k), "constraint": args.constraint}, files)
    print(_mr_table(scores, args.k))
    return EXIT_OK


def _ablate_one(payload: dict) -> dict:
    """Train and score one (variant, seed) cell; runs in a worker process."""
    exp = ExperimentConfig(
        data=SyntheticConfig(**payload["data"]),
        model=ModelConfig.from_json(payload["model"]),
        train=TrainConfig(**payload["train"]),
    )
    tcfg = replace(exp.train, ks=tuple(payload["ks"]),
                   constraint=payload["constraint"])
    model, _ = train(payload["train_records"], exp.model, tcfg, payload["seed"])
    scores = evaluate(model, payload["test_records"], tcfg.ks, tcfg.constraint,
                      seed=payload["seed"])
    return {"variant": payload["variant"], "seed": payload["seed"],
            "mean_recall": {str(k): scores["mean_recall"][k] for k in tcfg.ks},
            "recall": {str(k): scores["recall"][k] for k in tcfg.ks}}


def _worker_count(n_jobs: int) -> int:
    raw = os.environ.get("FREMURE_THREADS", "1")
    try:
        cap = int(raw, 10)
    except ValueError:
        raise ConfigError([f"FREMURE_THREADS: cannot parse '{raw}' as int"])
    if cap < 1:
        raise ConfigError(["FREMURE_THREADS must be >= 1"])
    return min(cap, n_jobs)


def cmd_ablate(exp: ExperimentConfig, args) -> int:
    _ensure_outdir(exp.out)
    train_path = os.path.join(exp.out, "train.jsonl")
    test_path = os.path.join(exp.out, "test.jsonl")
    _require_files(train_path, test_path)

    unknown = [v for v in args.variants if v not in VARIANTS]
    if unknown:
        raise ConfigError([f"unknown variant '{v}'" for v in unknown])
    seeds = [exp.seed + i for i in range(args.seeds_per_variant)]
    records = read_jsonl(train_path)
    test_records = read_jsonl(test_path)

    jobs = []
    for variant in args.variants:
        over = dict(VARIANTS[variant])
        flags = replace(AblationFlags(), **over)
        mcfg = replace(exp.model, flags=flags)
        for seed in seeds:
            jobs.append({"variant": variant, "seed": seed,
                         "data": asdict(exp.data), "model": mcfg.to_json(),
                         "train": {f.name: getattr(exp.train, f.name)
                                   for f in fields(TrainConfig)
                                   if f.name not in ("ks", "constraint")},
                         "ks": list(args.k), "constraint": args.constraint,
                         "train_records": records, "test_records": test_records})

    workers = _worker_count(len(jobs))
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_ablate_one, jobs)
    else:
        results = [_ablate_one(job) for job in jobs]

    by_variant = {v: [r for r in results if r["variant"] == v]
                  for v in args.variants}
    header = ["variant", "seeds"]
    for k in args.k:
        header += [f"mR@{k}_mean", f"mR@{k}_std"]
    rows = []
    for variant in args.variants:
        cells = [variant, len(seeds)]
        for k in args.k:
            vals = np.array([r["mean_recall"][str(k)] for r in by_variant[variant]])
            std = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
            cells += [float(vals.mean()), std]
        rows.append(cells)
    table_path = os.path.join(exp.out, "ablation.csv")
    _write_csv(table_path, header, rows)
    raw_path = os.path.join(exp.out, "ablation.json")
    _write_json(raw_path, {"seeds": seeds, "results": results})

    files = {os.path.basename(p): _file_sha(p) for p in (table_path, raw_path)}
    _write_manifest(exp.out, "ablate", exp,
                    {"variants": list(args.variants), "seeds": seeds,
                     "k": list(args.k), "constraint": args.constraint}, files)
    for row in rows:
        print("  ".join(str(c) for c in row))
    return EXIT_OK


def cmd_diagnose(exp: ExperimentConfig, args) -> int:
    _ensure_outdir(exp.out)
    data_path = args.data or os.path.join(exp.out, "train.jsonl")
    _require_files(data_path)
    records = read_jsonl(data_path)

    if args.checkpoint:
        model = model_from_checkpoint(_load_checkpoint(args.checkpoint))
    else:
        mcfg = exp.model
        if args.shared:
            mcfg = replace(mcfg, flags=replace(mcfg.flags, decouple=False))
        model = FremureModel(mcfg, nc.Rng(exp.seed).spawn(0))
    _check_compat(records, model.cfg)

    clips = group_clips(records)
    opt = nc.Adam(model.parameters(), exp.train.lr, exp.train.beta1,
                  exp.train.beta2, exp.train.eps)
    root = nc.Rng(exp.seed)
    rows = []
    negative = 0
    for step in range(1, args.steps + 1):
        clip = clips[(step - 1) % len(clips)]
        report = grad_conflict(model, clip, root.spawn(step))
        doc = {"step": step}
        doc.update(report.to_json())
        rows.append(doc)
        negative += sum(1 for v in report.cosines.values() if v < 0)
        # advance one optimization step so later reports see trained weights
        opt.zero_grad()
        total, parts = model.total_loss(clip, root.spawn(10_000 + step),
                                        training=True)
        if not np.isfinite(parts["total"]):
            raise NumericalError(f"non-finite loss at diagnose step {step}")
        total.backward()
        opt.step()

    out_path = os.path.join(exp.out, "diagnose.jsonl")
    with open(out_path, "w") as fh:
        for doc in rows:
            fh.write(_canonical(doc) + "\n")
    _write_manifest(exp.out, "diagnose", exp,
                    {"steps": args.steps, "shared": bool(args.shared),
                     "checkpoint": args.checkpoint, "data": data_path},
                    {os.path.basename(out_path): _file_sha(out_path)})
    if rows and not rows[0]["applicable"]:
        print("decoupled model: gradient conflict not applicable "
              "(zero shared parameters)")
    else:
        print(f"{args.steps} steps, {negative} negative pairwise cosines")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # route argparse's own failures through the validation exit path
    def error(self, message):
        raise ConfigError([message])


def _parse_k(raw: str):
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    try:
        ks = tuple(int(p, 10) for p in parts)
    except ValueError:
        raise ConfigError([f"--k: cannot parse '{raw}' as integers"])
    if not ks or any(k < 1 for k in ks):
        raise ConfigError(["--k needs positive integers"])
    return ks


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fremure",
                     description="Frequency-aware relation model experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_config=True):
        p.add_argument("--config", required=need_config,
                       help="key=value configuration file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=None,
                       help="override the config output directory")

    def add_eval_opts(p):
        p.add_argument("--k", default="10,20,50",
                       help="comma-separated recall cutoffs")
        p.add_argument("--constraint", choices=("with", "no"), default="with",
                       help="single predicate per pair and type when ranking")

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    add_common(p)

    p = sub.add_parser("train", help="train a model on a generated dataset")
    add_common(p)
    add_eval_opts(p)

    p = sub.add_parser("eval", help="score a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="records JSONL path")
    p.add_argument("--out", default="runs")
    p.add_argument("--seed", type=int, default=0)
    add_eval_opts(p)

    p = sub.add_parser("ablate", help="train every ablation variant")
    add_common(p)
    add_eval_opts(p)
    p.add_argument("--variants", default=",".join(VARIANTS),
                   help="comma-separated subset of " + ", ".join(VARIANTS))
    p.add_argument("--seeds-per-variant", type=int, default=5)

    p = sub.add_parser("diagnose", help="per-step gradient conflict report")
    add_common(p)
    p.add_argument("--checkpoint", default=None,
                   help="start from a checkpoint instead of a fresh model")
    p.add_argument("--data", default=None,
                   help="records JSONL (default: <out>/train.jsonl)")
    p.add_argument("--steps", type=int, default=5)
    p.add_argument("--shared", action="store_true",
                   help="force a shared trunk regardless of config flags")
    return parser


def _dispatch(args) -> int:
    if getattr(args, "k", None) is not None:
        args.k = _parse_k(args.k)
    if getattr(args, "constraint", None) is not None:
        args.constraint = args.constraint == "with"
    if getattr(args, "steps", None) is not None and args.steps < 1:
        raise ConfigError(["--steps must be >= 1"])
    if getattr(args, "seeds_per_variant", None) is not None:
        if args.seeds_per_variant < 1:
            raise ConfigError(["--seeds-per-variant must be >= 1"])
    if getattr(args, "variants", None) is not None:
        args.variants = [v.strip() for v in args.variants.split(",") if v.strip()]

    if args.command == "eval":
        return cmd_eval(args)
    exp = load_config(args.config, seed=args.seed, out=args.out)
    if args.command == "gen-data":
        return cmd_gen_data(exp, args)
    if args.command == "train":
        return cmd_train(exp, args)
    if args.command == "ablate":
        return cmd_ablate(exp, args)
    if args.command == "diagnose":
        return cmd_diagnose(exp, args)
    raise ConfigError([f"unknown command '{args.command}'"])


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _dispatch(args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_VALIDATION
    except ContractError as exc:
        print(f"contract error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
