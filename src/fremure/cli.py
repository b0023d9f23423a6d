"""Command-line front end: dataset generation, training, evaluation,
ablation sweeps, and gradient-conflict diagnostics as reproducible runs.

Conventions: gen-data, train and ablate read a plain-text key=value file
(data.*, model.*, train.*, flags.*, plus bare seed/out), which --seed and
--out override; eval and diagnose score a checkpoint's model with its seed,
unless --seed is given. Every output lands under the chosen directory with
a manifest that records the exact configuration, seed, and output hashes
needed to replay the run. Exit codes: 0 success, 1 validation failure,
2 I/O failure, 3 numerical abort.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import multiprocessing
import os
import sys
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import numcore as nc
from .data_metrics import (SyntheticConfig, generate_dataset, read_jsonl,
                           write_jsonl, frequency_stratified_report)
# the benchmark's tracer (bench/tracing.py) wraps this name in this module
from .data_metrics import group_clips  # noqa: F401
from .errors import ConfigError, ContractError, NumericalError
from .freqgate import FrequencyPrior
from .model import (TYPES, AblationFlags, ModelConfig, TrainConfig,
                    checkpoint_dict, clip_split, evaluate, field_types,
                    grad_conflict, model_from_checkpoint, train)

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


_SECTIONS = {"data": SyntheticConfig, "model": ModelConfig,
             "train": TrainConfig, "flags": AblationFlags}
# settable per section: scalar fields only. Flags live in their own section,
# evaluation knobs (ks, constraint) come from command-line options, and the
# model's input width and class counts are those of the data it reads
_EXCLUDED = {("model", "flags"), ("train", "ks"), ("train", "constraint"),
             ("model", "raw_dim"), ("model", "attn_classes"),
             ("model", "spat_classes"), ("model", "cont_classes")}
_TOP_LEVEL = {"seed": int, "out": str}


def _section_fields(section: str) -> dict:
    return {name: kind for name, kind in field_types(_SECTIONS[section]).items()
            if (section, name) not in _EXCLUDED}


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
    model = ModelConfig(raw_dim=data.d, attn_classes=data.attn_classes,
                        spat_classes=data.spat_classes,
                        cont_classes=data.cont_classes,
                        flags=AblationFlags(**overrides["flags"]),
                        **overrides["model"])
    tcfg = TrainConfig(**overrides["train"])

    for section, cfg in (("data", data), ("model", model), ("train", tcfg)):
        problems.extend(f"{section}: {p}" for p in cfg.problems())
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


def _canonical(doc, path: str) -> str:
    """``doc`` as canonical JSON text, bound for the file ``path``. NaN and
    infinities are not JSON, so a non-finite value is a NumericalError that
    names the file instead of a token no JSON reader accepts."""
    try:
        return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                          allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"{path}: not written, non-finite value ({exc})")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_json(path: str, doc):
    # a checkpoint's text is megabytes: encode and write it a chunk at a
    # time instead of holding whole copies of it
    text = _canonical(doc, path)
    with open(path, "wb") as fh:
        for i in range(0, len(text), _WRITE_CHUNK):
            fh.write(text[i:i + _WRITE_CHUNK].encode())
        fh.write(b"\n")


def _file_sha(path: str) -> str:
    with open(path, "rb") as fh:
        return _sha256(fh.read())


def _experiment(exp: ExperimentConfig) -> dict:
    """``exp`` as a manifest records it: the output directory is a location,
    not part of the experiment identity."""
    config = asdict(exp)
    config.pop("out")
    return config


def _write_manifest(outdir: str, command: str, config: dict,
                    options: dict, files: dict) -> str:
    """Write ``<command>_manifest.json``; ``config`` is the configuration
    that ran, seed included."""
    path = os.path.join(outdir, f"{command.replace('-', '_')}_manifest.json")
    doc = {"command": command,
           "seed": config["seed"],
           "config": config,
           "config_sha256": _sha256(_canonical(config, path).encode()),
           "options": options,
           "files": files}
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


def _load_checkpoint(path: str, seed=None) -> tuple:
    """The model of the checkpoint file ``path`` and ``seed``, or the
    checkpoint's own seed when None; a ContractError names the file."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ContractError(f"checkpoint {path} is not valid JSON: {exc}")
    try:
        model = model_from_checkpoint(doc)
    except ContractError as exc:
        raise ContractError(f"{path}: {exc}") from exc
    return model, doc["seed"] if seed is None else seed


def _read_split(path: str, cfg: ModelConfig):
    """The records of the JSONL file ``path`` as their `clip_split` for
    ``cfg``; a ContractError names the file."""
    records = read_jsonl(path)
    try:
        return clip_split(records, cfg)
    except ContractError as exc:
        raise ContractError(f"{path}: {exc}") from exc


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
                 "frequencies": FrequencyPrior(counts[t]).f.tolist()}
             for t in TYPES}
    _write_json(prior_path, prior)
    files = {os.path.basename(p): _file_sha(p)
             for p in (train_path, test_path, prior_path)}
    _write_manifest(exp.out, "gen-data", _experiment(exp), {}, files)
    print(f"wrote {len(train_recs)} train and {len(test_recs)} test records "
          f"to {exp.out}")
    return EXIT_OK


def cmd_train(exp: ExperimentConfig, args) -> int:
    _ensure_outdir(exp.out)
    train_path = os.path.join(exp.out, "train.jsonl")
    test_path = os.path.join(exp.out, "test.jsonl")
    _require_files(train_path, test_path)
    split = _read_split(train_path, exp.model)
    test_split = _read_split(test_path, exp.model)

    tcfg = replace(exp.train, ks=args.k, constraint=args.constraint)
    model, history = train(split, exp.model, tcfg, exp.seed,
                           val_records=test_split)

    header = ["epoch", "L_a", "L_s", "L_c", "reg"] + [f"mR@{k}" for k in tcfg.ks]
    rows = [[row[col] for col in header] for row in history]
    metrics_path = os.path.join(exp.out, "metrics.csv")
    _write_csv(metrics_path, header, rows)

    ckpt_path = os.path.join(exp.out, "checkpoint.json")
    _write_json(ckpt_path, checkpoint_dict(model, tcfg.epochs, exp.seed))

    files = {os.path.basename(p): _file_sha(p) for p in (metrics_path, ckpt_path)}
    _write_manifest(exp.out, "train", _experiment(replace(exp, train=tcfg)),
                    {"k": list(tcfg.ks), "constraint": tcfg.constraint}, files)

    if history:
        # the last epoch's validation scored this model on these records
        # with this seed
        last = history[-1]
        scores = {"mean_recall": {k: last[f"mR@{k}"] for k in tcfg.ks},
                  "recall": {k: last[f"R@{k}"] for k in tcfg.ks}}
    else:
        scores = evaluate(model, test_split, tcfg.ks, tcfg.constraint,
                          seed=exp.seed)
    print(f"final  {_mr_table(scores, tcfg.ks)}")
    return EXIT_OK


def _uncertainty_rows(samples: dict) -> list:
    """One row per record of the ids and aleatoric/epistemic numbers of
    each task head that `evaluate` kept as columns."""
    return [dict(zip(samples, values)) for values in zip(*samples.values())]


def cmd_eval(args) -> int:
    model, seed = _load_checkpoint(args.checkpoint, args.seed)
    split = _read_split(args.data, model.cfg)
    scores = evaluate(model, split, args.k, args.constraint, seed=seed)
    _ensure_outdir(args.out)
    # encoded before any file is written, so a non-finite value leaves none
    samples_path = os.path.join(args.out, "eval_samples.jsonl")
    samples = [_canonical(row, samples_path) + "\n"
               for row in _uncertainty_rows(scores["samples"])]
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

    with open(samples_path, "w") as fh:
        fh.writelines(samples)

    files = {os.path.basename(p): _file_sha(p)
             for p in (report_path, csv_path, samples_path)}
    _write_manifest(args.out, "eval", {"model": asdict(model.cfg), "seed": seed},
                    {"checkpoint": args.checkpoint, "data": args.data,
                     "k": list(args.k), "constraint": args.constraint}, files)
    print(_mr_table(scores, args.k))
    return EXIT_OK


def _ablate_one(job: dict) -> dict:
    """Train and score one (variant, seed) cell; runs in a worker process."""
    tcfg = job["train"]
    model, _ = train(job["train_split"], job["model"], tcfg, job["seed"])
    scores = evaluate(model, job["test_split"], tcfg.ks, tcfg.constraint,
                      seed=job["seed"])
    return {"variant": job["variant"], "seed": job["seed"],
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

    seeds = [exp.seed + i for i in range(args.seeds_per_variant)]
    # every variant keeps the data's widths, so one split serves them all
    split = _read_split(train_path, exp.model)
    test_split = _read_split(test_path, exp.model)

    tcfg = replace(exp.train, ks=args.k, constraint=args.constraint)
    jobs = []
    for variant in args.variants:
        mcfg = replace(exp.model, flags=replace(AblationFlags(), **VARIANTS[variant]))
        for seed in seeds:
            jobs.append({"variant": variant, "seed": seed, "model": mcfg,
                         "train": tcfg, "train_split": split,
                         "test_split": test_split})

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
    _write_manifest(exp.out, "ablate", _experiment(replace(exp, train=tcfg)),
                    {"variants": list(args.variants), "seeds": seeds,
                     "k": list(args.k), "constraint": args.constraint}, files)
    for row in rows:
        print("  ".join(str(c) for c in row))
    return EXIT_OK


def cmd_diagnose(args) -> int:
    model, seed = _load_checkpoint(args.checkpoint, args.seed)
    split = _read_split(args.data, model.cfg)
    clips = [split.view(i, i + 1) for i in range(len(split))]
    # clip i draws from the stream `predict_clips` gives it
    root = nc.Rng(seed)
    with np.errstate(all="ignore"):
        reports = [grad_conflict(model, clip, root.spawn(i)) for i, clip in enumerate(clips)]
    for clip, report in zip(clips, reports):
        if not np.isfinite(list(report.cosines.values())).all():
            raise NumericalError(f"clip {clip.clip[0]}: non-finite gradient cosine")
    out_path = os.path.join(args.out, "diagnose.jsonl")
    lines = [_canonical(dict(clip=int(clip.clip[0]), **asdict(report)), out_path) + "\n"
             for clip, report in zip(clips, reports)]
    _ensure_outdir(args.out)
    with open(out_path, "w") as fh:
        fh.writelines(lines)
    _write_manifest(args.out, "diagnose", {"model": asdict(model.cfg), "seed": seed},
                    {"checkpoint": args.checkpoint, "data": args.data},
                    {os.path.basename(out_path): _file_sha(out_path)})
    if reports[0].applicable:
        negative = sum(v < 0 for r in reports for v in r.cosines.values())
        print(f"{len(reports)} clips over {reports[0].shared_params} shared "
              f"parameters, {negative} negative pairwise cosines")
    else:
        print("decoupled model: gradient conflict not applicable "
              "(zero shared parameters)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # route argparse's own failures through the validation exit path
    def error(self, message):
        raise ConfigError([message])


# The ``type=`` parsers below raise ArgumentTypeError: argparse reports its text
# ("argument --k: ..."), where it would hide a ValueError's (a ConfigError is one)

def _option_list(raw: str, kind: type = str) -> list:
    """The comma-separated values of ``raw`` as ``kind``, when there is at
    least one and none repeats."""
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    try:
        values = [kind(p) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse '{raw}' as {kind.__name__} values")
    if not values:
        raise argparse.ArgumentTypeError(f"no value in '{raw}'")
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise argparse.ArgumentTypeError(f"{repeated[0]!r} is given more than once")
    return values


def _k_option(raw: str) -> tuple:
    ks = tuple(_option_list(raw, int))
    if any(k < 1 for k in ks):
        raise argparse.ArgumentTypeError("needs positive integers")
    return ks


def _variants_option(raw: str) -> list:
    variants = _option_list(raw)
    unknown = [v for v in variants if v not in VARIANTS]
    if unknown:
        raise argparse.ArgumentTypeError(
            "; ".join(f"unknown variant '{v}'" for v in unknown))
    return variants


def _count_option(raw: str) -> int:
    try:
        count = int(raw, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse '{raw}' as int")
    if count < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fremure",
                     description="Frequency-aware relation model experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True,
                       help="key=value configuration file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=None,
                       help="override the config output directory")

    def add_scoring(p):
        p.add_argument("--checkpoint", required=True,
                       help="checkpoint JSON written by train")
        p.add_argument("--data", required=True, help="records JSONL path")
        p.add_argument("--out", default="runs", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="sampling seed (default: the checkpoint's)")

    def add_eval_opts(p):
        p.add_argument("--k", type=_k_option, default=TrainConfig.ks,
                       help="comma-separated recall cutoffs")
        p.add_argument("--constraint", choices=("with", "no"),
                       default="with" if TrainConfig.constraint else "no",
                       help="single predicate per pair and type when ranking")

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    add_common(p)

    p = sub.add_parser("train", help="train a model on a generated dataset")
    add_common(p)
    add_eval_opts(p)

    p = sub.add_parser("eval", help="score a checkpoint on a dataset")
    add_scoring(p)
    add_eval_opts(p)

    p = sub.add_parser("ablate", help="train every ablation variant")
    add_common(p)
    add_eval_opts(p)
    p.add_argument("--variants", type=_variants_option, default=list(VARIANTS),
                   help="comma-separated subset of " + ", ".join(VARIANTS))
    p.add_argument("--seeds-per-variant", type=_count_option, default=5)

    p = sub.add_parser("diagnose",
                       help="per-clip gradient conflict of a checkpoint")
    add_scoring(p)
    return parser


def _dispatch(args) -> int:
    if getattr(args, "constraint", None) is not None:
        args.constraint = args.constraint == "with"

    if args.command == "eval":
        return cmd_eval(args)
    if args.command == "diagnose":
        return cmd_diagnose(args)
    exp = load_config(args.config, seed=args.seed, out=args.out)
    if args.command == "gen-data":
        return cmd_gen_data(exp, args)
    if args.command == "train":
        return cmd_train(exp, args)
    if args.command == "ablate":
        return cmd_ablate(exp, args)
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
