"""Benchmark of the fremure command line, one workload per run.

    python3 bench/run.py --workload train-d64 --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is used from ``src/`` of the same
checkout. A run prepares the workload's data with ``fremure gen-data`` (and
``fremure train`` where a checkpoint is needed), then repeats whole rounds
of the workload's commands, each in its own process, until ``--seconds``
have passed. Every command's outputs are checked (``checks.py``); a command
that exits non-zero or fails a check counts as a failed operation.

``--trace 0`` prints the end-to-end metrics: medians over the rounds,
measured from outside the command's process. ``--trace 1`` also runs the
workload's main command once in this process with every layer wrapped
(``tracing.py``) and prints the per-layer metrics instead. The last line of
standard output is the result as one JSON object; the full record, with the
environment, every sample and the spans, goes to ``bench/results/``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "runs")
RESULTS = os.path.join(HERE, "results")
KS = (10, 20, 50)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# default data: 100 + 25 clips x 4 frames x 5 pairs, 10/6/16 classes, d=16
DEFAULT_DATA = {"attn_classes": 10, "spat_classes": 6, "cont_classes": 16,
                "d": 16, "clips": 100, "test_clips": 25, "frames": 4, "pairs": 5}

# criterion 6's model, with the margin multi-label loss
D16_MODEL = {"model.d": 16, "model.h": 2, "model.window_w": 2,
             "model.window_s": 1, "model.multilabel_loss": "margin",
             "train.lr": 0.003}

ABLATE_VARIANTS = ("full+bayes", "full+gmm", "no-decouple", "no-frequency",
                   "no-dual-branch")


class BenchError(Exception):
    """The benchmark cannot run here (no program, or a preparation failed)."""


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Config files, preparation commands and the round of timed commands.

    ``configs`` maps a config file name to (data settings, extra config
    lines). ``prepare`` lists (label, argv); ``round`` lists (label, argv)
    and the first entry of a round is the workload's main command.
    ``rate`` names the throughput metric each command gives, with its unit
    count (clip-steps or records).
    """

    name = ""

    def __init__(self, run_dir: str, seed: int):
        self.dir = run_dir
        self.seed = seed

    def path(self, *parts) -> str:
        return os.path.join(self.dir, *parts)

    def write_configs(self):
        for fname, (data, extra) in self.configs().items():
            lines = [f"data.{k} = {v}" for k, v in data.items()]
            lines += [f"{k} = {v}" for k, v in extra.items()]
            with open(self.path(fname), "w") as fh:
                fh.write("\n".join(lines) + "\n")

    def common(self, config: str, out: str) -> list:
        return ["--config", self.path(config), "--seed", str(self.seed),
                "--out", self.path(out)]

    def eval_argv(self, checkpoint: str, data: str, out: str) -> list:
        return ["eval", "--checkpoint", self.path(checkpoint),
                "--data", self.path(data), "--out", self.path(out),
                "--seed", str(self.seed), "--k", ",".join(map(str, KS)),
                "--constraint", "with"]


class TrainD64(Workload):
    """Default data, default model (d=64, h=4, decoupled, gmm_plus, bce).
    A round trains for two epochs, then evaluates the new checkpoint on the
    2000 training records: an eval of the 500 test records takes under a
    second and swings with the host more than any other sample."""

    name = "train-d64"
    epochs = 2

    def configs(self):
        return {"train.cfg": (DEFAULT_DATA, {"train.epochs": self.epochs})}

    def prepare(self):
        return [("gen-data", ["gen-data"] + self.common("train.cfg", "data"))]

    def round(self):
        return [("train", ["train"] + self.common("train.cfg", "data")),
                ("eval", self.eval_argv("data/checkpoint.json", "data/train.jsonl",
                                        "eval"))]

    def rate(self, label):
        d = DEFAULT_DATA
        if label == "train":
            return "train_clips_per_s", self.epochs * d["clips"]
        return "eval_records_per_s", d["clips"] * d["frames"] * d["pairs"]


class AblateD16(Workload):
    """All five ablation variants, two seeds each, at criterion 6's model
    (d=16, h=2, window 2/1, lr 3e-3) with the margin loss, on 10 training
    clips for one epoch. A round runs the sweep, then evaluates twice a d=16
    checkpoint trained once during preparation."""

    name = "ablate-d16"
    seeds = 2
    epochs = 1
    data = dict(DEFAULT_DATA, clips=10, test_clips=10)

    def configs(self):
        return {"ablate.cfg": (self.data, dict(D16_MODEL, **{"train.epochs": self.epochs}))}

    def prepare(self):
        return [("gen-data", ["gen-data"] + self.common("ablate.cfg", "data")),
                ("train", ["train"] + self.common("ablate.cfg", "data"))]

    def round(self):
        evaluate = ("eval", self.eval_argv("data/checkpoint.json", "data/test.jsonl",
                                           "eval"))
        return [("ablate", ["ablate"] + self.common("ablate.cfg", "data")
                 + ["--seeds-per-variant", str(self.seeds),
                    "--variants", ",".join(ABLATE_VARIANTS)]),
                evaluate, evaluate]

    def rate(self, label):
        d = self.data
        if label == "ablate":
            steps = len(ABLATE_VARIANTS) * self.seeds * self.epochs * d["clips"]
            return "train_clips_per_s", steps
        return "eval_records_per_s", d["test_clips"] * d["frames"] * d["pairs"]


class EvalDense(Workload):
    """`fremure eval` of a d=64 checkpoint over 60 test clips of 8 frames x
    10 pairs (4800 records, 30 constraint slots per frame). Preparation
    generates the test split and, from the same seed and class layout,
    default-shaped training data, and trains the checkpoint on it for three
    epochs. Each round also runs a one-epoch `train` on 40 default-shaped
    clips, which gives this workload's train_clips_per_s."""

    name = "eval-dense"
    epochs = 3
    train_data = dict(DEFAULT_DATA, test_clips=5)
    test_data = dict(DEFAULT_DATA, frames=8, pairs=10, clips=1, test_clips=60)
    warm_data = dict(DEFAULT_DATA, clips=40, test_clips=2)

    def configs(self):
        return {"ckpt.cfg": (self.train_data, {"train.epochs": self.epochs}),
                "test.cfg": (self.test_data, {}),
                "warm.cfg": (self.warm_data, {"train.epochs": 1})}

    def prepare(self):
        return [("gen-data", ["gen-data"] + self.common("ckpt.cfg", "ckpt")),
                ("gen-data", ["gen-data"] + self.common("test.cfg", "test")),
                ("gen-data", ["gen-data"] + self.common("warm.cfg", "warm")),
                ("train", ["train"] + self.common("ckpt.cfg", "ckpt"))]

    def round(self):
        return [("eval", self.eval_argv("ckpt/checkpoint.json", "test/test.jsonl",
                                        "eval")),
                ("train", ["train"] + self.common("warm.cfg", "warm"))]

    def rate(self, label):
        d = self.test_data
        if label == "eval":
            return "eval_records_per_s", d["test_clips"] * d["frames"] * d["pairs"]
        return "train_clips_per_s", self.warm_data["clips"]


WORKLOADS = {w.name: w for w in (TrainD64, AblateD16, EvalDense)}


# ---------------------------------------------------------------------------
# running the program
# ---------------------------------------------------------------------------

def command_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC, FREMURE_THREADS="1")


def run_command(argv, log_path: str) -> dict:
    """One `fremure` command in its own process: wall time, peak RSS, exit."""
    with open(log_path, "ab") as log:
        log.write(("$ fremure " + " ".join(argv) + "\n").encode())
        log.flush()
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "fremure"] + list(argv),
                                cwd=ROOT, env=command_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "exit": proc.returncode}


def import_program():
    """The fremure package of this checkout, imported in this process."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import fremure.cli  # noqa: F401  (loads every layer)
    import fremure
    if os.path.dirname(os.path.abspath(fremure.__file__)) != os.path.join(SRC, "fremure"):
        raise BenchError(f"fremure imported from {fremure.__file__}, not {SRC}")
    return fremure


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "thread_vars": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
            "FREMURE_THREADS": "1"}


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# output checks per command
# ---------------------------------------------------------------------------

class Checker:
    """Checks each command's outputs. A command whose output files are
    byte-identical to ones that already passed is not checked again."""

    def __init__(self, work: Workload, fm):
        self.work = work
        self.fm = fm
        self.passed = {}      # (label, digest) -> mR@10
        self.scored = {}      # (checkpoint digest, records path) -> Scored

    def scored_for(self, checkpoint: str, records: str, slots: int):
        import checks
        key = (digest([checkpoint]), records)
        if key not in self.scored:
            model = checks.load_model(self.fm, checkpoint)
            self.scored[key] = checks.Scored(self.fm, model, records,
                                             self.work.seed, KS, slots)
        return self.scored[key]

    def outputs(self, label, argv) -> list:
        out = argv[argv.index("--out") + 1]
        names = {"gen-data": ("train.jsonl", "test.jsonl", "prior.json"),
                 "train": ("metrics.csv", "checkpoint.json", "train_manifest.json"),
                 "eval": ("eval_report.json", "eval_report.csv",
                          "eval_samples.jsonl", "eval_manifest.json"),
                 "ablate": ("ablation.csv", "ablation.json", "ablate_manifest.json")}
        return [os.path.join(out, n) for n in names[label]]

    def check(self, label, argv) -> tuple:
        """(problems, mR@10 or None) for the outputs `argv` just wrote."""
        import checks
        try:
            key = (label, digest(self.outputs(label, argv)))
        except OSError as exc:
            return [f"{label}: missing output: {exc}"], None
        if key in self.passed:
            return [], self.passed[key]
        out = argv[argv.index("--out") + 1]
        config = self.config_of(argv)
        slots = self.slots_of(config)
        if label == "gen-data":
            problems, mr10 = checks.check_dataset(out, config), None
        elif label == "train":
            scored = self.scored_for(os.path.join(out, "checkpoint.json"),
                                     os.path.join(out, "test.jsonl"), slots)
            epochs = self.work.configs()[self.config_name(argv)][1]["train.epochs"]
            problems, mr10 = checks.check_train(out, scored, epochs, KS)
        elif label == "eval":
            checkpoint = argv[argv.index("--checkpoint") + 1]
            records = argv[argv.index("--data") + 1]
            slots = self.slots_of(self.data_of(records))
            problems, mr10 = checks.check_eval(out, self.scored_for(checkpoint, records,
                                                                    slots), KS)
        else:
            problems, mr10 = self.check_ablate(out, config, slots)
        if not problems:
            self.passed[key] = mr10
        return [f"{label}: {p}" for p in problems], mr10

    @staticmethod
    def config_name(argv) -> str:
        return os.path.basename(argv[argv.index("--config") + 1])

    def config_of(self, argv) -> dict:
        """Data settings of the config file a command was given."""
        if "--config" not in argv:
            return {}
        return self.work.configs()[self.config_name(argv)][0]

    def data_of(self, records_path: str) -> dict:
        out = os.path.basename(os.path.dirname(records_path))
        for label, argv in self.work.prepare():
            if label == "gen-data" and os.path.basename(
                    argv[argv.index("--out") + 1]) == out:
                return self.config_of(argv)
        raise BenchError(f"no gen-data command writes {records_path}")

    @staticmethod
    def slots_of(data: dict) -> int:
        return data.get("pairs", 0) * 3

    def check_ablate(self, out, data, slots) -> tuple:
        """The table against its raw results, and one cell (full+bayes, first
        seed) retrained here with the public API and scored by the oracle."""
        import checks
        problems, mr10, raw = checks.check_ablation(out, ABLATE_VARIANTS,
                                                    self.work.seeds, KS, slots)
        if problems:
            return problems, mr10
        fm = self.fm
        exp = fm.cli.load_config(self.work.path("ablate.cfg"), seed=self.work.seed)
        flags = replace(fm.model.AblationFlags(), **fm.cli.VARIANTS["full+bayes"])
        tcfg = replace(exp.train, ks=KS, constraint=True)
        train_recs = fm.data_metrics.read_jsonl(os.path.join(out, "train.jsonl"))
        model, _ = fm.model.train(train_recs, replace(exp.model, flags=flags),
                                  tcfg, self.work.seed)
        scored = checks.Scored(fm, model, os.path.join(out, "test.jsonl"),
                               self.work.seed, KS, slots)
        cell = next(c for c in raw["results"]
                    if c["variant"] == "full+bayes" and c["seed"] == self.work.seed)
        for name in ("recall", "mean_recall"):
            problems += checks.compare_recalls(
                scored.oracle[name], checks.keyed(cell[name]),
                f"ablation.json full+bayes {name}")
        return problems + scored.problems(), mr10


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def traced_command(fm, argv, log_path: str) -> tuple:
    """`fremure <argv>` in this process under a Tracer: (tracer, wall s,
    exit code)."""
    from tracing import Tracer
    tracer = Tracer(training=argv[0] != "eval").install(fm)
    try:
        with open(log_path, "a") as log, contextlib.redirect_stdout(log), \
                contextlib.redirect_stderr(log):
            t0 = time.perf_counter()
            code = fm.cli.main(list(argv))
            wall = time.perf_counter() - t0
    finally:
        tracer.remove()
    return tracer, wall, code


def median(values):
    return statistics.median(values) if values else 0.0


def shares(tracer, wall: float) -> dict:
    """Shares of the traced command's wall time that the README quotes."""
    spans = tracer.spans
    top = [row for row in spans
           if row[3] is not None and spans[row[3]][0] == "cli.main"]

    def top_total(name):
        return sum(e - s for n, s, e, _ in top if n == name)

    last_eval = [e - s for n, s, e, _ in top if n == "model.evaluate"]
    return {"cli_evaluate_after_train": (last_eval[-1] / wall) if last_eval else 0.0,
            "uncertainty_rows": tracer.total("cli.uncertainty_rows") / wall,
            "read_jsonl": tracer.total("data_metrics.read_jsonl") / wall,
            "checkpoint_dict": top_total("model.checkpoint_dict") / wall,
            "cli_self": tracer.cli_self_s() / wall}


def run(args) -> dict:
    if not os.path.isfile(os.path.join(SRC, "fremure", "cli.py")):
        raise BenchError(f"no program to benchmark: {SRC}/fremure is missing")
    seed = args.seed % 2**31
    run_dir = os.path.join(RUNS, f"{args.workload}-seed{seed}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    os.makedirs(RESULTS, exist_ok=True)
    log_path = os.path.join(run_dir, "commands.log")
    work = WORKLOADS[args.workload](run_dir, seed)
    work.write_configs()

    attempted = failed = 0
    problems = []
    samples = {}          # metric -> values
    setup = []
    for label, argv in work.prepare():
        res = run_command(argv, log_path)
        setup.append(dict(res, command=label))
        if res["exit"] != 0:
            raise BenchError(f"preparation `fremure {argv[0]}` exited {res['exit']}; "
                             f"see {log_path}")
    setup_s = time.perf_counter() - T_START

    fm = import_program()
    checker = Checker(work, fm)
    mr10 = None

    main_label = work.round()[0][0]

    def account(label, argv, res, main=False):
        nonlocal attempted, failed, mr10
        attempted += 1
        found, value = checker.check(label, argv) if res["exit"] == 0 else \
            ([f"{label}: exit {res['exit']}"], None)
        if found:
            failed += 1
            problems.extend(found)
        elif main and mr10 is None:
            mr10 = value

    for (label, argv), res in zip(work.prepare(), setup):
        account(label, argv, res)
    walls = []
    loop_start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - loop_start < args.seconds:
        for i, (label, argv) in enumerate(work.round()):
            res = run_command(argv, log_path)
            metric, units = work.rate(label)
            samples.setdefault(metric, []).append(units / res["wall_s"])
            if i == 0:
                walls.append(res["wall_s"])
                samples.setdefault("peak_rss_mb", []).append(res["peak_rss_mb"])
            account(label, argv, res, main=i == 0)
        rounds += 1

    result_metrics = {}
    detail = {}
    if args.trace:
        main_argv = work.round()[0][1]
        gen_totals = {"data_metrics.generate_dataset_s": 0.0,
                      "data_metrics.write_jsonl_s": 0.0}
        for i, (label, argv) in enumerate(work.prepare()):
            if label != "gen-data":
                continue
            copy = list(argv)
            copy[copy.index("--out") + 1] = os.path.join(run_dir, f"traced-gen-{i}")
            gen, _, code = traced_command(fm, copy, log_path)
            account(label, copy, {"exit": code})
            gen_totals["data_metrics.generate_dataset_s"] += \
                gen.total("data_metrics.generate_dataset")
            gen_totals["data_metrics.write_jsonl_s"] += \
                gen.total("data_metrics.write_jsonl")
        tracer, traced_wall, code = traced_command(fm, main_argv, log_path)
        account(main_label, main_argv, {"exit": code}, main=True)
        layer = tracer.metrics()
        layer.update(gen_totals)
        layer["trace.wall_s"] = traced_wall
        layer["trace.untraced_wall_s"] = median(walls)
        units = {m["name"]: m["unit"] for m in bench_spec()["per_layer"]}
        result_metrics = {name: {"value": layer[name], "unit": unit}
                          for name, unit in units.items()}
        detail = {"calls": tracer.calls, "scoped": tracer.scoped,
                  "shares": shares(tracer, traced_wall),
                  "spans": tracer.span_dump()}
    else:
        values = {
            "setup_s": setup_s,
            "train_clips_per_s": median(samples["train_clips_per_s"]),
            "eval_records_per_s": median(samples["eval_records_per_s"]),
            "peak_rss_mb": median(samples["peak_rss_mb"]),
            "mean_recall_at_10": mr10 if mr10 is not None else 0.0,
        }
        units = {m["name"]: m["unit"] for m in bench_spec()["end_to_end"]}
        result_metrics = {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": result_metrics}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "rounds": rounds,
              "environment": environment(), "setup": setup,
              "samples": samples, "main_walls_s": walls,
              "problems": problems, "result": result, "trace_detail": detail}
    name = f"{args.workload}-seed{seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"environment": record["environment"]}))
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return result


def bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, HERE)
    os.environ["FREMURE_THREADS"] = "1"     # also for the traced, in-process runs
    try:
        result = run(args)
    except BenchError as exc:
        print(f"bench error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
