"""Output checks for the benchmark's workloads.

Each check returns a list of problems; an empty list means the outputs are
correct. Files are parsed here with the standard library, not with the
program's readers. Recalls are recomputed with ``oracle`` from scores that
the reloaded checkpoint gives under ``no_grad``.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from oracle import frames_from_scores, recalls

TYPES = ("attn", "spat", "cont")
EXACT = 1e-12       # recall recomputed from the same scores
PROB = 1e-9         # probability sums and entropy bounds


def read_jsonl(path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# generated data
# ---------------------------------------------------------------------------

def check_dataset(outdir: str, data: dict) -> list:
    """Record counts, label shapes and prior counts of one gen-data run."""
    problems = []
    per_clip = data["frames"] * data["pairs"]
    widths = {t: data[f"{t}_classes"] for t in TYPES}
    counts = {t: [0] * widths[t] for t in TYPES}
    for split, clips in (("train", data["clips"]), ("test", data["test_clips"])):
        records = read_jsonl(os.path.join(outdir, f"{split}.jsonl"))
        if len(records) != clips * per_clip:
            problems.append(f"{split}.jsonl has {len(records)} records, "
                            f"expected {clips * per_clip}")
        for i, rec in enumerate(records):
            where = f"{split}.jsonl record {i}"
            if not 0 <= rec["attn"] < widths["attn"]:
                problems.append(f"{where}: attention label {rec['attn']} out of range")
            for t in ("spat", "cont"):
                bits = rec[t]
                if len(bits) != widths[t] or set(bits) - {0, 1} \
                        or not 1 <= sum(bits) <= 2:
                    problems.append(f"{where}: {t} bits {bits} are not one or two "
                                    f"of {widths[t]}")
            if len(rec["feat"]) != data["d"]:
                problems.append(f"{where}: feature width {len(rec['feat'])}")
            if split == "train":
                counts["attn"][rec["attn"]] += 1
                for t in ("spat", "cont"):
                    for c, bit in enumerate(rec[t]):
                        counts[t][c] += bit
    prior = read_json(os.path.join(outdir, "prior.json"))
    for t in TYPES:
        if [float(c) for c in counts[t]] != [float(c) for c in prior[t]["counts"]]:
            problems.append(f"prior.json {t} counts {prior[t]['counts']} != "
                            f"counts from train.jsonl {counts[t]}")
    return problems[:20]


# ---------------------------------------------------------------------------
# recall tables
# ---------------------------------------------------------------------------

def check_recall_table(table: dict, label: str, slots: int) -> list:
    """Recalls in [0, 1], not decreasing in K, and equal from K = slots on.
    `table` maps K (int) to a recall."""
    problems = []
    ks = sorted(table)
    for k in ks:
        if not (isinstance(table[k], float) and 0.0 <= table[k] <= 1.0):
            problems.append(f"{label}@{k} = {table[k]!r} is not in [0, 1]")
    for a, b in zip(ks, ks[1:]):
        if table[b] < table[a]:
            problems.append(f"{label}@{b} = {table[b]} < {label}@{a} = {table[a]}")
    full = [k for k in ks if k >= slots]
    if any(table[k] != table[full[0]] for k in full):
        problems.append(f"{label} differs between K values at or above the "
                        f"{slots} constraint slots: {[table[k] for k in full]}")
    return problems


def compare_recalls(expected: dict, got: dict, label: str) -> list:
    """`got` (from a program output) against the oracle's values."""
    problems = []
    for k, value in got.items():
        if abs(value - expected[k]) > EXACT:
            problems.append(f"{label}@{k}: output {value!r} != oracle {expected[k]!r}")
    return problems


def keyed(table: dict) -> dict:
    return {int(k): v for k, v in table.items()}


# ---------------------------------------------------------------------------
# scoring with the program's model
# ---------------------------------------------------------------------------

class Scored:
    """Scores, attention entropies and oracle recalls of one model over one
    record file, in the order the program scores clips."""

    def __init__(self, fm, model, records_path: str, seed: int, ks, slots: int):
        docs = read_jsonl(records_path)
        byclip = {}
        for doc in docs:
            byclip.setdefault(doc["clip"], []).append(doc)
        self.records, self.rows, self.attn_entropy = [], [], []
        root = fm.numcore.Rng(seed)
        with fm.numcore.no_grad():
            for ci, cid in enumerate(sorted(byclip)):
                clip = sorted(byclip[cid], key=lambda r: (r["frame"], r["subj"], r["obj"]))
                recs = [fm.data_metrics.TripletRecord.from_json(r) for r in clip]
                out = model.forward(recs, root.spawn(ci), training=False)
                probs = {t: out["probs"][t].data for t in TYPES}
                self.records.extend(clip)
                self.rows.extend({t: probs[t][i] for t in TYPES} for i in range(len(clip)))
                self.attn_entropy.extend(out["reports"]["attn"].epistemic_rows.tolist())
        cfg = model.cfg
        self.attn_classes = cfg.attn_classes
        offsets = {"attn": 0, "spat": cfg.attn_classes,
                   "cont": cfg.attn_classes + cfg.spat_classes}
        types = [0] * cfg.attn_classes + [1] * cfg.spat_classes + [2] * cfg.cont_classes
        frames = frames_from_scores(self.records, self.rows, offsets)
        self.ks = sorted(set(ks) | {slots})
        self.slots = slots
        self.oracle = recalls(frames, self.ks, True, types)

    def problems(self) -> list:
        """Properties of the method on these scores."""
        out = []
        for name in ("recall", "mean_recall"):
            out += check_recall_table(self.oracle[name], f"oracle {name}", self.slots)
        sums = np.array([row["attn"].sum() for row in self.rows])
        worst = float(np.abs(sums - 1.0).max())
        if worst > PROB:
            out.append(f"attention probabilities sum to 1 only within {worst:.3g}")
        for t in TYPES:
            lo = min(float(row[t].min()) for row in self.rows)
            hi = max(float(row[t].max()) for row in self.rows)
            if lo < 0.0 or hi > 1.0:
                out.append(f"{t} probabilities leave [0, 1]: [{lo}, {hi}]")
        out += check_entropy(self.attn_entropy, self.attn_classes, "attention entropy")
        return out


def check_entropy(values, classes: int, label: str) -> list:
    values = np.asarray(values, dtype=np.float64)
    top = math.log(classes)
    if values.size == 0 or not np.isfinite(values).all():
        return [f"{label}: missing or non-finite values"]
    if values.min() < -PROB or values.max() > top + PROB:
        return [f"{label} outside [0, log {classes}]: "
                f"[{values.min()}, {values.max()}]"]
    return []


def load_model(fm, checkpoint_path: str):
    return fm.model.model_from_checkpoint(read_json(checkpoint_path))


# ---------------------------------------------------------------------------
# command outputs
# ---------------------------------------------------------------------------

def check_train(outdir: str, scored: Scored, epochs: int, ks) -> tuple:
    """metrics.csv of `fremure train` in `outdir`, against the oracle's
    recalls of its checkpoint. Returns (problems, last mR@10)."""
    rows = read_csv(os.path.join(outdir, "metrics.csv"))
    header = ["epoch", "L_a", "L_s", "L_c", "reg"] + [f"mR@{k}" for k in ks]
    if rows[0] != header:
        return [f"metrics.csv header {rows[0]} != {header}"], None
    if len(rows) != epochs + 1:
        return [f"metrics.csv has {len(rows) - 1} epochs, expected {epochs}"], None
    problems = []
    for row in rows[1:]:
        values = dict(zip(header, row))
        for name in ("L_a", "L_s", "L_c"):
            v = float(values[name])
            if not (math.isfinite(v) and v > 0.0):
                problems.append(f"epoch {values['epoch']}: loss {name} = {v}")
        reg = float(values["reg"])
        if not (math.isfinite(reg) and reg >= 0.0):
            problems.append(f"epoch {values['epoch']}: regularizer = {reg}")
        table = {k: float(values[f"mR@{k}"]) for k in ks}
        problems += check_recall_table(table, f"epoch {values['epoch']} mR",
                                       scored.slots)
    last = {k: float(v) for k, v in zip(ks, rows[-1][5:])}
    problems += compare_recalls(scored.oracle["mean_recall"], last, "metrics.csv mR")
    problems += scored.problems()
    return problems, last[10]


def check_eval(outdir: str, scored: Scored, ks) -> tuple:
    """eval_report.json and eval_samples.jsonl of `fremure eval`. Returns
    (problems, mR@10)."""
    report = read_json(os.path.join(outdir, "eval_report.json"))
    problems = []
    if report["k"] != list(ks) or report["constraint"] is not True:
        problems.append(f"eval_report.json k={report['k']} "
                        f"constraint={report['constraint']}")
    for name in ("recall", "mean_recall"):
        table = keyed(report[name])
        problems += check_recall_table(table, f"eval {name}", scored.slots)
        problems += compare_recalls(scored.oracle[name], table, f"eval {name}")
    samples = read_jsonl(os.path.join(outdir, "eval_samples.jsonl"))
    keys = [(r["clip"], r["frame"], r["subj"], r["obj"]) for r in scored.records]
    if [(s["clip"], s["frame"], s["subj"], s["obj"]) for s in samples] != keys:
        problems.append("eval_samples.jsonl rows do not match the scored records")
    problems += check_entropy([s["attn_epistemic"] for s in samples],
                              scored.attn_classes, "eval_samples attention entropy")
    problems += scored.problems()
    return problems, report["mean_recall"]["10"]


def check_ablation(outdir: str, variants, seeds: int, ks, slots: int) -> tuple:
    """ablation.csv against ablation.json. Returns (problems, mean of the
    mR@10_mean column, the per-seed results)."""
    raw = read_json(os.path.join(outdir, "ablation.json"))
    rows = read_csv(os.path.join(outdir, "ablation.csv"))
    problems = []
    header = ["variant", "seeds"]
    for k in ks:
        header += [f"mR@{k}_mean", f"mR@{k}_std"]
    if rows[0] != header:
        return [f"ablation.csv header {rows[0]} != {header}"], None, raw
    if [r[0] for r in rows[1:]] != list(variants):
        return [f"ablation.csv variants {[r[0] for r in rows[1:]]}"], None, raw
    if len(raw["results"]) != len(variants) * seeds:
        problems.append(f"ablation.json has {len(raw['results'])} results")
    for cell in raw["results"]:
        label = f"{cell['variant']} seed {cell['seed']}"
        for name in ("recall", "mean_recall"):
            problems += check_recall_table(keyed(cell[name]), f"{label} {name}", slots)
    for row in rows[1:]:
        cells = dict(zip(header, row))
        if int(cells["seeds"]) != seeds:
            problems.append(f"{row[0]}: seeds column {cells['seeds']}")
        for k in ks:
            vals = np.array([c["mean_recall"][str(k)] for c in raw["results"]
                             if c["variant"] == row[0]])
            std = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
            for name, want in ((f"mR@{k}_mean", float(vals.mean())),
                               (f"mR@{k}_std", std)):
                if abs(float(cells[name]) - want) > EXACT:
                    problems.append(f"{row[0]} {name}: table {cells[name]} != "
                                    f"recomputed {want!r}")
    mr10 = float(np.mean([float(r[2]) for r in rows[1:]]))
    return problems, mr10, raw
