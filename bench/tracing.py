"""In-process tracing of one fremure command, from the benchmark's side.

``Tracer.install`` wraps the public functions of each layer (numcore,
freqgate, dpeg, heads, model, data_metrics, cli) in the module namespace
that calls them: ``model`` and ``cli`` bind several names with
``from .x import y``, so patching only the defining module would miss
their calls. ``Tracer.remove`` puts every original back.

Each wrapped call outside numcore's elementwise and tensor ops is kept as a
span (name, start, end, parent span). The ops themselves are only counted
and timed, per op kind, which keeps a step's few hundred op calls cheap.

A *unit* is what per-step figures divide by. On a training command it is
one optimizer step (``Adam.step``), and only ops issued inside
``FremureModel.total_loss`` count toward it, so validation passes are left
out. On a command that does not train, a unit is one
``FremureModel.forward`` call and ops inside any forward count.
"""

from __future__ import annotations

import statistics
import time

OPS = ("add", "sub", "mul", "div", "neg", "pow_", "matmul", "affine", "stack",
       "exp", "log", "sqrt", "maximum", "relu", "sigmoid", "softplus", "sum_",
       "mean", "reshape", "transpose", "concat", "getitem", "softmax",
       "log_softmax", "log_sum_exp", "layer_norm", "split_heads",
       "merge_heads", "attention")
REPORTED_OPS = ("affine", "attention", "layer_norm", "stack", "getitem",
                "concat", "sigmoid", "softplus", "log_sum_exp", "add", "mul")


def _targets(fm):
    """(namespace, attribute, span name) for every wrapped call site."""
    nc, dpeg, heads, model = fm.numcore, fm.dpeg, fm.heads, fm.model
    dm, fg, cli = fm.data_metrics, fm.freqgate, fm.cli
    out = [(nc, op, f"numcore.{op}") for op in OPS]
    out += [
        (nc.Tensor, "backward", "numcore.backward"),
        (nc.Adam, "step", "numcore.adam"),
        (model, "encode_stacked", "dpeg.encode_stacked"),
        (model, "clip_layout", "dpeg.clip_layout"),
        (model, "stack_tasks", "dpeg.stack_tasks"),
        (dpeg, "stack_tasks", "dpeg.stack_tasks"),
        (dpeg, "encode_global", "dpeg.encode_global"),
        (dpeg, "aggregate_windows", "dpeg.aggregate_windows"),
        (dpeg, "frequency_correct", "freqgate.frequency_correct"),
        (fg, "frequency_correct", "freqgate.frequency_correct"),
        (heads.GmmPlusHead, "predict", "heads.gmm_plus.predict"),
        (heads.GmmPlusHead, "regularizer", "heads.regularizer"),
        (heads.GmmPlusHead, "variances", "heads.variances"),
        (heads.BayesianHead, "predict", "heads.bayesian.predict"),
        (heads, "entropy_rows", "heads.entropy_rows"),
        (model.FremureModel, "forward", "model.forward"),
        (model.FremureModel, "total_loss", "model.total_loss"),
        (model, "predict_clips", "model.predict_clips"),
        (model, "evaluate", "model.evaluate"),
        (model, "group_clips", "data_metrics.group_clips"),
        (model, "recall_at_k", "data_metrics.recall_at_k"),
        (model, "mean_recall_at_k", "data_metrics.mean_recall_at_k"),
        (cli, "train", "model.train"),
        (cli, "evaluate", "model.evaluate"),
        (cli, "model_from_checkpoint", "model.model_from_checkpoint"),
        (cli, "checkpoint_dict", "model.checkpoint_dict"),
        (cli, "generate_dataset", "data_metrics.generate_dataset"),
        (cli, "write_jsonl", "data_metrics.write_jsonl"),
        (cli, "read_jsonl", "data_metrics.read_jsonl"),
        (cli, "group_clips", "data_metrics.group_clips"),
        (cli, "frequency_stratified_report",
         "data_metrics.frequency_stratified_report"),
        (cli, "_uncertainty_rows", "cli.uncertainty_rows"),
        (cli, "main", "cli.main"),
    ]
    return out


class Tracer:
    def __init__(self, training: bool):
        self.training = training
        self.scope = "model.total_loss" if training else "model.forward"
        self.in_scope = 0
        self.spans = []          # [name, start, end, parent index]
        self.open = []           # indices of spans not yet closed
        self.calls = {}          # name -> [calls, seconds], every call
        self.scoped = {}         # name -> [calls, seconds], inside the scope
        self.clips_scored = 0
        self.step_samples = []   # seconds of loss + backward + Adam per step
        self._step_acc = 0.0
        self._saved = []

    # -- installation -------------------------------------------------------

    def install(self, fm):
        for owner, attr, name in _targets(fm):
            orig = getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            wrap = self._op if name.startswith("numcore.") and attr in OPS \
                else self._span
            setattr(owner, attr, wrap(orig, name))
        return self

    def remove(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved = []

    def _add(self, table, name, seconds):
        cell = table.get(name)
        if cell is None:
            table[name] = [1, seconds]
        else:
            cell[0] += 1
            cell[1] += seconds

    def _op(self, orig, name):
        clock = time.perf_counter

        def op(*args, **kwargs):
            t0 = clock()
            out = orig(*args, **kwargs)
            dt = clock() - t0
            self._add(self.calls, name, dt)
            if self.in_scope:
                self._add(self.scoped, name, dt)
            return out

        return op

    def _span(self, orig, name):
        clock = time.perf_counter
        is_scope = name == self.scope
        step_part = name in ("model.total_loss", "numcore.backward", "numcore.adam")

        def span(*args, **kwargs):
            if name == "model.predict_clips":
                self.clips_scored += len(args[1])
            index = len(self.spans)
            parent = self.open[-1] if self.open else None
            self.open.append(index)
            self.spans.append([name, clock(), None, parent])
            if is_scope:
                self.in_scope += 1
            try:
                return orig(*args, **kwargs)
            finally:
                end = clock()
                row = self.spans[index]
                row[2] = end
                self.open.pop()
                if is_scope:
                    self.in_scope -= 1
                dt = end - row[1]
                self._add(self.calls, name, dt)
                if self.in_scope or is_scope:
                    self._add(self.scoped, name, dt)
                if step_part and self.training:
                    self._step_acc += dt
                    if name == "numcore.adam":
                        self.step_samples.append(self._step_acc)
                        self._step_acc = 0.0

        return span

    # -- summaries ----------------------------------------------------------

    def total(self, name, table=None) -> float:
        return (self.calls if table is None else table).get(name, [0, 0.0])[1]

    def count(self, name, table=None) -> int:
        return (self.calls if table is None else table).get(name, [0, 0.0])[0]

    def cli_self_s(self) -> float:
        """cli.main's time outside the program calls it makes: its duration
        minus the spans of other layers whose nearest span is a cli one."""
        main = [i for i, row in enumerate(self.spans) if row[0] == "cli.main"]
        if not main:
            return 0.0
        inside = 0.0
        for name, start, end, parent in self.spans:
            if parent is not None and not name.startswith("cli.") \
                    and self.spans[parent][0].startswith("cli."):
                inside += end - start
        wall = sum(self.spans[i][2] - self.spans[i][1] for i in main)
        return wall - inside

    def metrics(self) -> dict:
        """Per-layer figures; a layer that did not run reads 0."""
        steps = self.count("numcore.adam")
        forwards = self.count("model.forward")
        unit = steps if self.training else forwards
        scoped = self.scoped

        def per(value, n):
            return value / n if n else 0.0

        def ms_per_call(name):
            return 1e3 * per(self.total(name), self.count(name))

        def ms_per_forward(name):
            return 1e3 * per(self.total(name), forwards)

        op_calls = sum(cell[0] for name, cell in scoped.items()
                       if name.startswith("numcore.") and name[8:] in OPS)
        out = {
            "numcore.op_calls_per_step": per(op_calls, unit),
            "numcore.backward_ms_per_step":
                1e3 * per(self.total("numcore.backward"), steps),
            "numcore.adam_ms_per_step": 1e3 * per(self.total("numcore.adam"), steps),
        }
        for op in REPORTED_OPS:
            name = f"numcore.{op}"
            out[f"{name}.calls_per_step"] = per(self.count(name, scoped), unit)
            out[f"{name}.fwd_ms_per_step"] = 1e3 * per(self.total(name, scoped), unit)
        out.update({
            "dpeg.encode_stacked_ms_per_call": ms_per_call("dpeg.encode_stacked"),
            "dpeg.stack_tasks_ms_per_forward": ms_per_forward("dpeg.stack_tasks"),
            "dpeg.clip_layout_ms_per_call": ms_per_call("dpeg.clip_layout"),
            "dpeg.encode_global_ms_per_forward": ms_per_forward("dpeg.encode_global"),
            "dpeg.aggregate_windows_ms_per_forward":
                ms_per_forward("dpeg.aggregate_windows"),
            "freqgate.frequency_correct_ms_per_forward":
                ms_per_forward("freqgate.frequency_correct"),
            "heads.gmm_plus.predict_ms_per_call": ms_per_call("heads.gmm_plus.predict"),
            "heads.bayesian.predict_ms_per_call": ms_per_call("heads.bayesian.predict"),
            "heads.regularizer_ms_per_step":
                1e3 * per(self.total("heads.regularizer", scoped), steps),
            "heads.variances_calls_per_step":
                per(self.count("heads.variances", scoped), unit),
            "heads.entropy_rows_ms_per_forward": ms_per_forward("heads.entropy_rows"),
            "model.forward_ms_per_step":
                1e3 * per(self.total("model.forward", scoped), unit),
            "model.loss_ms_per_step": 1e3 * per(
                self.total("model.total_loss", scoped)
                - self.total("model.forward", scoped), steps),
        })
        samples = sorted(self.step_samples)
        if samples:
            cuts = statistics.quantiles(samples, n=10, method="inclusive")
            out["model.step_ms_p50"] = 1e3 * statistics.median(samples)
            out["model.step_ms_p90"] = 1e3 * cuts[8]
        else:
            out["model.step_ms_p50"] = out["model.step_ms_p90"] = 0.0
        out.update({
            "model.step_samples": len(samples),
            "model.predict_clips_ms_per_clip":
                1e3 * per(self.total("model.predict_clips"), self.clips_scored),
            "model.evaluate_s": self.total("model.evaluate"),
            "data_metrics.read_jsonl_s": self.total("data_metrics.read_jsonl"),
            "data_metrics.group_clips_s": self.total("data_metrics.group_clips"),
            "data_metrics.recall_at_k_ms_per_call":
                ms_per_call("data_metrics.recall_at_k"),
            "data_metrics.mean_recall_at_k_ms_per_call":
                ms_per_call("data_metrics.mean_recall_at_k"),
            "cli.self_s": self.cli_self_s(),
            "cli.uncertainty_rows_s": self.total("cli.uncertainty_rows"),
        })
        return out

    def span_dump(self) -> list:
        """Spans as [name, start ms, end ms, parent], times from the first."""
        if not self.spans:
            return []
        t0 = self.spans[0][1]
        return [[name, round(1e3 * (s - t0), 4), round(1e3 * (e - t0), 4), parent]
                for name, s, e, parent in self.spans]
