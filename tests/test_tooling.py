"""The benchmark's hold on the program, the program's hold on its own
names, and the README's hold on the command line. ``bench/tracing.py`` wraps
functions by name, so a renamed one would make ``bench/run.py --trace 1``
fail or read 0; ``bench/checks.py`` reads the probabilities that
``FremureModel.forward`` returns and requires them in [0, 1], with attention
rows summing to 1. Trunk weights are stacked once, when a model is built,
so neither a training step nor a scoring pack stacks any. Every function, class, method and module-level constant in
``src/fremure`` must be used by the program or the benchmark, not only by the
tests. Every option the README's usage block shows for a command is one the
parser defines, and every required one is shown."""

import argparse
import ast
import importlib.util
import io
import re
import tokenize
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fremure
import fremure.cli  # noqa: F401  (loads every layer, as the benchmark does)
from fremure import model as M
from fremure import numcore as nc
from fremure.data_metrics import TripletRecord

PROB = 1e-9          # bench/checks.py's tolerance on probability sums
ROOT = Path(__file__).resolve().parents[1]


def _tracing():
    """bench/tracing.py, loaded from its file without touching it."""
    path = ROOT / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _model(head):
    cfg = M.ModelConfig(raw_dim=6, d=8, h=2, attn_classes=3, spat_classes=4,
                        cont_classes=5, window_w=2, window_s=1,
                        flags=M.AblationFlags(head=head))
    return M.FremureModel(cfg, nc.Rng(1))


def _clip(seed):
    rng = nc.Rng(seed)
    return [TripletRecord(0, f, p, 3 + p, rng.normals(6) * 3.0, (f + p) % 3,
                          [(f + c) % 2 for c in range(4)],
                          [(p + c) % 2 for c in range(5)])
            for f in range(3) for p in range(3)]


def test_every_traced_name_exists():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in _tracing()._targets(fremure)
               if not callable(getattr(owner, attr, None))]
    assert not missing


def test_traced_head_calls_are_seen():
    tracer = _tracing().Tracer(training=False).install(fremure)
    try:
        with nc.no_grad():
            _model("gmm_plus").forward(_clip(2), nc.Rng(3))
            _model("bayesian").forward(_clip(2), nc.Rng(3))
    finally:
        tracer.remove()
    assert tracer.count("heads.gmm_plus.predict") == 3
    assert tracer.count("heads.bayesian.predict") == 3
    assert tracer.count("heads.entropy_rows") == 6
    assert tracer.count("heads.variances") > 0
    assert tracer.count("model.forward") == 2


def test_traced_eval_counts_forwards_and_ops(tmp_path):
    # the per-layer eval metrics divide by FremureModel.forward calls and
    # count numcore ops inside them, so scoring must keep going through both
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("data.clips = 4\ndata.test_clips = 3\ndata.frames = 3\n"
                   "data.pairs = 2\nmodel.d = 8\nmodel.h = 2\ntrain.epochs = 1\n")
    run = str(tmp_path / "run")
    for command in ("gen-data", "train"):
        assert fremure.cli.main([command, "--config", str(cfg), "--out", run]) == 0
    tracer = _tracing().Tracer(training=False).install(fremure)
    try:
        code = fremure.cli.main(["eval", "--checkpoint", f"{run}/checkpoint.json",
                                 "--data", f"{run}/test.jsonl",
                                 "--out", str(tmp_path / "eval")])
    finally:
        tracer.remove()
    assert code == 0
    metrics = tracer.metrics()
    assert tracer.count("model.forward") > 0
    assert tracer.clips_scored == 3
    for name in ("numcore.op_calls_per_step", "numcore.affine.calls_per_step",
                 "numcore.attention.calls_per_step", "model.forward_ms_per_step",
                 "dpeg.encode_global_ms_per_forward", "model.predict_clips_ms_per_clip"):
        assert metrics[name] > 0, name


@pytest.mark.parametrize("head", M.HEAD_KINDS)
@pytest.mark.parametrize("scale", [1.0, 300.0])
def test_forward_probabilities_meet_the_benchmark_checks(head, scale):
    # scale > 1 blows up the head weights that place the logits, so some
    # probabilities underflow; the sampling head's log-variance stays
    model = _model(head)
    for key, p in model.parameters().items():
        if key.startswith("heads.") and ".logvar." not in key:
            p.data = p.data * scale
    with nc.no_grad():
        out = model.forward(_clip(4), nc.Rng(5))
    for t in M.TYPES:
        probs = out["probs"][t].data
        assert np.all((probs >= 0.0) & (probs <= 1.0)), t
    if scale > 1.0:
        assert min(out["probs"][t].data.min() for t in M.TYPES) < 1e-12
    sums = out["probs"]["attn"].data.sum(axis=-1)
    assert np.abs(sums - 1.0).max() <= PROB
    entropy = out["reports"]["attn"].epistemic_rows
    assert np.all(np.isfinite(entropy))
    assert np.all((entropy >= -PROB) & (entropy <= np.log(3) + PROB))


@pytest.mark.parametrize("decouple", [True, False])
def test_no_weight_is_stacked_per_step_or_per_pack(monkeypatch, decouple):
    # trunk weights carry their task axis from the moment the model is built:
    # a training step (loss, backward, Adam) and a no-grad scoring pack call
    # neither nc.stack nor stack_tasks, in any namespace that binds them
    calls = {"stack": 0, "stack_tasks": 0}

    def counted(name, orig):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(nc, "stack", counted("stack", nc.stack))
    for namespace in (fremure.dpeg, M):
        monkeypatch.setattr(namespace, "stack_tasks",
                            counted("stack_tasks", fremure.dpeg.stack_tasks))
    cfg = M.ModelConfig(raw_dim=6, d=8, h=2, attn_classes=3, spat_classes=4,
                        cont_classes=5, window_w=2, window_s=1,
                        flags=M.AblationFlags(decouple=decouple))
    model = M.FremureModel(cfg, nc.Rng(1))
    assert calls["stack"] > 0 and calls["stack_tasks"] > 0     # building stacks
    t = M.TrainConfig()
    opt = nc.Adam(model.parameters(), t.lr, t.beta1, t.beta2, t.eps)
    split = M.clip_split(_clip(2) + [replace(r, clip=1) for r in _clip(3)], cfg)
    calls.update(stack=0, stack_tasks=0)
    opt.zero_grad()
    total, _ = model.total_loss(split.view(0, 1), nc.Rng(4), training=True)
    total.backward()
    opt.step()
    M.predict_clips(model, split, nc.Rng(5))
    assert calls == {"stack": 0, "stack_tasks": 0}


def _definitions(paths) -> dict:
    """name -> {(path, first line, last line)} of every module-level function,
    class and constant and every method, dunder names aside (the language
    reads those)."""
    out = {}
    for path in paths:
        for node in ast.parse(path.read_text()).body:
            members = [node]
            if isinstance(node, ast.ClassDef):
                members += node.body
            for item in members:
                if isinstance(item, (ast.FunctionDef, ast.ClassDef)):
                    names = [item.name]
                elif item is node and isinstance(item, (ast.Assign, ast.AnnAssign)):
                    targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    names = []
                for name in names:
                    if not re.fullmatch(r"__\w+__", name):
                        out.setdefault(name, set()).add(
                            (path, item.lineno, item.end_lineno))
    return out


def _code_lines(path, strings: bool) -> list:
    """The lines of ``path`` with every comment and docstring blanked and
    line numbers kept: prose that mentions a name does not use it. Other
    string literals stay if ``strings`` holds, for the benchmark, whose
    tracer names its targets in strings; in the program, text such as an
    error message names no use either."""
    text = path.read_text()
    lines = io.StringIO(text).readlines()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT or (tok.type == tokenize.STRING and not strings):
            # spaces in place of the token keep later columns of its lines
            (first, col), (last, end) = tok.start, tok.end
            for row in range(first, last + 1):
                line = lines[row - 1]
                lo = col if row == first else 0
                hi = end if row == last else len(line.rstrip("\n"))
                lines[row - 1] = line[:lo] + " " * (hi - lo) + line[hi:]
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and body \
                and isinstance(body[0], ast.Expr) \
                and isinstance(body[0].value, ast.Constant) \
                and isinstance(body[0].value.value, str):
            for row in range(body[0].lineno, body[0].end_lineno + 1):
                lines[row - 1] = "\n"
    return lines


def test_every_program_name_is_used_outside_the_tests():
    # a name counts as used when it appears as a whole word in the code (not
    # a comment, docstring or, in the program, other string literal) of the
    # program or the benchmark, outside the body of every definition of that
    # name: a function that only names itself (a recursive call) is not used
    src = sorted((ROOT / "src" / "fremure").glob("*.py"))
    bench = sorted((ROOT / "bench").glob("*.py"))
    lines = [(path, i, line) for path in src + bench
             for i, line in enumerate(_code_lines(path, path in bench), start=1)]
    unused = []
    for name, sites in sorted(_definitions(src).items()):
        word = re.compile(rf"\b{name}\b")
        if not any(word.search(line) for path, i, line in lines
                   if not any(path == p and lo <= i <= hi for p, lo, hi in sites)):
            unused.append(name)
    assert unused == []


def _fields_and_attributes(paths) -> dict:
    """name -> {(file name, line)} of every dataclass field and every
    attribute a method sets on ``self``."""
    out = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    ast.unparse(d).startswith("dataclass") for d in node.decorator_list):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        out.setdefault(item.target.id, set()).add((path.name, item.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) \
                    and isinstance(node.value, ast.Name) and node.value.id == "self":
                out.setdefault(node.attr, set()).add((path.name, node.lineno))
    return out


def test_every_program_field_and_attribute_is_read_outside_the_tests():
    # read means loaded as an attribute (``x.name``) somewhere in the program
    # or the benchmark; a value only stored, or read only by the tests, is
    # dead weight
    src = sorted((ROOT / "src" / "fremure").glob("*.py"))
    read = {node.attr for path in src + sorted((ROOT / "bench").glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = {name: sorted(sites) for name, sites in _fields_and_attributes(src).items()
              if name not in read}
    assert unread == {}


def _readme_usage() -> dict:
    """command -> the options its ``fremure <command>`` line shows in the
    README's usage block, continuation lines joined."""
    text = (ROOT / "README.md").read_text().replace("\\\n", " ")
    usage = {}
    for line in text.splitlines():
        if line.startswith("fremure "):
            command = line.split()[1]
            assert command not in usage, f"two usage lines for {command}"
            usage[command] = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", line))
    return usage


def test_readme_usage_block_matches_the_parser():
    parser = fremure.cli.build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    usage = _readme_usage()
    assert set(usage) == set(commands)
    for name, sub in commands.items():
        defined = {s for a in sub._actions for s in a.option_strings}
        required = {a.option_strings[0] for a in sub._actions if a.required}
        assert usage[name] <= defined, (name, usage[name] - defined)
        assert required <= usage[name], (name, required - usage[name])
