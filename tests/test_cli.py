"""End-to-end checks of the command-line layer: config parsing, the five
subcommands, exit codes, and byte-level determinism of the written artifacts."""

import base64
import hashlib
import json
import os
import re
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from fremure import cli
from fremure import numcore as nc
from fremure import model as fm
from fremure import ConfigError, NumericalError
from fremure.cli import _write_json, main, parse_config, VARIANTS
from fremure.data_metrics import group_clips, read_jsonl
from fremure.model import FremureModel, model_from_checkpoint


BASE = {
    "data.attn_classes": 4, "data.spat_classes": 3, "data.cont_classes": 5,
    "data.d": 6, "data.clips": 6, "data.test_clips": 3,
    "data.frames": 2, "data.pairs": 2,
    "model.d": 8, "model.h": 2, "model.window_w": 2, "model.window_s": 1,
    "model.k": 2,
    "train.epochs": 1, "train.lr": 0.003,
    "seed": 11,
}

BASE_CFG = "\n".join(f"{k} = {v}" for k, v in BASE.items()) + "\n"


def _cfg_file(tmp_path, **over):
    merged = dict(BASE)
    merged.update(over)
    path = tmp_path / "exp.cfg"
    path.write_text("# compact experiment for fast tests\n" +
                    "\n".join(f"{k} = {v}" for k, v in merged.items()) + "\n")
    return str(path)


def _json(path):
    return json.loads(Path(path).read_text())


def _jsonl(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


def _values(entry) -> np.ndarray:
    """The values of a checkpoint parameter entry, read as README shows."""
    return np.frombuffer(base64.b64decode(entry["f64le"]), "<f8").reshape(entry["shape"])


def _entry(values) -> dict:
    """``values`` as a checkpoint parameter entry: shape and base64 bytes."""
    arr = np.asarray(values, dtype="<f8")
    return {"shape": list(arr.shape), "f64le": base64.b64encode(arr.tobytes()).decode()}


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _gen(tmp_path, out="run", **over):
    cfg = _cfg_file(tmp_path, **over)
    outdir = str(tmp_path / out)
    assert main(["gen-data", "--config", cfg, "--out", outdir]) == 0
    return cfg, outdir


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_parse_config_populates_sections():
    exp = parse_config(BASE_CFG)
    assert exp.data.clips == 6
    assert exp.model.d == 8 and exp.model.h == 2
    assert exp.train.epochs == 1 and exp.train.lr == 0.003
    assert exp.seed == 11


def test_parse_config_model_inherits_data_layout():
    exp = parse_config(BASE_CFG)
    assert exp.model.raw_dim == exp.data.d == 6
    assert exp.model.attn_classes == 4
    assert exp.model.spat_classes == 3
    assert exp.model.cont_classes == 5


def test_parse_config_collects_every_problem():
    bad = "\n".join(["data.clips = 0", "model.qqq = 3", "bogus = x",
                     "data.clips = 2", "model.h = abc", "just a line"])
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    text = "\n".join(exc.value.problems)
    assert "duplicate key 'data.clips'" in text
    assert "unknown key 'model.qqq'" in text
    assert "unknown key 'bogus'" in text
    assert "cannot parse 'abc' as int" in text
    assert "clips must be >= 1" in text
    assert "expected key = value" in text


def test_parse_config_rejects_layout_contradiction():
    # the model's input width and class counts are the data's, so a file
    # cannot set them at all, not even to the data's own values
    for key, value in (("model.raw_dim", 99), ("model.raw_dim", 6),
                       ("model.attn_classes", 4), ("model.spat_classes", 3),
                       ("model.cont_classes", 5)):
        with pytest.raises(ConfigError) as exc:
            parse_config(BASE_CFG + f"{key} = {value}\n")
        assert exc.value.problems == [f"unknown key '{key}'"]


def test_parse_config_flags_section():
    exp = parse_config(BASE_CFG + "flags.decouple = false\nflags.head = linear\n")
    assert exp.model.flags.decouple is False
    assert exp.model.flags.head == "linear"


def test_parse_config_bool_values_are_strict():
    with pytest.raises(ConfigError):
        parse_config(BASE_CFG + "flags.decouple = off\n")


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------


def test_gen_data_writes_expected_record_counts(tmp_path):
    _, outdir = _gen(tmp_path)
    train = read_jsonl(os.path.join(outdir, "train.jsonl"))
    test = read_jsonl(os.path.join(outdir, "test.jsonl"))
    assert len(train) == 6 * 2 * 2        # clips * frames * pairs
    assert len(test) == 3 * 2 * 2
    prior = _json(os.path.join(outdir, "prior.json"))
    assert set(prior) == {"attn", "spat", "cont"}
    assert len(prior["attn"]["counts"]) == 4


def test_gen_data_same_seed_same_manifest(tmp_path):
    cfg, out1 = _gen(tmp_path, out="a")
    out2 = str(tmp_path / "b")
    assert main(["gen-data", "--config", cfg, "--out", out2]) == 0
    m1 = Path(out1, "gen_data_manifest.json").read_bytes()
    m2 = Path(out2, "gen_data_manifest.json").read_bytes()
    assert m1 == m2


def test_gen_data_zero_clips_names_the_field(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, **{"data.clips": 0})
    assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "clips must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("data.zipf_s", "nan"), ("data.noise", "inf"), ("data.flip", "nan"),
    ("data.extra_label_rate", "-inf"), ("model.sigma_min", "nan"),
    ("model.sigma_target", "inf"), ("model.tau", "nan"), ("model.lam", "inf")])
def test_non_finite_data_or_model_setting_names_the_key(tmp_path, capsys, key, value):
    cfg = _cfg_file(tmp_path, **{key: value})
    out = tmp_path / "o"
    assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 1
    section, name = key.split(".")
    assert f"{section}: {name} must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_odd_model_dim_is_a_config_error(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, **{"model.d": 5, "model.h": 1})
    assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "model: d=5 must be even" in capsys.readouterr().err


def test_missing_config_file_is_io_error(tmp_path):
    assert main(["gen-data", "--config", str(tmp_path / "nope.cfg")]) == 2


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_writes_metrics_and_checkpoint(tmp_path):
    cfg, outdir = _gen(tmp_path)
    assert main(["train", "--config", cfg, "--out", outdir, "--k", "5,10"]) == 0
    lines = Path(outdir, "metrics.csv").read_text().splitlines()
    assert lines[0] == "epoch,L_a,L_s,L_c,reg,mR@5,mR@10"
    assert len(lines) == 2                # one epoch
    ckpt = _json(os.path.join(outdir, "checkpoint.json"))
    model = model_from_checkpoint(ckpt)
    assert model.cfg.d == 8


def test_train_identical_runs_are_byte_identical(tmp_path):
    cfg, outdir = _gen(tmp_path)
    assert main(["train", "--config", cfg, "--out", outdir]) == 0
    first_csv = Path(outdir, "metrics.csv").read_bytes()
    first_ckpt = Path(outdir, "checkpoint.json").read_bytes()
    assert main(["train", "--config", cfg, "--out", outdir]) == 0
    assert Path(outdir, "metrics.csv").read_bytes() == first_csv
    assert Path(outdir, "checkpoint.json").read_bytes() == first_ckpt


def test_train_zero_epochs_checkpoint_equals_initialization(tmp_path):
    cfg, outdir = _gen(tmp_path, **{"train.epochs": 0})
    assert main(["train", "--config", cfg, "--out", outdir]) == 0
    stored = model_from_checkpoint(
        _json(os.path.join(outdir, "checkpoint.json")))
    exp = parse_config(Path(cfg).read_text())
    fresh = FremureModel(exp.model, nc.Rng(11).spawn(0))
    for name, p in fresh.parameters().items():
        np.testing.assert_array_equal(stored.parameters()[name].data, p.data)


def test_train_missing_dataset_is_io_error(tmp_path, capsys):
    cfg = _cfg_file(tmp_path)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "empty")]) == 2
    assert "missing dataset file" in capsys.readouterr().err


def test_train_non_finite_loss_aborts_with_code_3(tmp_path, capsys):
    # valid records and a finite learning rate large enough that the first
    # Adam step sends the parameters, and the next loss, to infinity
    cfg, outdir = _gen(tmp_path, **{"train.lr": "1e300"})
    with np.errstate(all="ignore"):
        assert main(["train", "--config", cfg, "--out", outdir]) == 3
    assert "non-finite loss at epoch 0, step 1" in capsys.readouterr().err


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_train_non_finite_parameter_writes_no_checkpoint(tmp_path, capsys, monkeypatch,
                                                         value):
    # JSON's own check cannot see inside a parameter's bytes, so
    # checkpoint_dict refuses the value before the file is opened
    def diverged(*args, **kwargs):
        model, history = fm.train(*args, **kwargs)
        model.parameters()["heads.attn.bias"].data[0] = value
        return model, history

    monkeypatch.setattr(cli, "train", diverged)
    cfg, outdir = _gen(tmp_path)
    assert main(["train", "--config", cfg, "--out", outdir]) == 3
    assert ("numerical abort: checkpoint 'parameters.heads.attn.bias' not written: "
            "non-finite value") in capsys.readouterr().err
    assert not os.path.exists(os.path.join(outdir, "checkpoint.json"))


def test_train_manifest_records_the_ks_and_constraint_that_ran(tmp_path):
    cfg, outdir = _gen(tmp_path)
    assert main(["train", "--config", cfg, "--out", outdir,
                 "--k", "5", "--constraint", "no"]) == 0
    manifest = _json(os.path.join(outdir, "train_manifest.json"))
    assert manifest["config"]["train"]["ks"] == [5]
    assert manifest["config"]["train"]["constraint"] is False
    assert manifest["options"] == {"k": [5], "constraint": False}
    assert manifest["config"]["model"]["raw_dim"] == 6


def test_train_names_the_file_whose_record_does_not_fit_the_model(tmp_path, capsys):
    # test.jsonl is checked against the model before training starts
    cfg, outdir = _gen(tmp_path)
    path = os.path.join(outdir, "test.jsonl")
    docs = _jsonl(path)
    docs[4]["spat"].append(0)
    Path(path).write_text("\n".join(json.dumps(doc) for doc in docs) + "\n")
    assert main(["train", "--config", cfg, "--out", outdir]) == 1
    r = docs[4]
    assert (f"contract error: {path}: record (clip {r['clip']}, frame {r['frame']}, "
            f"subj {r['subj']}, obj {r['obj']}): spat has 4 values, expected 3"
            ) in capsys.readouterr().err
    assert not os.path.exists(os.path.join(outdir, "metrics.csv"))


@pytest.mark.parametrize("command, name", [("train", "train.jsonl"),
                                           ("eval", "test.jsonl")])
def test_duplicate_record_key_names_file_and_record(tmp_path, capsys, command, name):
    cfg, outdir = _gen(tmp_path)
    if command == "eval":
        assert main(["train", "--config", cfg, "--out", outdir]) == 0
    path = os.path.join(outdir, name)
    lines = Path(path).read_text().splitlines()
    Path(path).write_text("\n".join(lines[:1] + lines) + "\n")
    capsys.readouterr()
    if command == "train":
        argv = ["train", "--config", cfg, "--out", outdir]
    else:
        argv = ["eval", "--checkpoint", os.path.join(outdir, "checkpoint.json"),
                "--data", path, "--out", str(tmp_path / "ev")]
    assert main(argv) == 1
    r = json.loads(lines[0])
    assert (f"contract error: {path}: record (clip {r['clip']}, frame {r['frame']}, "
            f"subj {r['subj']}, obj {r['obj']}): repeats an earlier record's "
            f"(clip, frame, subj, obj)") in capsys.readouterr().err


def _set(field, value):
    def edit(doc):
        doc[field] = value
    return edit


def _set_first(field, value):
    def edit(doc):
        doc[field][0] = value
    return edit


# (command, file, edit of its third record, message): each breaks the record
# file contract and exits 1 naming the file, the line and the field
BAD_RECORDS = {
    "spat-all-minus-one": ("train", "train.jsonl",
                           lambda doc: doc.update(spat=[-1] * len(doc["spat"])),
                           "'spat' bits must be 0 or 1"),
    "spat-bit-2": ("train", "train.jsonl", _set_first("spat", 2),
                   "'spat' bits must be 0 or 1"),
    "clip-float": ("train", "train.jsonl", _set("clip", 0.7),
                   "'clip' must be a JSON integer, got 0.7"),
    "clip-bool": ("train", "train.jsonl", _set("clip", True),
                  "'clip' must be a JSON integer, got True"),
    "attn-float": ("train", "train.jsonl", _set("attn", 1.9),
                   "'attn' must be a JSON integer, got 1.9"),
    "feat-string": ("train", "train.jsonl", _set_first("feat", "1.5"),
                    "'feat' must hold only JSON numbers"),
    "feat-inf": ("train", "train.jsonl", _set_first("feat", float("inf")),
                 "'feat' must hold only finite numbers"),
    "feat-width": ("train", "train.jsonl", lambda doc: doc["feat"].pop(),
                   "'feat' has 5 values, not the 6 of the first record"),
    "eval-cont-bit-2": ("eval", "test.jsonl", _set_first("cont", 2),
                        "'cont' bits must be 0 or 1"),
    "eval-frame-minus-one": ("eval", "test.jsonl", _set("frame", -1),
                             "'frame' must be >= 0, got -1"),
}


@pytest.mark.parametrize("case", sorted(BAD_RECORDS))
def test_record_breaking_the_file_contract_exits_1(tmp_path, capsys, case):
    command, name, edit, message = BAD_RECORDS[case]
    cfg, outdir = _gen(tmp_path)
    if command == "eval":
        assert main(["train", "--config", cfg, "--out", outdir]) == 0
    path = os.path.join(outdir, name)
    docs = _jsonl(path)
    edit(docs[2])
    Path(path).write_text("\n".join(json.dumps(doc) for doc in docs) + "\n")
    capsys.readouterr()
    if command == "train":
        argv = ["train", "--config", cfg, "--out", outdir]
    else:
        argv = ["eval", "--checkpoint", os.path.join(outdir, "checkpoint.json"),
                "--data", path, "--out", str(tmp_path / "ev")]
    assert main(argv) == 1
    assert f"{path}, line 3: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("train.lr", "nan"), ("train.lr", "inf"),
                                        ("train.eps", "nan")])
def test_non_finite_optimizer_setting_names_the_key(tmp_path, capsys, key, value):
    cfg = _cfg_file(tmp_path, **{key: value})
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    name = key.split(".")[1]
    assert f"train: {name} must be finite" in capsys.readouterr().err


def test_truncated_jsonl_line_names_file_and_line(tmp_path, capsys):
    cfg, outdir = _gen(tmp_path)
    path = os.path.join(outdir, "train.jsonl")
    lines = Path(path).read_text().splitlines()
    lines[2] = lines[2][:len(lines[2]) // 2]
    Path(path).write_text("\n".join(lines) + "\n")
    assert main(["train", "--config", cfg, "--out", outdir]) == 1
    assert f"{path}, line 3: not a valid record" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


@pytest.fixture
def trained(tmp_path):
    cfg, outdir = _gen(tmp_path)
    assert main(["train", "--config", cfg, "--out", outdir]) == 0
    return cfg, outdir


def test_eval_report_columns_and_oracle_agreement(trained, tmp_path):
    _, outdir = trained
    ckpt = os.path.join(outdir, "checkpoint.json")
    data = os.path.join(outdir, "test.jsonl")
    evaldir = str(tmp_path / "ev")
    assert main(["eval", "--checkpoint", ckpt, "--data", data,
                 "--out", evaldir, "--k", "10,20,50", "--seed", "0"]) == 0
    lines = Path(evaldir, "eval_report.csv").read_text().splitlines()
    assert lines[0] == "metric,K=10,K=20,K=50"
    assert [row.split(",")[0] for row in lines[1:]] == [
        "recall", "mean_recall", "head_recall", "tail_recall"]

    # numbers must match the library evaluation of the same checkpoint
    report = _json(os.path.join(evaldir, "eval_report.json"))
    model = model_from_checkpoint(_json(ckpt))
    oracle = fm.evaluate(model, read_jsonl(data), (10, 20, 50), True, seed=0)
    for k in (10, 20, 50):
        assert report["recall"][str(k)] == oracle["recall"][k]
        assert report["mean_recall"][str(k)] == oracle["mean_recall"][k]


def test_eval_writes_one_uncertainty_row_per_record(trained, tmp_path):
    _, outdir = trained
    evaldir = str(tmp_path / "ev2")
    data = os.path.join(outdir, "test.jsonl")
    assert main(["eval", "--checkpoint", os.path.join(outdir, "checkpoint.json"),
                 "--data", data, "--out", evaldir]) == 0
    rows = _jsonl(os.path.join(evaldir, "eval_samples.jsonl"))
    assert len(rows) == len(read_jsonl(data))
    for key in ("attn_aleatoric", "spat_epistemic", "cont_aleatoric"):
        assert all(np.isfinite(row[key]) for row in rows)


def test_eval_manifest_records_the_checkpoint_config(trained, tmp_path):
    _, outdir = trained
    evaldir = str(tmp_path / "ev")
    checkpoint = os.path.join(outdir, "checkpoint.json")
    assert main(["eval", "--checkpoint", checkpoint, "--data",
                 os.path.join(outdir, "test.jsonl"), "--out", evaldir,
                 "--seed", "5"]) == 0
    manifest = _json(os.path.join(evaldir, "eval_manifest.json"))
    assert manifest["config"] == {"model": _json(checkpoint)["config"], "seed": 5}
    assert manifest["seed"] == 5


def test_eval_runs_one_forward_per_pack(tmp_path, monkeypatch):
    cfg, outdir = _gen(tmp_path, **{"flags.head": "bayesian"})
    assert main(["train", "--config", cfg, "--out", outdir]) == 0
    ckpt = os.path.join(outdir, "checkpoint.json")
    data = os.path.join(outdir, "test.jsonl")
    calls = []
    forward = FremureModel.forward

    def counting(self, clip, *args, **kwargs):
        calls.append(clip.clip.tolist())
        return forward(self, clip, *args, **kwargs)

    # 3 test clips of 4 records: packs of at most 8 records take 2 clips, then 1
    monkeypatch.setattr(fm, "PACK_RECORDS", 8)
    monkeypatch.setattr(FremureModel, "forward", counting)
    evaldir = str(tmp_path / "ev5")
    assert main(["eval", "--checkpoint", ckpt, "--data", data,
                 "--out", evaldir, "--seed", "4"]) == 0
    monkeypatch.undo()
    clips = group_clips(read_jsonl(data))
    assert [len(call) for call in calls] == [8, 4]
    assert sum(calls, []) == [rec.clip for clip in clips for rec in clip]

    # the written rows are the reports of a fresh forward with the same
    # per-clip sampling streams
    rows = _jsonl(os.path.join(evaldir, "eval_samples.jsonl"))
    model = model_from_checkpoint(_json(ckpt))
    want = []
    root = nc.Rng(4)
    with nc.no_grad():
        for ci, clip in enumerate(clips):
            reports = model.forward(clip, root.spawn(ci), training=False)["reports"]
            for i, rec in enumerate(clip):
                row = {"clip": rec.clip, "frame": rec.frame,
                       "subj": rec.subj, "obj": rec.obj}
                for t in fm.TYPES:
                    row[f"{t}_aleatoric"] = float(reports[t].aleatoric_rows[i])
                    row[f"{t}_epistemic"] = float(reports[t].epistemic_rows[i])
                want.append(row)
    assert rows == want


def test_eval_class_count_mismatch_names_both_values(trained, tmp_path, capsys):
    cfg, outdir = trained
    other = str(tmp_path / "other")
    assert main(["gen-data", "--config", cfg, "--out", other]) == 0
    # shrink the label vectors so widths disagree with the checkpoint
    path = os.path.join(other, "test.jsonl")
    docs = _jsonl(path)
    for doc in docs:
        doc["spat"] = doc["spat"][:-1]
    Path(path).write_text("\n".join(json.dumps(d) for d in docs) + "\n")
    rc = main(["eval", "--checkpoint", os.path.join(outdir, "checkpoint.json"),
               "--data", path, "--out", str(tmp_path / "ev3")])
    assert rc == 1
    # dataset width vs model width, at the first record of that file
    first = docs[0]
    assert (f"{path}: record (clip {first['clip']}, frame {first['frame']}, subj {first['subj']}, "
            f"obj {first['obj']}): spat has 2 values, expected 3") in capsys.readouterr().err


def test_eval_rejects_non_checkpoint_json(trained, tmp_path):
    _, outdir = trained
    rc = main(["eval", "--checkpoint", os.path.join(outdir, "prior.json"),
               "--data", os.path.join(outdir, "test.jsonl"),
               "--out", str(tmp_path / "ev4")])
    assert rc == 1


def test_eval_checkpoint_field_of_wrong_type_names_it(trained, tmp_path, capsys):
    _, outdir = trained
    doc = _json(os.path.join(outdir, "checkpoint.json"))
    doc["config"]["d"] = "8"
    ckpt = tmp_path / "bad.json"
    ckpt.write_text(json.dumps(doc))
    rc = main(["eval", "--checkpoint", str(ckpt),
               "--data", os.path.join(outdir, "test.jsonl"),
               "--out", str(tmp_path / "ev6")])
    assert rc == 1
    assert "model config field 'd' must be int, got str" in capsys.readouterr().err


@pytest.mark.parametrize("key, named", [
    ("priors", "priors.spat"), ("parameters", "parameters.heads.attn.bias"),
    ("seed", "seed")])
def test_eval_checkpoint_string_value_names_its_key(trained, tmp_path, capsys,
                                                    key, named):
    _, outdir = trained
    doc = _json(os.path.join(outdir, "checkpoint.json"))
    if key == "seed":
        doc["seed"] = "x"
    else:
        section = doc[key][named.split(".", 1)[1]]
        # a parameter entry's numbers outside its bytes are its shape's
        section = section["shape"] if key == "parameters" else section
        section[0] = "x"
    ckpt = tmp_path / "bad.json"
    ckpt.write_text(json.dumps(doc))
    rc = main(["eval", "--checkpoint", str(ckpt),
               "--data", os.path.join(outdir, "test.jsonl"),
               "--out", str(tmp_path / "ev7")])
    assert rc == 1
    assert f"checkpoint '{named}' must" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["priors.attn", "parameters.heads.attn.bias"])
def test_eval_checkpoint_non_finite_value_names_file_and_key(trained, tmp_path, capsys,
                                                             key):
    _, outdir = trained
    doc = _json(os.path.join(outdir, "checkpoint.json"))
    section, name = key.split(".", 1)
    if section == "parameters":
        values = _values(doc[section][name]).copy()
        values[0] = float("nan")
        doc[section][name] = _entry(values)
    else:
        doc[section][name][0] = float("nan")
    ckpt = tmp_path / "nan.json"
    ckpt.write_text(json.dumps(doc))
    rc = main(["eval", "--checkpoint", str(ckpt),
               "--data", os.path.join(outdir, "test.jsonl"),
               "--out", str(tmp_path / "ev9")])
    assert rc == 1
    assert (f"{ckpt}: checkpoint '{key}' must hold only finite numbers"
            in capsys.readouterr().err)


def test_eval_checkpoint_of_the_per_task_trunk_layout_names_its_keys(trained, tmp_path,
                                                                     capsys):
    # checkpoints written before the trunk kept one task-stacked tensor per
    # weight hold per-task names such as trunks.attn.proj.w
    _, outdir = trained
    doc = _json(os.path.join(outdir, "checkpoint.json"))
    doc["parameters"]["trunks.attn.proj.w"] = _entry(
        _values(doc["parameters"].pop("trunk.proj.w"))[0])
    ckpt = tmp_path / "old.json"
    ckpt.write_text(json.dumps(doc))
    evaldir = tmp_path / "ev10"
    rc = main(["eval", "--checkpoint", str(ckpt),
               "--data", os.path.join(outdir, "test.jsonl"), "--out", str(evaldir)])
    assert rc == 1
    assert (f"{ckpt}: checkpoint parameter names do not match the configured "
            "architecture (first missing: trunk.proj.w; first unexpected: "
            "trunks.attn.proj.w)") in capsys.readouterr().err
    assert not evaldir.exists()


@pytest.mark.parametrize("command", ["eval", "diagnose"])
@pytest.mark.parametrize("bad, problem", [
    (lambda counts: counts[:-1], "must hold 3 counts, got shape (2,)"),
    (lambda counts: [0] * len(counts), "must hold at least one positive count"),
    (lambda counts: [-1] + counts[1:], "must hold no negative count")],
    ids=["one-short", "all-zero", "negative"])
def test_checkpoint_prior_of_bad_counts_names_its_key(trained, tmp_path, capsys,
                                                      command, bad, problem):
    # set_priors is where a checkpoint's priors meet the model: a count vector
    # of another length, or one no frequency prior can be made of, exits 1
    # naming the file and the key, as a non-number entry does
    _, outdir = trained
    doc = _json(os.path.join(outdir, "checkpoint.json"))
    doc["priors"]["spat"] = bad(doc["priors"]["spat"])
    ckpt = tmp_path / "bad.json"
    ckpt.write_text(json.dumps(doc))
    out = tmp_path / "out"
    rc = main([command, "--checkpoint", str(ckpt),
               "--data", os.path.join(outdir, "test.jsonl"), "--out", str(out)])
    assert rc == 1
    assert (f"contract error: {ckpt}: checkpoint 'priors.spat' {problem}"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "diagnose"])
def test_checkpoint_prior_of_no_task_names_its_key(trained, tmp_path, capsys, command):
    # a priors key that is no task is refused, as an unknown parameter name is
    _, outdir = trained
    doc = _json(os.path.join(outdir, "checkpoint.json"))
    doc["priors"]["bogus"] = doc["priors"]["spat"]
    ckpt = tmp_path / "bad.json"
    ckpt.write_text(json.dumps(doc))
    out = tmp_path / "out"
    rc = main([command, "--checkpoint", str(ckpt),
               "--data", os.path.join(outdir, "test.jsonl"), "--out", str(out)])
    assert rc == 1
    assert (f"contract error: {ckpt}: checkpoint 'priors.bogus' is not a task "
            "(expected one of attn, spat, cont)" in capsys.readouterr().err)
    assert not out.exists()


_FORM = "checkpoint '{key}' must be an object with exactly the keys 'shape' and 'f64le'"
_SHAPE = "checkpoint '{key}' must have a 'shape' list of non-negative integers"
_BASE64 = "checkpoint '{key}' must have an 'f64le' string of base64"

MALFORMED = {
    "list": (lambda e: _values(e).tolist(), _FORM),
    "extra-key": (lambda e: {**e, "dtype": "<f8"}, _FORM),
    "missing-key": (lambda e: {"f64le": e["f64le"]}, _FORM),
    "shape-not-list": (lambda e: {**e, "shape": e["shape"][0]}, _SHAPE),
    "shape-negative": (lambda e: {**e, "shape": [-1]}, _SHAPE),
    "shape-bool": (lambda e: {**e, "shape": [True]}, _SHAPE),
    "shape-float": (lambda e: {**e, "shape": [float(e["shape"][0])]}, _SHAPE),
    "shape-other": (lambda e: {**e, "shape": [e["shape"][0] + 1]},
                    "checkpoint shape ({n1},) != expected ({n},) for '{key}'"),
    # characters a lax decoder would skip, leaving the right bytes
    "not-base64": (lambda e: {**e, "f64le": "****" + e["f64le"]}, _BASE64),
    "f64le-not-string": (lambda e: {**e, "f64le": 0}, _BASE64),
    "byte-count": (lambda e: _entry(_values(e)[:-1]) | {"shape": e["shape"]},
                   "checkpoint '{key}' must hold 8 bytes per value of shape ({n},), "
                   "got {short} bytes"),
    "non-finite": (lambda e: _entry(np.append(_values(e)[:-1], np.inf)),
                   "checkpoint '{key}' must hold only finite numbers"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_eval_malformed_parameter_entry_names_its_key(trained, tmp_path, capsys, case):
    # a parameter is {"shape": [...], "f64le": <base64 of little-endian
    # float64 bytes>}; any other form, shape, byte count or a non-finite
    # value exits 1, naming the file and parameters.<name>
    _, outdir = trained
    doc = _json(os.path.join(outdir, "checkpoint.json"))
    name = "heads.attn.bias"
    breaks, problem = MALFORMED[case]
    n = doc["parameters"][name]["shape"][0]
    doc["parameters"][name] = breaks(doc["parameters"][name])
    ckpt = tmp_path / "bad.json"
    ckpt.write_text(json.dumps(doc))
    out = tmp_path / "out"
    rc = main(["eval", "--checkpoint", str(ckpt),
               "--data", os.path.join(outdir, "test.jsonl"), "--out", str(out)])
    assert rc == 1
    problem = problem.format(key=f"parameters.{name}", n=n, n1=n + 1, short=8 * (n - 1))
    assert f"contract error: {ckpt}: {problem}" in capsys.readouterr().err
    assert not out.exists()


def test_eval_nested_list_checkpoint_names_its_first_parameter(trained, tmp_path, capsys):
    # checkpoints written before parameters were stored as bytes hold nested
    # lists; they are refused naming the first parameter, and re-running
    # train rebuilds them
    _, outdir = trained
    doc = _json(os.path.join(outdir, "checkpoint.json"))
    first = next(iter(model_from_checkpoint(doc).parameters()))
    doc["parameters"] = {k: _values(e).tolist() for k, e in doc["parameters"].items()}
    ckpt = tmp_path / "old.json"
    ckpt.write_text(json.dumps(doc))
    rc = main(["eval", "--checkpoint", str(ckpt),
               "--data", os.path.join(outdir, "test.jsonl"), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert (f"contract error: {ckpt}: checkpoint 'parameters.{first}' must be an object "
            "with exactly the keys 'shape' and 'f64le'") in capsys.readouterr().err


def test_readme_recipe_reads_each_parameter_of_a_checkpoint(trained):
    # README's numpy recipe for one parameter, run as README spells it, gives
    # the bytes model_from_checkpoint loads
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    recipe = re.search(r'np\.frombuffer\(.*?\.reshape\(e\["shape"\]\)', readme).group(0)
    assert recipe == 'np.frombuffer(base64.b64decode(e["f64le"]), "<f8").reshape(e["shape"])'
    _, outdir = trained
    doc = _json(os.path.join(outdir, "checkpoint.json"))
    model = model_from_checkpoint(doc)
    for name, p in model.parameters().items():
        got = eval(recipe, {"np": np, "base64": base64, "e": doc["parameters"][name]})
        assert got.shape == p.data.shape and got.tobytes() == p.data.tobytes(), name


def test_default_checkpoint_is_at_most_3_6_mb_and_reads_back_bit_exact(tmp_path):
    model = FremureModel(fm.ModelConfig(), nc.Rng(0).spawn(0))
    path = tmp_path / "checkpoint.json"
    _write_json(str(path), fm.checkpoint_dict(model, 0, 0))
    assert path.stat().st_size <= 3.6e6
    back = model_from_checkpoint(_json(path)).parameters()
    for name, p in model.parameters().items():
        assert back[name].data.tobytes() == p.data.tobytes(), name


def test_eval_head_or_tail_bucket_without_classes_is_null(tmp_path):
    # one test record: no class of the head bucket occurs in its labels, so
    # that bucket has no mean recall to report
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("data.clips = 2\ndata.test_clips = 1\ndata.frames = 1\n"
                   "data.pairs = 1\nmodel.d = 8\nmodel.h = 2\n"
                   "train.epochs = 1\nseed = 0\n")
    outdir = tmp_path / "tiny"
    for argv in (["gen-data", "--config", str(cfg), "--out", str(outdir)],
                 ["train", "--config", str(cfg), "--out", str(outdir)],
                 ["eval", "--checkpoint", str(outdir / "checkpoint.json"),
                  "--data", str(outdir / "test.jsonl"), "--out", str(outdir)]):
        assert main(argv) == 0
    report = json.loads((outdir / "eval_report.json").read_text(),
                        parse_constant=_reject_constant)
    empty = [(k, side) for k, buckets in report["head_tail"].items()
             for side in ("head", "tail") if buckets[side] is None]
    assert empty
    rows = {line.split(",")[0]: line.split(",")[1:]
            for line in (outdir / "eval_report.csv").read_text().splitlines()}
    ks = [str(k) for k in report["k"]]
    for k, side in empty:
        assert rows[f"{side}_recall"][ks.index(k)] == ""
    assert "nan" not in (outdir / "eval_report.csv").read_text().lower()


def test_eval_non_finite_uncertainty_aborts_with_code_3(tmp_path, capsys):
    # a predicted log-variance of 800 overflows the spatial head's aleatoric
    # variance exp(logvar) to infinity, which JSON cannot carry
    cfg, outdir = _gen(tmp_path, **{"flags.head": "bayesian"})
    assert main(["train", "--config", cfg, "--out", outdir]) == 0
    doc = _json(os.path.join(outdir, "checkpoint.json"))
    bias = _values(doc["parameters"]["heads.spat.logvar.b"])
    doc["parameters"]["heads.spat.logvar.b"] = _entry(np.full(bias.shape, 800.0))
    ckpt = tmp_path / "diverged.json"
    ckpt.write_text(json.dumps(doc))
    evaldir = tmp_path / "ev8"
    data = os.path.join(outdir, "test.jsonl")
    capsys.readouterr()
    rc = main(["eval", "--checkpoint", str(ckpt), "--data", data, "--out", str(evaldir)])
    assert rc == 3
    # scoring names the first clip with such a value, before any file exists
    err = capsys.readouterr().err
    assert f"numerical abort: clip {read_jsonl(data)[0].clip}: non-finite" in err
    assert not evaldir.exists()


@pytest.mark.parametrize("command", ["train", "ablate", "eval", "diagnose", "train-step"])
def test_huge_finite_feature_aborts_naming_its_clip(tmp_path, capsys, command):
    # 1e308 meets the record file contract, and overflows in the forward pass.
    # In test.jsonl it is in the scored split of train, ablate and eval; in
    # train.jsonl it ends a training step ("train-step"), or the gradients
    # diagnose takes of its clip on a shared trunk. Every case names the clip,
    # lets no numpy warning out, and writes no output
    cfg, outdir = _gen(tmp_path, **({"flags.decouple": "false"}
                                    if command == "diagnose" else {}))
    if command in ("eval", "diagnose"):
        assert main(["train", "--config", cfg, "--out", outdir]) == 0
    path = os.path.join(outdir, "train.jsonl" if command in ("diagnose", "train-step")
                        else "test.jsonl")
    docs = _jsonl(path)
    docs[5]["feat"][0] = 1e308
    Path(path).write_text("\n".join(json.dumps(doc) for doc in docs) + "\n")
    evaldir = tmp_path / "ev"
    checkpoint = os.path.join(outdir, "checkpoint.json")
    train = ["train", "--config", cfg, "--out", outdir]
    argv = {"train": train, "train-step": train,
            "ablate": ["ablate", "--config", cfg, "--out", outdir,
                       "--variants", "full+gmm", "--seeds-per-variant", "1"],
            "eval": ["eval", "--checkpoint", checkpoint, "--data", path,
                     "--out", str(evaldir)],
            "diagnose": ["diagnose", "--checkpoint", checkpoint, "--data", path,
                         "--out", str(evaldir)]}[command]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 3
    clip = docs[5]["clip"]
    want = {"diagnose": f"numerical abort: clip {clip}: non-finite gradient cosine",
            "train-step": f"numerical abort: non-finite loss at epoch 0, step "}.get(
        command, f"numerical abort: clip {clip}: non-finite class probability "
                 f"or uncertainty value")
    err = capsys.readouterr().err
    assert want in err
    if command == "train-step":
        assert err.rstrip().endswith(f"(clip {clip})")
    written = {"train": os.path.join(outdir, "metrics.csv"),
               "train-step": os.path.join(outdir, "metrics.csv"),
               "ablate": os.path.join(outdir, "ablation.csv"), "eval": evaldir,
               "diagnose": evaldir}
    assert not os.path.exists(written[command])


def test_eval_scores_with_the_checkpoint_seed(tmp_path, capsys):
    # a sampling head draws at eval, so only the training seed reproduces the
    # run's own last validation
    cfg, outdir = _gen(tmp_path, **{"flags.head": "bayesian"})
    assert main(["train", "--config", cfg, "--out", outdir]) == 0
    final = capsys.readouterr().out.splitlines()[-1]
    argv = ["eval", "--checkpoint", os.path.join(outdir, "checkpoint.json"),
            "--data", os.path.join(outdir, "test.jsonl"), "--out", str(tmp_path / "ev")]
    assert main(argv) == 0
    assert final == "final  " + capsys.readouterr().out.splitlines()[-1]
    assert _json(tmp_path / "ev" / "eval_manifest.json")["seed"] == 11
    assert main(argv + ["--seed", "0"]) == 0
    assert final != "final  " + capsys.readouterr().out.splitlines()[-1]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_json_output_with_non_finite_value_names_the_file(tmp_path, value):
    path = tmp_path / "out.json"
    with pytest.raises(NumericalError, match="out.json"):
        _write_json(str(path), {"a": [1.0, value]})
    assert not path.exists()


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------


def test_ablate_table_structure(tmp_path):
    cfg, outdir = _gen(tmp_path, **{"train.epochs": 0})
    assert main(["ablate", "--config", cfg, "--out", outdir, "--k", "5",
                 "--variants", "full+gmm,no-decouple,no-frequency",
                 "--seeds-per-variant", "1"]) == 0
    lines = Path(outdir, "ablation.csv").read_text().splitlines()
    assert lines[0] == "variant,seeds,mR@5_mean,mR@5_std"
    assert [row.split(",")[0] for row in lines[1:]] == [
        "full+gmm", "no-decouple", "no-frequency"]
    raw = _json(os.path.join(outdir, "ablation.json"))
    assert len(raw["results"]) == 3       # variants x seeds
    # single seed: std column is exactly zero
    assert all(row.split(",")[3] == "0.0" for row in lines[1:])


def test_ablate_unknown_variant_fails_validation(tmp_path, capsys):
    cfg, outdir = _gen(tmp_path)
    rc = main(["ablate", "--config", cfg, "--out", outdir,
               "--variants", "full+gmm,banana"])
    assert rc == 1
    assert "unknown variant 'banana'" in capsys.readouterr().err


def test_ablate_worker_pool_writes_the_same_bytes_as_one_process(tmp_path, monkeypatch):
    cfg, outdir = _gen(tmp_path)
    written = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("FREMURE_THREADS", threads)
        assert main(["ablate", "--config", cfg, "--out", outdir, "--k", "5",
                     "--constraint", "no", "--variants", "full+bayes,no-decouple",
                     "--seeds-per-variant", "2"]) == 0
        written[threads] = {name: Path(outdir, name).read_bytes()
                            for name in ("ablation.json", "ablation.csv",
                                         "ablate_manifest.json")}
    assert written["1"] == written["2"]
    manifest = json.loads(written["1"]["ablate_manifest.json"])
    assert manifest["config"]["train"]["ks"] == [5]
    assert manifest["config"]["train"]["constraint"] is False
    assert manifest["config"]["train"]["epochs"] == 1


def test_ablate_respects_worker_env_cap(tmp_path, monkeypatch):
    cfg, outdir = _gen(tmp_path, **{"train.epochs": 0})
    monkeypatch.setenv("FREMURE_THREADS", "2")
    assert main(["ablate", "--config", cfg, "--out", outdir, "--k", "5",
                 "--variants", "full+gmm,no-decouple",
                 "--seeds-per-variant", "1"]) == 0
    raw = _json(os.path.join(outdir, "ablation.json"))
    assert {r["variant"] for r in raw["results"]} == {"full+gmm", "no-decouple"}
    monkeypatch.setenv("FREMURE_THREADS", "zero")
    assert main(["ablate", "--config", cfg, "--out", outdir]) == 1


def test_variant_catalog_matches_contract():
    assert list(VARIANTS) == ["full+bayes", "full+gmm", "no-decouple",
                              "no-frequency", "no-dual-branch"]


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------


def _diagnose(tmp_path, outdir, *extra, data="train.jsonl"):
    """The output directory of `diagnose` run on ``outdir``'s checkpoint."""
    diagdir = str(tmp_path / "diag")
    assert main(["diagnose", "--checkpoint", os.path.join(outdir, "checkpoint.json"),
                 "--data", os.path.join(outdir, data), "--out", diagdir, *extra]) == 0
    return diagdir


def test_diagnose_shared_reports_bounded_cosines(tmp_path, capsys):
    cfg, outdir = _gen(tmp_path, **{"flags.decouple": "false"})
    assert main(["train", "--config", cfg, "--out", outdir]) == 0
    capsys.readouterr()
    diagdir = _diagnose(tmp_path, outdir)
    rows = _jsonl(os.path.join(diagdir, "diagnose.jsonl"))
    assert f"6 clips over {rows[0]['shared_params']} shared parameters" in \
        capsys.readouterr().out
    for row in rows:
        assert row["applicable"] and row["shared_params"] > 0
        assert set(row["cosines"]) == {"attn_spat", "attn_cont", "spat_cont"}
        assert all(-1.0 <= v <= 1.0 for v in row["cosines"].values())
    manifest = _json(os.path.join(diagdir, "diagnose_manifest.json"))
    assert manifest["config"]["model"]["flags"]["decouple"] is False
    assert set(manifest["options"]) == {"checkpoint", "data"}


def test_diagnose_decoupled_not_applicable(trained, tmp_path, capsys):
    _, outdir = trained
    capsys.readouterr()
    rows = _jsonl(os.path.join(_diagnose(tmp_path, outdir), "diagnose.jsonl"))
    assert rows == [{"clip": clip, "applicable": False, "shared_params": 0,
                     "cosines": {}} for clip in range(6)]
    assert "not applicable" in capsys.readouterr().out


def test_diagnose_can_start_from_checkpoint(tmp_path):
    # each row is grad_conflict at the checkpoint's weights, clip i drawing
    # from Rng(--seed).spawn(i); the sampling head makes the seed matter
    cfg, outdir = _gen(tmp_path, **{"flags.decouple": "false", "flags.head": "bayesian"})
    assert main(["train", "--config", cfg, "--out", outdir]) == 0
    checkpoint = os.path.join(outdir, "checkpoint.json")
    diagdir = _diagnose(tmp_path, outdir, "--seed", "5")
    rows = _jsonl(os.path.join(diagdir, "diagnose.jsonl"))
    model = model_from_checkpoint(_json(checkpoint))
    split = fm.clip_split(read_jsonl(os.path.join(outdir, "train.jsonl")), model.cfg)
    for i, row in enumerate(rows):
        want = fm.grad_conflict(model, split.view(i, i + 1), nc.Rng(5).spawn(i))
        assert row == dict(clip=i, **asdict(want))
    assert _json(os.path.join(diagdir, "diagnose_manifest.json"))["seed"] == 5
    own_seed = _jsonl(os.path.join(_diagnose(tmp_path, outdir), "diagnose.jsonl"))
    assert own_seed[0]["cosines"] != rows[0]["cosines"]


def test_diagnose_manifest_records_the_checkpoint_model(tmp_path):
    cfg, outdir = _gen(tmp_path, **{"flags.decouple": "false"})
    assert main(["train", "--config", cfg, "--out", outdir]) == 0
    checkpoint = os.path.join(outdir, "checkpoint.json")
    diagdir = _diagnose(tmp_path, outdir)
    manifest = _json(os.path.join(diagdir, "diagnose_manifest.json"))
    # the seed is the checkpoint's unless --seed is given
    assert manifest["config"] == {"model": _json(checkpoint)["config"], "seed": 11}
    assert manifest["options"] == {"checkpoint": checkpoint,
                                   "data": os.path.join(outdir, "train.jsonl")}


def test_diagnose_of_an_untrained_checkpoint_matches_trains_start_model(tmp_path):
    # a zero-epoch checkpoint is the model `train` starts from, priors from
    # the training split's label counts included
    cfg, outdir = _gen(tmp_path, **{"flags.decouple": "false", "train.epochs": 0})
    assert main(["train", "--config", cfg, "--out", outdir]) == 0
    rows = _jsonl(os.path.join(_diagnose(tmp_path, outdir), "diagnose.jsonl"))
    mcfg = parse_config(Path(cfg).read_text()).model
    split = fm.clip_split(read_jsonl(os.path.join(outdir, "train.jsonl")), mcfg)
    start = FremureModel(mcfg, nc.Rng(11).spawn(0))
    start.set_priors(fm.label_counts(split, mcfg))
    assert len(rows) == len(split)
    for i, row in enumerate(rows):
        want = fm.grad_conflict(start, split.view(i, i + 1), nc.Rng(11).spawn(i))
        assert row == dict(clip=i, **asdict(want))
        assert row["applicable"]


def test_diagnose_writes_one_row_per_clip_of_its_data(tmp_path):
    cfg, outdir = _gen(tmp_path, **{"flags.decouple": "false"})
    assert main(["train", "--config", cfg, "--out", outdir]) == 0
    data = os.path.join(outdir, "test.jsonl")
    diagdir = _diagnose(tmp_path, outdir, data="test.jsonl")
    rows = _jsonl(os.path.join(diagdir, "diagnose.jsonl"))
    assert [row["clip"] for row in rows] == [clip[0].clip
                                            for clip in group_clips(read_jsonl(data))]
    assert len(rows) == 3


@pytest.mark.parametrize("extra", [["--config", "exp.cfg"], ["--steps", "3"]])
def test_diagnose_takes_no_config_and_no_steps(trained, tmp_path, capsys, extra):
    _, outdir = trained
    diagdir = tmp_path / "diag"
    assert main(["diagnose", "--checkpoint", os.path.join(outdir, "checkpoint.json"),
                 "--data", os.path.join(outdir, "train.jsonl"),
                 "--out", str(diagdir), *extra]) == 1
    assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err
    assert not diagdir.exists()


def test_diagnose_non_finite_cosine_writes_no_directory(tmp_path, capsys):
    cfg, outdir = _gen(tmp_path, **{"flags.decouple": "false", "train.epochs": 0})
    assert main(["train", "--config", cfg, "--out", outdir]) == 0
    path = os.path.join(outdir, "train.jsonl")
    docs = _jsonl(path)
    docs[0]["feat"][0] = 1e308
    Path(path).write_text("\n".join(json.dumps(doc) for doc in docs) + "\n")
    diagdir = tmp_path / "diag"
    capsys.readouterr()
    with np.errstate(all="ignore"):
        assert main(["diagnose", "--checkpoint", os.path.join(outdir, "checkpoint.json"),
                     "--data", path, "--out", str(diagdir)]) == 3
    # the clip is named before any line is encoded
    assert (f"numerical abort: clip {docs[0]['clip']}: non-finite gradient cosine"
            in capsys.readouterr().err)
    assert not diagdir.exists()


# ---------------------------------------------------------------------------
# flag handling
# ---------------------------------------------------------------------------


def test_unknown_flag_is_validation_error(capsys):
    assert main(["train", "--definitely-not-a-flag"]) == 1
    assert "config error" in capsys.readouterr().err


def test_bad_k_list_is_validation_error(tmp_path):
    cfg, outdir = _gen(tmp_path)
    assert main(["train", "--config", cfg, "--out", outdir, "--k", "5,zebra"]) == 1
    assert main(["train", "--config", cfg, "--out", outdir, "--k", "0"]) == 1


def test_repeated_k_is_validation_error(tmp_path, capsys):
    evaldir = tmp_path / "ev"
    assert main(["eval", "--checkpoint", str(tmp_path / "none.json"), "--data",
                 str(tmp_path / "none.jsonl"), "--out", str(evaldir),
                 "--k", "10,10"]) == 1
    assert "--k: 10 is given more than once" in capsys.readouterr().err
    assert not evaldir.exists()


def test_empty_variant_list_is_validation_error(tmp_path, capsys):
    cfg, outdir = _gen(tmp_path)
    assert main(["ablate", "--config", cfg, "--out", outdir, "--variants", ","]) == 1
    assert "--variants: no value in ','" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(outdir, "ablation.csv"))


def test_repeated_variant_is_validation_error(tmp_path, capsys):
    cfg, outdir = _gen(tmp_path)
    assert main(["ablate", "--config", cfg, "--out", outdir, "--seeds-per-variant", "1",
                 "--variants", "full+gmm,full+gmm"]) == 1
    assert "--variants: 'full+gmm' is given more than once" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(outdir, "ablation.csv"))


def test_seed_flag_overrides_config(tmp_path):
    cfg, out1 = _gen(tmp_path, out="s1")
    out2 = str(tmp_path / "s2")
    assert main(["gen-data", "--config", cfg, "--out", out2, "--seed", "99"]) == 0
    m1 = _json(os.path.join(out1, "gen_data_manifest.json"))
    m2 = _json(os.path.join(out2, "gen_data_manifest.json"))
    assert m1["seed"] == 11 and m2["seed"] == 99
    assert m1["files"]["train.jsonl"] != m2["files"]["train.jsonl"]


# ---------------------------------------------------------------------------
# pinned output bytes
# ---------------------------------------------------------------------------

# sha256 of a tiny gen-data + train + eval run per configuration. A change
# to seeded streams, the checkpoint layout or any score changes these, and
# has to say so. Taken with numpy 2.4 on x86-64: a BLAS that rounds matrix
# products differently gives other hashes without any program change.
PINNED_OUTPUTS = {
    "gmm_plus": ({}, {
        "metrics.csv": "ffc94aa7155ec0454364ce2ff068415a892643f41b58050462ba860bf6ff8683",
        "checkpoint.json": "a655afd40311bf57277629ff405a1bf1651a1481a4aecd4d0b7e47ff1438ba95",
        "eval_report.json": "654435f1d2304b6af746eaf0144a84fcefc16c469543a0888a229f06f6944756",
        "eval_samples.jsonl": "f50c05642a27b1fa33cc09ffb8ddabaec2af6fc83688ffe091f25551b00ea19b",
    }),
    "bayesian-shared-margin": ({"flags.head": "bayesian", "flags.decouple": "false",
                                "model.multilabel_loss": "margin", "train.epochs": 2}, {
        "metrics.csv": "46e8195fe519deb48ae8f4ade902561a8293770ae9893739f145e39b0d5bb484",
        "checkpoint.json": "43025a6840bbb80d02878455bb41efc60b1b78ec4f30086c6fe4fecc3b4226b3",
        "eval_report.json": "9cfac0bf390633313c8fb7001e0229ca491bf1f4b5362e1000848c6eb9df756a",
        "eval_samples.jsonl": "784f073c6bdb05d63474e7740deaf611c6291964d18f2495e2e1ceb4864d0dd3",
    }),
    "linear-no-frequency": ({"flags.head": "linear", "flags.frequency": "false",
                             "model.window_mode": "triangular"}, {
        "metrics.csv": "aa97e504fce808bc07445283f3d1f8e5634331c1147a9120f7868e1ccdf32899",
        "checkpoint.json": "fb7ef87b243a7382d51426b6dd12880e605a2558315fadd0bfa1ed6cef4adbff",
        "eval_report.json": "0bda4fb64438d3add6230f80664a8d7e853260b15d4eb2a19b107f12888b76a3",
        "eval_samples.jsonl": "78e3d61fca2a10dff23ac4d7ed8d2b8cacbeaee880a21ea54a8698758ba6df6f",
    }),
}


@pytest.mark.parametrize("case", sorted(PINNED_OUTPUTS))
def test_train_and_eval_output_bytes_are_pinned(tmp_path, case):
    over, pinned = PINNED_OUTPUTS[case]
    cfg, outdir = _gen(tmp_path, **over)
    assert main(["train", "--config", cfg, "--out", outdir]) == 0
    assert main(["eval", "--checkpoint", os.path.join(outdir, "checkpoint.json"),
                 "--data", os.path.join(outdir, "test.jsonl"), "--out", outdir]) == 0
    got = {name: hashlib.sha256(Path(outdir, name).read_bytes()).hexdigest()
           for name in pinned}
    assert got == pinned
