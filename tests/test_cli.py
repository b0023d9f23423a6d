"""End-to-end checks of the command-line layer: config parsing, the five
subcommands, exit codes, and byte-level determinism of the written artifacts."""

import json
import os

import numpy as np
import pytest

from fremure import numcore as nc
from fremure import model as fm
from fremure.cli import (ConfigError, ExperimentConfig, main, parse_config,
                         VARIANTS)
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
    with pytest.raises(ConfigError) as exc:
        parse_config(BASE_CFG + "model.raw_dim = 99\n")
    assert any("contradicts data.d" in p for p in exc.value.problems)


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
    prior = json.load(open(os.path.join(outdir, "prior.json")))
    assert set(prior) == {"attn", "spat", "cont"}
    assert len(prior["attn"]["counts"]) == 4


def test_gen_data_same_seed_same_manifest(tmp_path):
    cfg, out1 = _gen(tmp_path, out="a")
    out2 = str(tmp_path / "b")
    assert main(["gen-data", "--config", cfg, "--out", out2]) == 0
    m1 = open(os.path.join(out1, "gen_data_manifest.json"), "rb").read()
    m2 = open(os.path.join(out2, "gen_data_manifest.json"), "rb").read()
    assert m1 == m2


def test_gen_data_zero_clips_names_the_field(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, **{"data.clips": 0})
    assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "clips must be >= 1" in capsys.readouterr().err


def test_missing_config_file_is_io_error(tmp_path):
    assert main(["gen-data", "--config", str(tmp_path / "nope.cfg")]) == 2


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_writes_metrics_and_checkpoint(tmp_path):
    cfg, outdir = _gen(tmp_path)
    assert main(["train", "--config", cfg, "--out", outdir, "--k", "5,10"]) == 0
    lines = open(os.path.join(outdir, "metrics.csv")).read().splitlines()
    assert lines[0] == "epoch,L_a,L_s,L_c,reg,mR@5,mR@10"
    assert len(lines) == 2                # one epoch
    ckpt = json.load(open(os.path.join(outdir, "checkpoint.json")))
    model = model_from_checkpoint(ckpt)
    assert model.cfg.d == 8


def test_train_identical_runs_are_byte_identical(tmp_path):
    cfg, outdir = _gen(tmp_path)
    assert main(["train", "--config", cfg, "--out", outdir]) == 0
    first_csv = open(os.path.join(outdir, "metrics.csv"), "rb").read()
    first_ckpt = open(os.path.join(outdir, "checkpoint.json"), "rb").read()
    assert main(["train", "--config", cfg, "--out", outdir]) == 0
    assert open(os.path.join(outdir, "metrics.csv"), "rb").read() == first_csv
    assert open(os.path.join(outdir, "checkpoint.json"), "rb").read() == first_ckpt


def test_train_zero_epochs_checkpoint_equals_initialization(tmp_path):
    cfg, outdir = _gen(tmp_path, **{"train.epochs": 0})
    assert main(["train", "--config", cfg, "--out", outdir]) == 0
    stored = model_from_checkpoint(
        json.load(open(os.path.join(outdir, "checkpoint.json"))))
    exp = parse_config(open(cfg).read())
    fresh = FremureModel(exp.model, nc.Rng(11).spawn(0))
    for name, p in fresh.parameters().items():
        np.testing.assert_array_equal(stored.parameters()[name].data, p.data)


def test_train_missing_dataset_is_io_error(tmp_path, capsys):
    cfg = _cfg_file(tmp_path)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "empty")]) == 2
    assert "missing dataset file" in capsys.readouterr().err


def test_train_non_finite_loss_aborts_with_code_3(tmp_path, capsys):
    cfg, outdir = _gen(tmp_path)
    path = os.path.join(outdir, "train.jsonl")
    lines = open(path).read().splitlines()
    doc = json.loads(lines[0])
    doc["feat"] = [float("inf")] * len(doc["feat"])
    lines[0] = json.dumps(doc)
    open(path, "w").write("\n".join(lines) + "\n")
    assert main(["train", "--config", cfg, "--out", outdir]) == 3
    assert "non-finite loss" in capsys.readouterr().err


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
    lines = open(os.path.join(evaldir, "eval_report.csv")).read().splitlines()
    assert lines[0] == "metric,K=10,K=20,K=50"
    assert [row.split(",")[0] for row in lines[1:]] == [
        "recall", "mean_recall", "head_recall", "tail_recall"]

    # numbers must match the library evaluation of the same checkpoint
    report = json.load(open(os.path.join(evaldir, "eval_report.json")))
    model = model_from_checkpoint(json.load(open(ckpt)))
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
    rows = [json.loads(l) for l in
            open(os.path.join(evaldir, "eval_samples.jsonl"))]
    assert len(rows) == len(read_jsonl(data))
    for key in ("attn_aleatoric", "spat_epistemic", "cont_aleatoric"):
        assert all(np.isfinite(row[key]) for row in rows)


def test_eval_runs_one_forward_per_clip(tmp_path, monkeypatch):
    cfg, outdir = _gen(tmp_path, **{"flags.head": "bayesian"})
    assert main(["train", "--config", cfg, "--out", outdir]) == 0
    ckpt = os.path.join(outdir, "checkpoint.json")
    data = os.path.join(outdir, "test.jsonl")
    calls = []
    forward = FremureModel.forward

    def counting(self, clip, *args, **kwargs):
        calls.append(clip[0].clip)
        return forward(self, clip, *args, **kwargs)

    monkeypatch.setattr(FremureModel, "forward", counting)
    evaldir = str(tmp_path / "ev5")
    assert main(["eval", "--checkpoint", ckpt, "--data", data,
                 "--out", evaldir, "--seed", "4"]) == 0
    monkeypatch.undo()
    clips = group_clips(read_jsonl(data))
    assert calls == [clip[0].clip for clip in clips]

    # the written rows are the reports of a fresh forward with the same
    # per-clip sampling streams
    rows = [json.loads(line) for line in
            open(os.path.join(evaldir, "eval_samples.jsonl"))]
    model = model_from_checkpoint(json.load(open(ckpt)))
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
    docs = [json.loads(l) for l in open(path)]
    for doc in docs:
        doc["spat"] = doc["spat"][:-1]
    open(path, "w").write("\n".join(json.dumps(d) for d in docs) + "\n")
    rc = main(["eval", "--checkpoint", os.path.join(outdir, "checkpoint.json"),
               "--data", path, "--out", str(tmp_path / "ev3")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "2" in err and "3" in err    # dataset width vs model width


def test_eval_rejects_non_checkpoint_json(trained, tmp_path):
    _, outdir = trained
    rc = main(["eval", "--checkpoint", os.path.join(outdir, "prior.json"),
               "--data", os.path.join(outdir, "test.jsonl"),
               "--out", str(tmp_path / "ev4")])
    assert rc == 1


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------


def test_ablate_table_structure(tmp_path):
    cfg, outdir = _gen(tmp_path, **{"train.epochs": 0})
    assert main(["ablate", "--config", cfg, "--out", outdir, "--k", "5",
                 "--variants", "full+gmm,no-decouple,no-frequency",
                 "--seeds-per-variant", "1"]) == 0
    lines = open(os.path.join(outdir, "ablation.csv")).read().splitlines()
    assert lines[0] == "variant,seeds,mR@5_mean,mR@5_std"
    assert [row.split(",")[0] for row in lines[1:]] == [
        "full+gmm", "no-decouple", "no-frequency"]
    raw = json.load(open(os.path.join(outdir, "ablation.json")))
    assert len(raw["results"]) == 3       # variants x seeds
    # single seed: std column is exactly zero
    assert all(row.split(",")[3] == "0.0" for row in lines[1:])


def test_ablate_unknown_variant_fails_validation(tmp_path, capsys):
    cfg, outdir = _gen(tmp_path)
    rc = main(["ablate", "--config", cfg, "--out", outdir,
               "--variants", "full+gmm,banana"])
    assert rc == 1
    assert "unknown variant 'banana'" in capsys.readouterr().err


def test_ablate_respects_worker_env_cap(tmp_path, monkeypatch):
    cfg, outdir = _gen(tmp_path, **{"train.epochs": 0})
    monkeypatch.setenv("FREMURE_THREADS", "2")
    assert main(["ablate", "--config", cfg, "--out", outdir, "--k", "5",
                 "--variants", "full+gmm,no-decouple",
                 "--seeds-per-variant", "1"]) == 0
    raw = json.load(open(os.path.join(outdir, "ablation.json")))
    assert {r["variant"] for r in raw["results"]} == {"full+gmm", "no-decouple"}
    monkeypatch.setenv("FREMURE_THREADS", "zero")
    assert main(["ablate", "--config", cfg, "--out", outdir]) == 1


def test_variant_catalog_matches_contract():
    assert list(VARIANTS) == ["full+bayes", "full+gmm", "no-decouple",
                              "no-frequency", "no-dual-branch"]


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------


def test_diagnose_shared_reports_bounded_cosines(tmp_path):
    cfg, outdir = _gen(tmp_path)
    assert main(["diagnose", "--config", cfg, "--out", outdir,
                 "--steps", "3", "--shared"]) == 0
    rows = [json.loads(l) for l in open(os.path.join(outdir, "diagnose.jsonl"))]
    assert [row["step"] for row in rows] == [1, 2, 3]
    for row in rows:
        assert row["applicable"] and row["shared_params"] > 0
        assert set(row["cosines"]) == {"attn_spat", "attn_cont", "spat_cont"}
        assert all(-1.0 <= v <= 1.0 for v in row["cosines"].values())


def test_diagnose_decoupled_not_applicable(tmp_path, capsys):
    cfg, outdir = _gen(tmp_path)
    assert main(["diagnose", "--config", cfg, "--out", outdir,
                 "--steps", "1"]) == 0
    row = json.loads(open(os.path.join(outdir, "diagnose.jsonl")).readline())
    assert row == {"step": 1, "applicable": False, "shared_params": 0,
                   "cosines": {}}
    assert "not applicable" in capsys.readouterr().out


def test_diagnose_can_start_from_checkpoint(tmp_path):
    cfg, outdir = _gen(tmp_path, **{"flags.decouple": "false"})
    assert main(["train", "--config", cfg, "--out", outdir]) == 0
    assert main(["diagnose", "--config", cfg, "--out", outdir,
                 "--checkpoint", os.path.join(outdir, "checkpoint.json"),
                 "--steps", "1"]) == 0
    row = json.loads(open(os.path.join(outdir, "diagnose.jsonl")).readline())
    assert row["applicable"]


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


def test_seed_flag_overrides_config(tmp_path):
    cfg, out1 = _gen(tmp_path, out="s1")
    out2 = str(tmp_path / "s2")
    assert main(["gen-data", "--config", cfg, "--out", out2, "--seed", "99"]) == 0
    m1 = json.load(open(os.path.join(out1, "gen_data_manifest.json")))
    m2 = json.load(open(os.path.join(out2, "gen_data_manifest.json")))
    assert m1["seed"] == 11 and m2["seed"] == 99
    assert m1["files"]["train.jsonl"] != m2["files"]["train.jsonl"]
