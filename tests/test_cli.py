import json

import numpy as np
import pytest

from gasfl.cli import main
from gasfl.config import ConfigError, emit_config, emit_json, manifest_to_dict, make_manifest, parse_config

SMALL_CONFIG = {
    "experiment": {"n_clients": 6, "n_byzantine": 1, "rounds": 2,
                   "client_sample_ratio": 1.0, "repeats": 2, "master_seed": 99},
    "data": {"n_classes": 3, "n_features": 8, "per_class": 20, "r_sep": 6.0,
             "noise": 1.0, "beta": 0.5, "test_per_class": 30},
    "model": {"hidden": None, "init_scale": 0.3},
    "trainer": {"local_epochs": 1, "batch_size": 64, "learning_rate": 0.1,
                "momentum": 0.5, "weight_decay": 0.0001, "clip_norm": 2.0},
    "attack": {"kind": "lie", "z": 1.5},
    "defense": {"kind": "gas", "base": {"kind": "median"}, "p": 4,
                "selection_mode": "known_f", "delta": 0.1,
                "partition_policy": "per_round"},
}


def _write_config(tmp_path, overrides=None, name="config.json"):
    payload = json.loads(json.dumps(SMALL_CONFIG))
    for dotted, value in (overrides or {}).items():
        section, key = dotted.split(".")
        payload[section][key] = value
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return path


# run -------------------------------------------------------------------------

def test_run_produces_outputs(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "rounds.csv").read_text().strip().splitlines()
    assert rows[0] == "round,repeat,accuracy,deviation,honest_ratio,byz_count"
    assert len(rows) - 1 == 2 * 2  # rounds x repeats
    assert (out / "summary.txt").read_text().startswith("best_accuracy_mean = ")
    assert (out / "manifest.json").exists() and (out / "timings.txt").exists()


def test_run_invalid_config_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"experiment.n_byzantine": 3})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "n_byzantine" in capsys.readouterr().err


def test_run_missing_config_exits_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("path, value, needle", [
    ("trainer.clip_norm", -1.0, "trainer: clip_norm"),
    ("trainer.batch_size", 0, "trainer: batch_size"),
    ("attack.tau", 0.0, "attack: "),
    ("defense.base.iters", 0, "defense.base: "),
    ("defense.p", 0, "defense: p "),
    ("defense.p", -3, "defense: p "),
    ("defense.partition_policy", "sometimes", "defense: partition_policy"),
    ("defense.s", 0, "defense: s "),
    ("data.n_classes", 0, "data: n_classes"),
    ("data.n_features", 0, "data: n_features"),
    ("data.per_class", 0, "data: per_class"),
    ("data.test_per_class", 0, "data: test_per_class"),
    ("data.beta", 0.0, "data: beta"),
    ("model.hidden", 0, "model: hidden"),
    ("defense.p", 28, "defense.p must be <= the model dimension 27"),
])
def test_run_invalid_field_value_exits_2(tmp_path, capsys, path, value, needle):
    payload = json.loads(json.dumps(SMALL_CONFIG))
    if path == "defense.s":
        payload["defense"] = {"kind": "bucketing", "base": {"kind": "median"}, "s": 2}
    *sections, key = path.split(".")
    target = payload
    for section in sections:
        target = target[section]
    target[key] = value
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(payload))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert needle in err and "Traceback" not in err


def test_run_runtime_defense_error_exits_3(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "experiment.n_clients": 9, "experiment.n_byzantine": 4,
        "defense.kind": "bucketing", "defense.s": 3})
    payload = json.loads(cfg.read_text())
    payload["defense"].pop("p"), payload["defense"].pop("selection_mode")
    payload["defense"].pop("delta"), payload["defense"].pop("partition_policy")
    cfg.write_text(json.dumps(payload))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert "round" in capsys.readouterr().err


def test_run_byte_identical_reruns(tmp_path):
    cfg = _write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ["rounds.csv", "summary.txt", "manifest.json"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_seed_override_changes_output(tmp_path):
    cfg = _write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out2), "--seed", "123"]) == 0
    assert (out1 / "rounds.csv").read_bytes() != (out2 / "rounds.csv").read_bytes()


# sweep --------------------------------------------------------------------------

def test_sweep_delta(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--axis", "delta",
                 "--values", "0.1,0.3", "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0].startswith("delta,repeat,")
    assert len(lines) - 1 == 2 * 2  # values x repeats
    assert (out / "delta_0.1" / "rounds.csv").exists()
    assert (out / "delta_0.3" / "summary.txt").exists()


def test_sweep_p_and_beta_and_n(tmp_path):
    cfg = _write_config(tmp_path)
    for axis, values in [("p", "1,4"), ("beta", "0.3,0.7"), ("f", "1,2"), ("n", "6,8")]:
        out = tmp_path / f"sweep_{axis}"
        assert main(["sweep", "--config", str(cfg), "--axis", axis,
                     "--values", values, "--out", str(out)]) == 0, axis
        assert (out / "sweep.csv").exists()


def test_sweep_axis_defense_mismatch_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"defense.kind": "plain"})
    payload = json.loads(cfg.read_text())
    for key in ["p", "selection_mode", "delta", "partition_policy"]:
        payload["defense"].pop(key)
    cfg.write_text(json.dumps(payload))
    assert main(["sweep", "--config", str(cfg), "--axis", "delta",
                 "--values", "0.1", "--out", str(tmp_path / "o")]) == 2
    assert "gas" in capsys.readouterr().err


def test_sweep_non_integer_value_for_integer_axis(tmp_path):
    cfg = _write_config(tmp_path)
    assert main(["sweep", "--config", str(cfg), "--axis", "p",
                 "--values", "1.5", "--out", str(tmp_path / "o")]) == 2


def test_sweep_p_above_model_dimension_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main(["sweep", "--config", str(cfg), "--axis", "p",
                 "--values", "4,28", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "defense.p must be <= the model dimension 27" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_sweep_byte_identical_reruns(tmp_path):
    cfg = _write_config(tmp_path)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    args = ["sweep", "--config", str(cfg), "--axis", "delta", "--values", "0.1,0.3"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ["sweep.csv", "delta_0.1/rounds.csv", "delta_0.3/rounds.csv"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# certify ---------------------------------------------------------------------------

def test_certify_median_writes_report(tmp_path):
    out = tmp_path / "report.txt"
    assert main(["certify", "--rule", "median", "--n", "10", "--f", "2",
                 "--dim", "1", "--trials", "50", "--seed", "7", "--out", str(out)]) == 0
    text = out.read_text()
    fields = dict(line.split(" = ") for line in text.strip().splitlines())
    assert fields["rule"] == "median" and int(fields["trials"]) == 50
    assert np.isfinite(float(fields["lambda_hat"]))


def test_certify_mean_f0_lambda_zero(capsys):
    assert main(["certify", "--rule", "mean", "--n", "8", "--f", "0",
                 "--trials", "20", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "lambda_hat = 0" in out


def test_certify_constraint_violation_exits_2(capsys):
    assert main(["certify", "--rule", "bulyan", "--n", "5", "--f", "1",
                 "--trials", "5", "--seed", "1"]) == 2
    assert "4f+2" in capsys.readouterr().err


def test_certify_reproducible(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ["certify", "--rule", "trimmed_mean", "--n", "9", "--f", "2",
            "--dim", "3", "--trials", "40", "--seed", "5"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# oracle ---------------------------------------------------------------------------

@pytest.mark.parametrize("suite", ["median", "trimmed_mean", "krum", "bulyan",
                                   "weiszfeld", "dnc", "gas"])
def test_oracle_suites_pass(suite, capsys):
    assert main(["oracle", "--suite", suite, "--seed", "3", "--instances", "60"]) == 0
    assert "max_discrepancy" in capsys.readouterr().out


def test_oracle_injected_fault_detected(capsys):
    assert main(["oracle", "--suite", "median", "--seed", "3",
                 "--instances", "10", "--inject-fault"]) == 1
    assert "FAILED" in capsys.readouterr().err


# config round-trips -------------------------------------------------------------------

def test_config_roundtrip_canonical(tmp_path):
    cfg_path = _write_config(tmp_path)
    parsed = parse_config(cfg_path.read_text())
    canonical = emit_config(parsed)
    assert emit_config(parse_config(canonical)) == canonical


def test_config_field_level_errors():
    with pytest.raises(ConfigError, match="attack.kind"):
        parse_config(json.dumps({**SMALL_CONFIG, "attack": {"kind": "nope"}}))
    with pytest.raises(ConfigError, match="defense.delta"):
        bad = json.loads(json.dumps(SMALL_CONFIG))
        bad["defense"]["delta"] = 0.7
        parse_config(json.dumps(bad))
    with pytest.raises(ConfigError, match="unknown field"):
        bad = json.loads(json.dumps(SMALL_CONFIG))
        bad["trainer"]["warmup"] = 3
        parse_config(json.dumps(bad))
    with pytest.raises(ConfigError, match="missing"):
        parse_config(json.dumps({"experiment": {"n_clients": 4}}))


def test_manifest_roundtrip():
    cfg = parse_config(json.dumps(SMALL_CONFIG))
    manifest = make_manifest(cfg, {"rounds_csv": "rounds.csv"})
    payload = emit_json(manifest_to_dict(manifest))
    from gasfl.config import parse_manifest
    again = parse_manifest(payload)
    assert emit_json(manifest_to_dict(again)) == payload
