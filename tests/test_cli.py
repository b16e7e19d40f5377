import json

import numpy as np
import pytest

from gasfl.aggregators import KINDS as AGR_KINDS
from gasfl.attacks import KINDS as ATTACK_KINDS
from gasfl.cli import main
from gasfl.config import ConfigError, emit_config, emit_json, manifest, parse_config

SMALL_CONFIG = {
    "experiment": {"n_clients": 6, "n_byzantine": 1, "rounds": 2,
                   "client_sample_ratio": 1.0, "repeats": 2, "master_seed": 99},
    "data": {"n_classes": 3, "n_features": 8, "per_class": 20, "r_sep": 6.0,
             "noise": 1.0, "beta": 0.5, "test_per_class": 30},
    "model": {"hidden": None, "init_scale": 0.3},
    "trainer": {"local_epochs": 1, "batch_size": 64, "learning_rate": 0.1,
                "momentum": 0.5, "weight_decay": 0.0001, "clip_norm": 2.0},
    "attack": {"kind": "lie", "z": 1.5},
    "defense": {"kind": "gas", "base": {"kind": "median"}, "p": 4, "delta": None,
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
    # p = 40 fits only the hidden model: d = 51 with hidden 4, and 27 without
    for name, overrides in [("linear", {}), ("hidden", {"model.hidden": 4, "defense.p": 40})]:
        cfg = _write_config(tmp_path, overrides, name=f"{name}.json")
        out = tmp_path / name
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "rounds.csv").read_text().strip().splitlines()
        assert rows[0] == "round,repeat,accuracy,deviation,honest_ratio,byz_count,f_excess"
        assert len(rows) - 1 == 2 * 2  # rounds x repeats
        assert (out / "summary.txt").read_text().startswith("best_accuracy_mean = ")
        assert (out / "manifest.json").exists() and (out / "timings.txt").exists()


def test_run_invalid_config_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"experiment.n_byzantine": 3})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "n_byzantine" in capsys.readouterr().err


def test_run_missing_config_exits_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 2


def test_gas_delta_sets_selection():
    # (count handed to the base rule, rows) for 10 clients holding 1 Byzantine
    payload = json.loads(json.dumps(SMALL_CONFIG))
    assert parse_config(json.dumps(payload)).defense.base_input(10, 1) == (1, 10)
    payload["defense"]["delta"] = 0.3
    assert parse_config(json.dumps(payload)).defense.base_input(10, 1) == (3, 10)


@pytest.mark.parametrize("path, value, needle", [
    ("trainer.clip_norm", -1.0, "trainer.clip_norm: clip_norm"),
    ("trainer.batch_size", 0, "trainer.batch_size: batch_size"),
    ("attack.tau", 0.0, "attack.tau: tau "),
    ("attack.gamma_init", 0.0, "attack.gamma_init: gamma_init "),
    ("defense.base.iters", 0, "defense.base.iters: iters"),
    ("defense.base.eps", 0.0, "defense.base.eps: eps "),
    ("defense.base.b", 0, "defense.base.b: b "),
    ("defense.p", 0, "defense.p: p "),
    ("defense.p", -3, "defense.p: p "),
    ("defense.partition_policy", "sometimes", "defense.partition_policy: partition_policy"),
    ("defense.delta", 0.5, "defense.delta: delta "),
    ("defense.s", 0, "defense.s: s "),
    ("data.n_classes", 0, "data.n_classes: n_classes"),
    ("data.n_features", 0, "data.n_features: n_features"),
    ("data.per_class", 0, "data.per_class: per_class"),
    ("data.test_per_class", 0, "data.test_per_class: test_per_class"),
    ("data.beta", 0.0, "data.beta: beta"),
    ("model.hidden", 0, "model.hidden: hidden"),
    ("experiment.repeats", 0, "experiment.repeats: repeats "),
    ("experiment.client_sample_ratio", 0.0, "experiment.client_sample_ratio: client_sample_ratio "),
    ("experiment.client_sample_ratio", 0.01, "experiment.client_sample_ratio: client_sample_ratio "),
    ("data.noise", -1.0, "data.noise: noise "),
    ("data.r_sep", -5.0, "data.r_sep: r_sep "),
    ("model.init_scale", -1.0, "model.init_scale: init_scale "),
    ("defense.p", 28, "defense.p must be <= the model dimension 27"),
    ("defense.base.c", -1.0, "defense.base.c: c "),
    ("defense.base.niters", 0, "defense.base.niters: niters "),
    # with every client sampled, round 0 would exceed the defense's bound
    ("experiment.n_byzantine", 2, "experiment.n_byzantine: n_byzantine is out of"),
    ("defense.delta", 0.3, "defense.delta: defense.delta is out of"),
    ("defense.s", 3, "defense.s: defense.s is out of"),
    # JSON's NaN and Infinity literals pass every `<= 0` check but are no setting
    ("defense.base.eps", float("nan"), "defense.base.eps: must be finite"),
    ("trainer.learning_rate", float("nan"), "trainer.learning_rate: must be finite"),
    ("trainer.clip_norm", float("nan"), "trainer.clip_norm: must be finite"),
    ("data.beta", float("nan"), "data.beta: must be finite"),
    ("attack.tau", float("nan"), "attack.tau: must be finite"),
    ("attack.gamma_init", float("nan"), "attack.gamma_init: must be finite"),
    ("trainer.learning_rate", float("inf"), "trainer.learning_rate: must be finite"),
    # a sign typo would train by gradient ascent
    ("trainer.learning_rate", -0.1, "trainer.learning_rate: learning_rate "),
    ("trainer.momentum", 1.0, "trainer.momentum: momentum "),
    ("trainer.weight_decay", -1e-4, "trainer.weight_decay: weight_decay "),
    # gas selection is set by delta alone; the former switch is no field
    ("defense.selection_mode", "ratio", "defense.selection_mode: unknown field"),
    # an integer past int64 would fail in numpy's allocator or alias a seed
    ("experiment.n_clients", 10**30, "experiment.n_clients: must lie within int64"),
    ("experiment.rounds", 2**63, "experiment.rounds: must lie within int64"),
    ("experiment.master_seed", 2**63, "experiment.master_seed: must lie within int64"),
    ("experiment.master_seed", -2**63 - 1, "experiment.master_seed: must lie within int64"),
    ("data.per_class", 2**63, "data.per_class: must lie within int64"),
    ("trainer.batch_size", 2**63, "trainer.batch_size: must lie within int64"),
])
def test_run_invalid_field_value_exits_2(tmp_path, capsys, path, value, needle):
    payload = json.loads(json.dumps(SMALL_CONFIG))
    if path == "defense.s":
        payload["defense"] = {"kind": "bucketing", "base": {"kind": "median"}, "s": 2}
    elif path in ("defense.base.c", "defense.base.niters"):
        payload["defense"] = {"kind": "plain", "base": {"kind": "dnc"}}
    elif path == "experiment.n_byzantine":
        payload["defense"] = {"kind": "plain", "base": {"kind": "bulyan"}}
    elif (path, value) == ("defense.delta", 0.3):
        payload["defense"]["base"] = {"kind": "bulyan"}
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


def _plain_multi_krum_config(tmp_path, overrides):
    cfg = _write_config(tmp_path, {**overrides, "defense.kind": "plain",
                                   "defense.base": {"kind": "multi_krum"}})
    payload = json.loads(cfg.read_text())
    for key in ["p", "delta", "partition_policy"]:
        payload["defense"].pop(key)
    cfg.write_text(json.dumps(payload))
    return cfg


def test_run_runtime_defense_error_exits_3(tmp_path, capsys):
    # 3 of 50 clients sampled, which Multi-Krum takes at f = 0, but most
    # shards are empty, so round 0 keeps fewer than the 3 clients it needs
    cfg = _plain_multi_krum_config(tmp_path, {
        "experiment.n_clients": 50, "experiment.n_byzantine": 10,
        "experiment.client_sample_ratio": 0.06, "experiment.master_seed": 0,
        "data.n_classes": 10, "data.per_class": 2, "attack.kind": "none"})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "round" in err
    assert "defense failed" in err


def test_run_sample_too_small_for_the_rule_exits_2(tmp_path, capsys):
    # 2 of 9 clients sampled: Multi-Krum needs 3 at any f, so no round could run
    cfg = _plain_multi_krum_config(tmp_path, {
        "experiment.n_clients": 9, "experiment.n_byzantine": 4,
        "experiment.client_sample_ratio": 0.22})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "experiment.client_sample_ratio: client_sample_ratio 0.22 samples 2 of 9" in err


def test_run_byte_identical_reruns(tmp_path):
    cfg = _write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ["rounds.csv", "summary.txt", "manifest.json"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_seed_outside_int64_exits_2(tmp_path, capsys):
    # 2**64 + 5 would draw the streams of seed 5 and record a seed it did not use
    cfg = _write_config(tmp_path)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--seed", str(2**64 + 5)]) == 2
    err = capsys.readouterr().err
    assert "experiment.master_seed: must lie within int64" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


SEED_COMMANDS = {"certify": ["certify", "--rule", "median", "--n", "10", "--f", "2", "--trials", "3"],
                 "oracle": ["oracle", "--suite", "median", "--instances", "3"]}


@pytest.mark.parametrize("command", SEED_COMMANDS)
def test_seed_flag_outside_int64_exits_2(command, capsys):
    # SeedSpec's 64-bit mask would draw the streams of seed 5
    with pytest.raises(SystemExit) as exc:
        main([*SEED_COMMANDS[command], "--seed", str(2**64 + 5)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "argument --seed: must lie within int64" in captured.err and captured.out == ""


@pytest.mark.parametrize("command", SEED_COMMANDS)
@pytest.mark.parametrize("seed", [2**63 - 1, -2**63])
def test_seed_flag_at_int64_bounds_runs(command, seed, capsys):
    assert main([*SEED_COMMANDS[command], "--seed", str(seed)]) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("seed", [2**63 - 1, -2**63])
def test_master_seed_at_int64_bounds_parses(seed):
    payload = json.loads(json.dumps(SMALL_CONFIG))
    payload["experiment"]["master_seed"] = seed
    assert parse_config(json.dumps(payload)).master_seed == seed
    assert parse_config(json.dumps(SMALL_CONFIG), {"experiment.master_seed": seed}).master_seed == seed


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
    for key in ["p", "delta", "partition_policy"]:
        payload["defense"].pop(key)
    cfg.write_text(json.dumps(payload))
    assert main(["sweep", "--config", str(cfg), "--axis", "delta",
                 "--values", "0.1", "--out", str(tmp_path / "o")]) == 2
    assert "defense.delta: unknown field" in capsys.readouterr().err


def test_sweep_non_integer_value_for_integer_axis(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main(["sweep", "--config", str(cfg), "--axis", "p",
                 "--values", "1.5", "--out", str(tmp_path / "o")]) == 2
    # a non-finite value, on any axis, is a config error that names the field
    for axis, value in [("p", "inf"), ("p", "1e400"), ("f", "inf"), ("n", "nan"), ("beta", "-inf")]:
        assert main(["sweep", "--config", str(cfg), "--axis", axis,
                     "--values", f"4,{value}", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"values: sweep values must be finite, got {value}" in err and "Traceback" not in err
    # so is a value that is no number; an integer outside int64 names its field
    for axis, values, needle in [("p", "4,abc", "values: sweep values must be numbers, got abc"),
                                 ("n", "4,1e300", "experiment.n_clients: must lie within int64"),
                                 ("f", "1,-1e19", "experiment.n_byzantine: must lie within int64")]:
        assert main(["sweep", "--config", str(cfg), "--axis", axis,
                     "--values", values, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert needle in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, args", [("run", []), ("sweep", ["--axis", "n", "--values", "6"])])
def test_config_too_big_to_allocate_exits_3(tmp_path, capsys, monkeypatch, command, args):
    # n_clients = 10**18 passes every parse-time check and fails in numpy's
    # allocator; the stub raises what that allocation raises, allocating nothing
    def too_big(cfg):
        raise MemoryError("Unable to allocate 6.94 EiB for an array with shape (10**18,)")

    monkeypatch.setattr("gasfl.cli.run_experiment", too_big)
    cfg = _write_config(tmp_path)
    assert main([command, "--config", str(cfg), *args, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"{command} failed: Unable to allocate 6.94 EiB") and "Traceback" not in err


@pytest.mark.parametrize("path, file_value, axis, sweep_value, message", [
    ("experiment.n_clients", 10**300, "n", "1e300",
     "experiment.n_clients: must lie within int64 [-2**63, 2**63)"),
    ("defense.p", 2.5, "p", "2.5", "defense.p: expected int, got float"),
    ("defense.delta", 0.1, "delta", "0.1", "defense.delta: unknown field"),
], ids=["n", "p", "delta"])
def test_file_and_sweep_reject_a_value_alike(tmp_path, capsys, path, file_value, axis, sweep_value, message):
    # one validator: a bad value reads the same from a config file and from a sweep axis
    payload = json.loads(json.dumps(SMALL_CONFIG))
    if axis == "delta":
        payload["defense"] = {"kind": "plain", "base": {"kind": "median"}}
    base = tmp_path / "base.json"
    base.write_text(json.dumps(payload))
    section, key = path.split(".")
    payload[section][key] = file_value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "run")]) == 2
    from_file = capsys.readouterr().err
    assert main(["sweep", "--config", str(base), "--axis", axis,
                 "--values", sweep_value, "--out", str(tmp_path / "sweep")]) == 2
    from_sweep = capsys.readouterr().err
    assert from_file == f"invalid config: {message}\n"
    assert from_sweep == f"invalid sweep: {message}\n"
    assert not (tmp_path / "run").exists() and not (tmp_path / "sweep").exists()


def test_sweep_p_above_model_dimension_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main(["sweep", "--config", str(cfg), "--axis", "p",
                 "--values", "4,28", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "defense.p must be <= the model dimension 27" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("axis, values, clash", [
    ("beta", "0.5,0.50000001", "0.5 and 0.50000001 would share the directory beta_0.5/"),
    ("n", "6,8,6", "6.0 and 6.0 would share the directory n_6/"),
])
def test_sweep_values_sharing_a_directory_exit_2(tmp_path, capsys, axis, values, clash):
    cfg = _write_config(tmp_path)
    assert main(["sweep", "--config", str(cfg), "--axis", axis,
                 "--values", values, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"values: {clash}" in err
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


def test_certify_far_colluders_give_a_finite_lambda(capsys):
    # colluders at 1e200 pull the mean about 1e199 away, a norm whose square
    # passes the float range
    assert main(["certify", "--rule", "mean", "--n", "10", "--f", "1",
                 "--trials", "2", "--scale", "1e200"]) == 0
    assert "lambda_hat = 2.9807878841004848e+198\n" in capsys.readouterr().out


def test_certify_constraint_violation_exits_2(capsys):
    assert main(["certify", "--rule", "bulyan", "--n", "5", "--f", "1",
                 "--trials", "5", "--seed", "1"]) == 2
    assert "4f+2" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,field", [("--dim", "0", "dim"), ("--scale", "nan", "adversary_scale"),
                                              ("--f", "7", "f"), ("--n", "1", "n")])
def test_certify_degenerate_setup_exits_2(flag, value, field, capsys):
    # each would skip or poison every trial and report lambda_hat = nan, or
    # fail inside the first draw (n - f < 0 honest rows)
    assert main(["certify", "--rule", "median", "--n", "5", "--f", "0",
                 "--trials", "5", "--seed", "1", flag, value]) == 2
    err = capsys.readouterr().err
    assert f"invalid certification setup: {field} must be" in err and "Traceback" not in err


def test_certify_too_big_to_allocate_exits_3(capsys, monkeypatch):
    # --dim 1e11 fails in numpy's allocator; the stub raises what that
    # allocation raises, allocating nothing
    def too_big(*args, **kwargs):
        raise MemoryError("Unable to allocate 5.82 TiB for an array with shape (8, 100000000000)")

    monkeypatch.setattr("gasfl.cli.estimate_resilience", too_big)
    assert main(["certify", "--rule", "median", "--n", "10", "--f", "2",
                 "--dim", "100000000000", "--trials", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("certify failed: Unable to allocate 5.82 TiB") and "Traceback" not in err


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


@pytest.mark.parametrize("suite, instances", [("median", "0"), ("gas", "-3")])
def test_oracle_without_instances_exits_2(suite, instances, capsys):
    # no instance checked is no pass
    assert main(["oracle", "--suite", suite, "--instances", instances]) == 2
    captured = capsys.readouterr()
    assert f"invalid oracle suite: instances must be >= 1, got {instances}" in captured.err
    assert "max_discrepancy" not in captured.out


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


# Only the required fields: every other field is emitted at its dataclass default.
MINIMAL_CONFIG = {
    "experiment": {"n_clients": 50, "n_byzantine": 10, "rounds": 200},
    "attack": {"kind": "lie"},
    "defense": {"kind": "gas", "base": {"kind": "median"}, "p": 650},
}


def _canonical(section_lines: dict[str, str]) -> str:
    return "{\n" + ",\n".join(section_lines.values()) + "\n}\n"


_MINIMAL_SECTIONS = {
    "attack": '''  "attack": {
    "epsilon": 0.5,
    "gamma_init": 10.0,
    "kind": "lie",
    "tau": 1e-05,
    "z": 1.5
  }''',
    "data": '''  "data": {
    "beta": 0.5,
    "n_classes": 10,
    "n_features": 64,
    "noise": 1.75,
    "per_class": 50,
    "r_sep": 7.0,
    "test_per_class": 1000
  }''',
    "defense": '''  "defense": {
    "base": {
      "b": 10000,
      "c": 4.0,
      "eps": 1e-08,
      "iters": 3,
      "kind": "median",
      "niters": 1
    },
    "delta": null,
    "kind": "gas",
    "p": 650,
    "partition_policy": "per_round"
  }''',
    "experiment": '''  "experiment": {
    "client_sample_ratio": 1.0,
    "master_seed": 0,
    "n_byzantine": 10,
    "n_clients": 50,
    "repeats": 5,
    "rounds": 200
  }''',
    "model": '''  "model": {
    "hidden": null,
    "init_scale": 0.3
  }''',
    "trainer": '''  "trainer": {
    "batch_size": 64,
    "clip_norm": 2.0,
    "learning_rate": 0.1,
    "local_epochs": 5,
    "momentum": 0.5,
    "weight_decay": 0.0001
  }''',
}

_SMALL_SECTIONS = {
    "attack": _MINIMAL_SECTIONS["attack"],
    "data": '''  "data": {
    "beta": 0.5,
    "n_classes": 3,
    "n_features": 8,
    "noise": 1.0,
    "per_class": 20,
    "r_sep": 6.0,
    "test_per_class": 30
  }''',
    "defense": _MINIMAL_SECTIONS["defense"].replace('"p": 650', '"p": 4'),
    "experiment": '''  "experiment": {
    "client_sample_ratio": 1.0,
    "master_seed": 99,
    "n_byzantine": 1,
    "n_clients": 6,
    "repeats": 2,
    "rounds": 2
  }''',
    "model": _MINIMAL_SECTIONS["model"],
    "trainer": _MINIMAL_SECTIONS["trainer"].replace('"local_epochs": 5', '"local_epochs": 1'),
}


@pytest.mark.parametrize("payload, expected", [
    (SMALL_CONFIG, _canonical(_SMALL_SECTIONS)),
    (MINIMAL_CONFIG, _canonical(_MINIMAL_SECTIONS)),
], ids=["small", "minimal"])
def test_emit_config_pinned_bytes(payload, expected):
    assert emit_config(parse_config(json.dumps(payload))) == expected
    assert emit_config(parse_config(expected)) == expected


_FLOAT_FIELDS = {"eps", "c", "delta", "z", "gamma_init", "tau", "epsilon", "clip_norm"}
_DEFENSE_FIELDS = {"plain": {}, "bucketing": {"s": 2},
                   "gas": {"p": 4, "delta": 0.125, "partition_policy": "fixed"}}
_ROUNDTRIP_CASES = [
    *(pytest.param(("defense",), {"kind": kind, **fields, "base": {
        "kind": base, "iters": 4, "eps": 1, "c": 3, "niters": 2, "b": 7}}, id=f"{kind}-{base}")
      for kind, fields in _DEFENSE_FIELDS.items() for base in AGR_KINDS),
    *(pytest.param(("attack",), {"kind": kind, "z": 2, "gamma_init": 5, "tau": 0.001, "epsilon": 0.1},
                   id=f"attack-{kind}") for kind in ATTACK_KINDS),
    *(pytest.param((section, key), value, id=f"{key}-{value}")
      for section, key, set_to in [("model", "hidden", 8), ("trainer", "clip_norm", 3),
                                   ("data", "test_per_class", 12)]
      for value in (None, set_to)),
]


@pytest.mark.parametrize("where, value", _ROUNDTRIP_CASES)
def test_config_roundtrip_every_kind_and_null(where, value):
    payload = json.loads(json.dumps(SMALL_CONFIG))
    # 16 clients keep every rule, bucketed or under gas, within its bound
    payload["experiment"]["n_clients"] = 16
    *sections, key = where
    target = payload
    for section in sections:
        target = target[section]
    target[key] = value
    canonical = emit_config(parse_config(json.dumps(payload)))
    assert emit_config(parse_config(canonical)) == canonical
    emitted = json.loads(canonical)
    for section in sections:
        emitted = emitted[section]
    given = value if isinstance(value, dict) else {key: value}
    emitted = emitted[key] if isinstance(value, dict) else emitted
    for name, v in given.items():  # every given value survives; an int widens in a float field
        assert emitted[name] == v
        assert type(emitted[name]) is (float if name in _FLOAT_FIELDS and v is not None else type(v))


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
    bad = json.loads(json.dumps(SMALL_CONFIG))
    del bad["defense"]["base"]
    with pytest.raises(ConfigError, match="defense.base: missing section") as exc:
        parse_config(json.dumps(bad))
    assert exc.value.field == "defense.base"


def test_manifest_roundtrip():
    cfg = parse_config(json.dumps(SMALL_CONFIG))
    payload = emit_json(manifest(cfg, {"rounds_csv": "rounds.csv"}))
    raw = json.loads(payload)
    assert sorted(raw) == ["artifact_version", "config", "master_seed", "outputs"]
    assert raw["master_seed"] == cfg.master_seed
    again = parse_config(json.dumps(raw["config"]))
    assert again == cfg
    assert emit_json(manifest(again, raw["outputs"])) == payload
