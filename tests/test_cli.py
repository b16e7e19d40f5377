import json

import numpy as np
import pytest

from gasfl.aggregators import KINDS as AGR_KINDS
from gasfl.attacks import KINDS as ATTACK_KINDS
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
    "delta": 0.1,
    "kind": "gas",
    "p": 650,
    "partition_policy": "per_round",
    "selection_mode": "known_f"
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
                   "gas": {"p": 4, "selection_mode": "ratio", "delta": 0.25, "partition_policy": "fixed"}}
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
    manifest = make_manifest(cfg, {"rounds_csv": "rounds.csv"})
    payload = emit_json(manifest_to_dict(manifest))
    from gasfl.config import parse_manifest
    again = parse_manifest(payload)
    assert emit_json(manifest_to_dict(again)) == payload
