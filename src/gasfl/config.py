"""Experiment config files: parsing, validation, and canonical emission.

Configs are JSON with fixed sections (experiment / data / model / trainer /
attack / defense); the full schema is documented in the README. Parsing
reports the offending field on any error. Emission is canonical (sorted
keys, two-space indent, trailing newline), so emit(parse(f)) == f for
canonical files and all downstream outputs are byte-reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from . import __version__
from .aggregators import KINDS as AGR_KINDS
from .aggregators import AggregatorSpec
from .attacks import KINDS as ATTACK_KINDS
from .attacks import AttackSpec
from .models import Model
from .simulation import (BucketedDefense, DataConfig, Defense, ExperimentConfig,
                         GasDefense, PlainDefense, TrainerConfig)


class ConfigError(ValueError):
    """Invalid configuration; `field` names the offending entry."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce one invocation."""

    artifact_version: str
    master_seed: int
    config: ExperimentConfig
    outputs: dict[str, str]


def _section(raw: dict, name: str, required: bool = True) -> dict:
    value = raw.get(name, None)
    if value is None:
        if required:
            raise ConfigError(name, "missing section")
        return {}
    if not isinstance(value, dict):
        raise ConfigError(name, f"expected an object, got {type(value).__name__}")
    return value


def _get(section: dict, path: str, key: str, kind, default=None, required: bool = False,
         nullable: bool = False):
    field = f"{path}.{key}"
    if key not in section:
        if required:
            raise ConfigError(field, "missing required field")
        return default
    value = section[key]
    if value is None:
        if nullable:
            return None
        if required:
            raise ConfigError(field, "missing required field")
        return default
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(field, f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _reject_unknown(section: dict, path: str, allowed: set[str]) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}", "unknown field")


def _build(field: str, ctor, **kwargs):
    """ctor(**kwargs), reporting its validation error against `field`."""
    try:
        return ctor(**kwargs)
    except ValueError as exc:
        raise ConfigError(field, str(exc)) from exc


def _parse_aggregator(raw: dict, path: str) -> AggregatorSpec:
    _reject_unknown(raw, path, {"kind", "iters", "eps", "c", "niters", "b"})
    kind = _get(raw, path, "kind", str, required=True)
    if kind not in AGR_KINDS:
        raise ConfigError(f"{path}.kind", f"unknown aggregator {kind!r}, expected one of {AGR_KINDS}")
    return _build(
        path, AggregatorSpec,
        kind=kind,
        iters=_get(raw, path, "iters", int, 3),
        eps=_get(raw, path, "eps", float, 1e-8),
        c=_get(raw, path, "c", float, 4.0),
        niters=_get(raw, path, "niters", int, 1),
        b=_get(raw, path, "b", int, 10000),
    )


def _parse_defense(raw: dict) -> Defense:
    kind = _get(raw, "defense", "kind", str, required=True)
    if kind == "plain":
        _reject_unknown(raw, "defense", {"kind", "base"})
        return PlainDefense(base=_parse_aggregator(_section(raw, "base"), "defense.base"))
    if kind == "gas":
        _reject_unknown(raw, "defense", {"kind", "base", "p", "selection_mode", "delta", "partition_policy"})
        delta = _get(raw, "defense", "delta", float, 0.1)
        if not 0.0 <= delta < 0.5:
            raise ConfigError("defense.delta", f"must lie in [0, 0.5), got {delta}")
        return _build(
            "defense", GasDefense,
            base=_parse_aggregator(_section(raw, "base"), "defense.base"),
            p=_get(raw, "defense", "p", int, required=True),
            selection_mode=_get(raw, "defense", "selection_mode", str, "known_f"),
            delta=delta,
            partition_policy=_get(raw, "defense", "partition_policy", str, "per_round"),
        )
    if kind == "bucketing":
        _reject_unknown(raw, "defense", {"kind", "base", "s"})
        return _build("defense", BucketedDefense,
                      base=_parse_aggregator(_section(raw, "base"), "defense.base"),
                      s=_get(raw, "defense", "s", int, required=True))
    raise ConfigError("defense.kind", f"unknown defense {kind!r}, expected plain, gas, or bucketing")


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config document; raises ConfigError on any problem."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("<document>", f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("<document>", "top level must be an object")
    _reject_unknown(raw, "<document>", {"experiment", "data", "model", "trainer", "attack", "defense"})

    exp = _section(raw, "experiment")
    _reject_unknown(exp, "experiment",
                    {"n_clients", "n_byzantine", "rounds", "client_sample_ratio", "repeats", "master_seed"})
    n_clients = _get(exp, "experiment", "n_clients", int, required=True)
    n_byz = _get(exp, "experiment", "n_byzantine", int, required=True)
    if not 0 <= n_byz < n_clients / 2:
        raise ConfigError("experiment.n_byzantine",
                          f"must satisfy 0 <= f < n/2, got n={n_clients}, f={n_byz}")

    data_raw = _section(raw, "data", required=False)
    _reject_unknown(data_raw, "data",
                    {"n_classes", "n_features", "per_class", "r_sep", "noise", "beta", "test_per_class"})
    data = _build(
        "data", DataConfig,
        n_classes=_get(data_raw, "data", "n_classes", int, 10),
        n_features=_get(data_raw, "data", "n_features", int, 64),
        per_class=_get(data_raw, "data", "per_class", int, 50),
        r_sep=_get(data_raw, "data", "r_sep", float, 7.0),
        noise=_get(data_raw, "data", "noise", float, 1.75),
        beta=_get(data_raw, "data", "beta", float, 0.5),
        test_per_class=_get(data_raw, "data", "test_per_class", int, 1000, nullable=True),
    )

    model_raw = _section(raw, "model", required=False)
    _reject_unknown(model_raw, "model", {"hidden", "init_scale"})
    hidden = _get(model_raw, "model", "hidden", int, None, nullable=True)
    _build("model", Model, n_classes=data.n_classes, n_features=data.n_features, hidden=hidden)
    init_scale = _get(model_raw, "model", "init_scale", float, 0.3)

    tr = _section(raw, "trainer", required=False)
    _reject_unknown(tr, "trainer",
                    {"local_epochs", "batch_size", "learning_rate", "momentum", "weight_decay", "clip_norm"})
    trainer = _build(
        "trainer", TrainerConfig,
        local_epochs=_get(tr, "trainer", "local_epochs", int, 5),
        batch_size=_get(tr, "trainer", "batch_size", int, 64),
        learning_rate=_get(tr, "trainer", "learning_rate", float, 0.1),
        momentum=_get(tr, "trainer", "momentum", float, 0.5),
        weight_decay=_get(tr, "trainer", "weight_decay", float, 1e-4),
        clip_norm=_get(tr, "trainer", "clip_norm", float, 2.0, nullable=True),
    )

    atk = _section(raw, "attack")
    _reject_unknown(atk, "attack", {"kind", "z", "gamma_init", "tau", "epsilon"})
    attack_kind = _get(atk, "attack", "kind", str, required=True)
    if attack_kind not in ATTACK_KINDS:
        raise ConfigError("attack.kind", f"unknown attack {attack_kind!r}, expected one of {ATTACK_KINDS}")
    attack = _build(
        "attack", AttackSpec,
        kind=attack_kind,
        z=_get(atk, "attack", "z", float, 1.5),
        gamma_init=_get(atk, "attack", "gamma_init", float, 10.0),
        tau=_get(atk, "attack", "tau", float, 1e-5),
        epsilon=_get(atk, "attack", "epsilon", float, 0.5),
    )

    defense = _parse_defense(_section(raw, "defense"))

    ratio = _get(exp, "experiment", "client_sample_ratio", float, 1.0)
    if not 0 < ratio <= 1:
        raise ConfigError("experiment.client_sample_ratio", f"must lie in (0, 1], got {ratio}")
    return _build(
        "experiment", ExperimentConfig,
        n_clients=n_clients,
        n_byzantine=n_byz,
        rounds=_get(exp, "experiment", "rounds", int, required=True),
        attack=attack,
        defense=defense,
        trainer=trainer,
        data=data,
        hidden=hidden,
        init_scale=init_scale,
        client_sample_ratio=ratio,
        repeats=_get(exp, "experiment", "repeats", int, 5),
        master_seed=_get(exp, "experiment", "master_seed", int, 0),
    )


def _aggregator_dict(spec: AggregatorSpec) -> dict[str, Any]:
    return {"kind": spec.kind, "iters": spec.iters, "eps": spec.eps,
            "c": spec.c, "niters": spec.niters, "b": spec.b}


def config_to_dict(cfg: ExperimentConfig) -> dict[str, Any]:
    if isinstance(cfg.defense, PlainDefense):
        defense: dict[str, Any] = {"kind": "plain", "base": _aggregator_dict(cfg.defense.base)}
    elif isinstance(cfg.defense, GasDefense):
        defense = {"kind": "gas", "base": _aggregator_dict(cfg.defense.base), "p": cfg.defense.p,
                   "selection_mode": cfg.defense.selection_mode, "delta": cfg.defense.delta,
                   "partition_policy": cfg.defense.partition_policy}
    else:
        defense = {"kind": "bucketing", "base": _aggregator_dict(cfg.defense.base), "s": cfg.defense.s}
    return {
        "experiment": {"n_clients": cfg.n_clients, "n_byzantine": cfg.n_byzantine,
                       "rounds": cfg.rounds, "client_sample_ratio": cfg.client_sample_ratio,
                       "repeats": cfg.repeats, "master_seed": cfg.master_seed},
        "data": {"n_classes": cfg.data.n_classes, "n_features": cfg.data.n_features,
                 "per_class": cfg.data.per_class, "r_sep": cfg.data.r_sep,
                 "noise": cfg.data.noise, "beta": cfg.data.beta,
                 "test_per_class": cfg.data.test_per_class},
        "model": {"hidden": cfg.hidden, "init_scale": cfg.init_scale},
        "trainer": {"local_epochs": cfg.trainer.local_epochs, "batch_size": cfg.trainer.batch_size,
                    "learning_rate": cfg.trainer.learning_rate, "momentum": cfg.trainer.momentum,
                    "weight_decay": cfg.trainer.weight_decay, "clip_norm": cfg.trainer.clip_norm},
        "attack": {"kind": cfg.attack.kind, "z": cfg.attack.z, "gamma_init": cfg.attack.gamma_init,
                   "tau": cfg.attack.tau, "epsilon": cfg.attack.epsilon},
        "defense": defense,
    }


def emit_json(payload: dict[str, Any]) -> str:
    """Canonical serialization: sorted keys, two-space indent, trailing newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def emit_config(cfg: ExperimentConfig) -> str:
    return emit_json(config_to_dict(cfg))


def manifest_to_dict(manifest: RunManifest) -> dict[str, Any]:
    return {"artifact_version": manifest.artifact_version,
            "master_seed": manifest.master_seed,
            "config": config_to_dict(manifest.config),
            "outputs": dict(manifest.outputs)}


def parse_manifest(text: str) -> RunManifest:
    raw = json.loads(text)
    return RunManifest(artifact_version=raw["artifact_version"],
                       master_seed=raw["master_seed"],
                       config=parse_config(json.dumps(raw["config"])),
                       outputs=dict(raw["outputs"]))


def make_manifest(cfg: ExperimentConfig, outputs: dict[str, str]) -> RunManifest:
    return RunManifest(artifact_version=__version__, master_seed=cfg.master_seed,
                       config=cfg, outputs=outputs)


__all__ = ["ConfigError", "RunManifest", "parse_config", "config_to_dict", "emit_config",
           "emit_json", "manifest_to_dict", "parse_manifest", "make_manifest"]
