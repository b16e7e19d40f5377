"""Experiment config files: parsing, validation, and canonical emission.

Configs are JSON with fixed sections (experiment / data / model / trainer /
attack / defense); the full schema is documented in the README. The schema
is read off the dataclasses, so each default and each bound lives once, in
the dataclass that owns it. Parsing is one walk over each section's
`dataclasses.fields`: a field without a default is required, an `X | None`
field may be null, an int widens to float, an int field holds an int64, and a
dataclass-typed field is a nested section. Every error names the dotted field, as
`<section>.<field>: <reason>`. Emission is canonical (sorted keys, two-space
indent, trailing newline), so emit(parse(f)) == f for canonical files and all
downstream outputs are byte-reproducible.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import MISSING
from functools import cache
from typing import Any

from . import __version__
from .simulation import BucketedDefense, Defense, ExperimentConfig, GasDefense, PlainDefense

# The document's two irregular spots. ExperimentConfig's own scalar fields sit
# in the two scalar sections, all in "experiment" except the _MODEL_FIELDS;
# and "defense" is a union of dataclasses tagged by its "kind".
_SCALAR_SECTIONS = ("experiment", "model")
_MODEL_FIELDS = ("hidden", "init_scale")
_DEFENSES = {"plain": PlainDefense, "gas": GasDefense, "bucketing": BucketedDefense}
# the bound of every config integer and every seed flag: numpy and SeedSpec's 64-bit mask stop there
INT64, INT64_ERROR = range(-2**63, 2**63), "must lie within int64 [-2**63, 2**63)"


class ConfigError(ValueError):
    """Invalid configuration; `field` names the offending entry."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


@cache
def _fields(cls) -> dict[str, tuple[bool, Any]]:
    """Each field of dataclass cls: whether it is required (has no default) and its type."""
    hints = typing.get_type_hints(cls)
    return {f.name: (f.default is MISSING, hints[f.name]) for f in dataclasses.fields(cls)}


def _is_section(tp) -> bool:
    return tp == Defense or dataclasses.is_dataclass(tp)


def _join(path: str, name: str) -> str:
    """Dotted document path of field `name` of the section at `path` ("" is the document)."""
    if path:
        return f"{path}.{name}"
    if name in _MODEL_FIELDS:
        return f"model.{name}"
    return name if _is_section(_fields(ExperimentConfig)[name][1]) else f"experiment.{name}"


def _section(parent: dict, name: str, path: str, required: bool) -> dict | None:
    value = parent.get(name)
    if value is None:
        if required:
            raise ConfigError(path, "missing section")
        return None
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {type(value).__name__}")
    return value


def _scalar(section: dict, name: str, tp, path: str, required: bool):
    """section[name] checked against tp, or MISSING to keep the field's default."""
    kinds = typing.get_args(tp) or (tp,)  # (X, NoneType) for X | None
    value = section.get(name)
    if value is None:
        if name in section and type(None) in kinds:
            return None
        if required:
            raise ConfigError(path, "missing required field")
        return MISSING
    kind = kinds[0]
    if kind is float and type(value) is int:
        value = float(value)
    if type(value) is not kind:
        raise ConfigError(path, f"expected {kind.__name__}, got {type(value).__name__}")
    if kind is float and not math.isfinite(value):  # JSON's NaN passes every `<= 0` bound
        raise ConfigError(path, f"must be finite, got {value}")
    if kind is int and value not in INT64:
        raise ConfigError(path, INT64_ERROR)
    return value


def _reject_unknown(section: dict, path: str, allowed) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(_join(path, key), "unknown field")


def _build(path: str, cls, kwargs: dict):
    """cls(**kwargs), reporting its ValueError against the field its message starts with."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        head = str(exc).split(" ", 1)[0]
        name = head.split(".", 1)[0]
        field = _join(path, name) + head[len(name):] if name in _fields(cls) else path or "<document>"
        raise ConfigError(field, str(exc)) from exc


def _parse(cls, raw: dict, path: str):
    """Build dataclass cls from its section raw at the dotted path."""
    fields = _fields(cls)
    _reject_unknown(raw, path, fields)
    kwargs = {}
    for name, (required, tp) in fields.items():
        where = _join(path, name)
        if not _is_section(tp):
            value = _scalar(raw, name, tp, where, required)
        elif (section := _section(raw, name, where, required)) is None:
            value = MISSING
        elif tp == Defense:
            kind = _scalar(section, "kind", str, f"{where}.kind", True)
            if kind not in _DEFENSES:
                raise ConfigError(f"{where}.kind",
                                  f"unknown defense {kind!r}, expected one of {tuple(_DEFENSES)}")
            value = _parse(_DEFENSES[kind], {k: v for k, v in section.items() if k != "kind"}, where)
        else:
            value = _parse(tp, section, where)
        if value is not MISSING:
            kwargs[name] = value
    return _build(path, cls, kwargs)


def parse_config(text: str, overrides: dict[str, Any] | None = None) -> ExperimentConfig:
    """Parse and validate a config document; raises ConfigError on any problem.

    `overrides` maps "<section>.<field>" document paths to values that replace
    the file's before validation; a section the file omits is created.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("<document>", f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("<document>", "top level must be an object")
    for dotted, value in (overrides or {}).items():
        name, key = dotted.split(".")
        if isinstance(section := raw.setdefault(name, {}), dict):  # else the walk reports it
            section[key] = value
    # document section -> the ExperimentConfig fields it holds
    layout: dict[str, list[str]] = {}
    for name in _fields(ExperimentConfig):
        layout.setdefault(_join("", name).split(".")[0], []).append(name)
    _reject_unknown(raw, "<document>", layout)
    doc = {key: value for key, value in raw.items() if key not in _SCALAR_SECTIONS}
    for name in _SCALAR_SECTIONS:  # fold the scalar sections into the document
        required = any(_fields(ExperimentConfig)[field][0] for field in layout[name])
        section = _section(raw, name, name, required) or {}
        _reject_unknown(section, name, layout[name])
        doc.update(section)
    return _parse(ExperimentConfig, doc, "")


def config_to_dict(cfg: ExperimentConfig) -> dict[str, Any]:
    doc: dict[str, Any] = {}
    for name in _fields(ExperimentConfig):
        value = getattr(cfg, name)
        *section, key = _join("", name).split(".")
        target = doc.setdefault(section[0], {}) if section else doc
        target[key] = dataclasses.asdict(value) if dataclasses.is_dataclass(value) else value
    doc["defense"]["kind"] = next(k for k, cls in _DEFENSES.items() if isinstance(cfg.defense, cls))
    return doc


def emit_json(payload: dict[str, Any]) -> str:
    """Canonical serialization: sorted keys, two-space indent, trailing newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def emit_config(cfg: ExperimentConfig) -> str:
    return emit_json(config_to_dict(cfg))


def manifest(cfg: ExperimentConfig, outputs: dict[str, str]) -> dict[str, Any]:
    """Everything needed to reproduce one invocation, as one JSON object."""
    return {"artifact_version": __version__, "master_seed": cfg.master_seed,
            "config": config_to_dict(cfg), "outputs": dict(outputs)}


__all__ = ["ConfigError", "parse_config", "config_to_dict", "emit_config", "emit_json", "manifest"]
