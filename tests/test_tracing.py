"""The benchmark tracer wraps attributes by name; each must still exist."""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _tracing()


@pytest.mark.parametrize("span,owner,attr", TRACER.TARGETS, ids=[f"{o}.{a}" for _, o, a in TRACER.TARGETS])
def test_every_traced_binding_exists(span, owner, attr):
    # `swapped` reads obj.__dict__[attr]: an inherited or renamed binding fails there
    assert attr in vars(TRACER.resolve(owner)), f"{span}: {owner} has no attribute {attr!r}"
