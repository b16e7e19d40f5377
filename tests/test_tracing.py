"""The benchmark wraps attributes by name; each must still exist and be called."""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _load(name, path, **imports):
    """Execute a benchmark file as module `name`, with `imports` importable by name meanwhile."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        # dataclasses look their module up in sys.modules while the file runs
        for key, value in {name: module, **imports}.items():
            patch.setitem(sys.modules, key, value)
        spec.loader.exec_module(module)
    return module


TRACER = _load("benchmark_tracing", BENCHMARKS / "tracing.py")
WORKLOADS = _load("benchmark_workloads", BENCHMARKS / "workloads.py", tracing=TRACER).WORKLOADS


@pytest.mark.parametrize("span,owner,attr", TRACER.TARGETS, ids=[f"{o}.{a}" for _, o, a in TRACER.TARGETS])
def test_every_traced_binding_exists(span, owner, attr):
    # `swapped` reads obj.__dict__[attr]: an inherited or renamed binding fails there
    assert attr in vars(TRACER.resolve(owner)), f"{span}: {owner} has no attribute {attr!r}"


@pytest.mark.parametrize("name", ["desk_median", "desk_gas"])
def test_desk_round_calls_the_captured_binding(name):
    # `Desk.check` verifies each call of its captured binding and passes
    # vacuously when a round never calls it
    workload = WORKLOADS[name](seed=7)
    owner, attr = workload.captured
    obj = TRACER.resolve(owner)
    original, calls = vars(obj)[attr], []

    def counted(*args, **kwargs):
        calls.append(attr)
        return original(*args, **kwargs)

    with TRACER.swapped([(obj, attr, counted)]):
        workload.step(workload.setup(0), 0)
    assert calls, f"a {name} round never called {owner}.{attr}"
