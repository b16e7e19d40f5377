"""Spans and counts around gasfl's public entry points, recorded from outside.

While a `Tracer` is installed, the module and class attributes listed in
`TARGETS` are replaced by timing wrappers, and they are restored on exit; no
gasfl source is edited. Each binding is the name a caller actually looks up
(`run_round` calls `gasfl.simulation.craft`, `gas_aggregate` calls
`gasfl.gas.aggregate`), which is why some functions appear under two owners.

A span is (name, start, end, parent, round id). Spans live in memory and are
written once, at exit, by `Tracer.save`. A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
import tracemalloc
from pathlib import Path

import numpy as np

# (span name, owner "module" or "module:Class", attribute looked up by callers)
TARGETS = (
    ("simulation.init_run", "gasfl.simulation", "init_run"),
    ("data.generate_synthetic", "gasfl.simulation", "generate_synthetic"),
    ("data.dirichlet_partition", "gasfl.simulation", "dirichlet_partition"),
    ("simulation.run_round", "gasfl.simulation", "run_round"),
    ("simulation.local_train", "gasfl.simulation", "local_train"),
    ("models.grad", "gasfl.models:Model", "grad"),
    ("models.accuracy", "gasfl.models:Model", "accuracy"),
    ("data.sample_round", "gasfl.data:SyntheticGradientModel", "sample_round"),
    ("attacks.craft", "gasfl.simulation", "craft"),
    ("attacks.craft", "gasfl.attacks", "craft"),
    ("core.check_server_ingress", "gasfl.simulation", "check_server_ingress"),
    ("core.check_server_ingress", "gasfl.core", "check_server_ingress"),
    ("aggregators.aggregate_with_selection", "gasfl.simulation", "aggregate_with_selection"),
    ("gas.gas_aggregate", "gasfl.gas", "gas_aggregate"),
    ("core.make_partition", "gasfl.gas", "make_partition"),
    ("aggregators.aggregate", "gasfl.gas", "aggregate"),
    ("gas.select_clients", "gasfl.gas", "select_clients"),
)

# Spans whose tracemalloc peak is recorded while `Tracer.memory` is on.
MEMORY_SPANS = ("attacks.craft", "aggregators.aggregate", "aggregators.aggregate_with_selection")

ROUND = "round"
SETUP_ROUND = -1


def resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


@contextlib.contextmanager
def swapped(replacements):
    """Set each (owner, attribute, value) while the block runs, then restore."""
    saved = [(obj, attr, obj.__dict__[attr]) for obj, attr, _ in replacements]
    try:
        for obj, attr, value in replacements:
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)


class Tracer:
    """In-memory span recorder; `memory=True` also records tracemalloc peaks."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.round: list[int] = []
        self.peak_mb: dict[str, float] = {}
        self.rounds = 0
        self._stack: list[int] = []

    def _open(self, name: str, round_id: int = SETUP_ROUND) -> int:
        # nested spans inherit the round of their root span; a root span
        # opened outside `round_step` (a set-up call) belongs to no round
        if self._stack:
            round_id = self.round[self._stack[0]]
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.round.append(round_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        track_memory = self.memory and name in MEMORY_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if track_memory:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
                if track_memory:
                    peak = (tracemalloc.get_traced_memory()[1] - before) / 2**20
                    self.peak_mb[name] = max(self.peak_mb.get(name, 0.0), peak)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Route every binding in TARGETS through this tracer for the block."""
        wrapped: dict[int, object] = {}
        replacements = []
        for name, owner, attr in TARGETS:
            obj = resolve(owner)
            original = obj.__dict__[attr]
            if id(original) not in wrapped:
                wrapped[id(original)] = self._wrap(name, original)
            replacements.append((obj, attr, wrapped[id(original)]))
        if self.memory:
            tracemalloc.start()
        try:
            with swapped(replacements):
                yield self
        finally:
            if self.memory:
                tracemalloc.stop()

    def round_step(self, step):
        """Wrap a workload step so each call opens a root span with its round id."""

        def traced_step(state, t):
            idx = self._open(ROUND, self.rounds)
            self.rounds += 1
            try:
                return step(state, t)
            finally:
                self._close(idx)

        return traced_step

    def arrays(self):
        """(names, duration s, self time s, round id) as numpy arrays."""
        names = np.asarray(self.names, dtype=object)
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return names, dur, dur - covered, np.asarray(self.round, dtype=np.int64)

    def save(self, path: Path, meta: dict) -> None:
        """Write every span plus `meta` to one compressed .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        table = sorted(set(self.names))
        code = {name: i for i, name in enumerate(table)}
        np.savez_compressed(
            path,
            name_table=np.asarray(table),
            name=np.asarray([code[n] for n in self.names], dtype=np.int16),
            start=np.asarray(self.start), end=np.asarray(self.end),
            parent=np.asarray(self.parent, dtype=np.int64),
            round=np.asarray(self.round, dtype=np.int64),
            meta=np.asarray(json.dumps(meta, sort_keys=True)),
        )
