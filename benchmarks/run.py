"""gasfl benchmark: one workload per process, timed from outside the package.

Run from the repository root:

    python3 benchmarks/run.py --workload desk_median --seed 1 --seconds 20 --trace 0

`--trace 0` times rounds with nothing wrapped and prints the end-to-end
metrics. `--trace 1` prints the per-layer metrics instead: it times half the
run plain and half with every gasfl entry point wrapped in spans (see
`tracing.py`), reports the difference as the tracing overhead, and writes
the spans to `.bench_out/`. Every run checks its outputs (see
`workloads.py`). The last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`. The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

import numpy as np

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 21
WARMUP_SECONDS = 1.5
MEMORY_PROBE_ROUNDS = 2
MIN_P90_ROUNDS = 100  # p90 then has at least 10 rounds beyond it


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def environment(args) -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": blas_threads(),
        "git_commit": git_commit(),
    }


def p90_nearest_rank(values: list[float]) -> tuple[float, int]:
    """(p90, samples beyond it) by nearest rank."""
    ordered = sorted(values)
    k = math.ceil(0.9 * len(ordered))
    return ordered[k - 1], len(ordered) - k


def end_to_end(workload, seg) -> tuple[dict, list[str]]:
    """Wall-time, memory and quality metrics of one untraced run.

    rounds_per_s counts successful rounds per second of round time; the
    quality metrics average the workload's fixed first `quality_rounds`, so
    they are the same on every run with one seed.
    """
    times_ms = [t * 1e3 for t in seg.times]
    p90, beyond = p90_nearest_rank(times_ms)
    window = [o for o in seg.outcomes[: workload.quality_rounds] if o is not None]
    metrics = {
        "rounds_per_s": (seg.rounds_per_s, "1/s"),
        "round_ms.p50": (statistics.median(times_ms), "ms"),
        "setup_s": (statistics.median(seg.setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "honest_kept_share": (statistics.fmean(o.honest_kept_share for o in window), "ratio"),
        "update_norm_mean": (statistics.fmean(o.update_norm for o in window), "l2"),
    }
    notes = [
        f"round_ms.p90 = {p90!r} ms ({beyond} of {len(seg.times)} timed rounds beyond it, "
        f"{seg.failed} failed)",
        f"setup samples: {len(seg.setup_times)}, spread through the timed run",
        f"quality window: {len(window)} successful rounds of the first {workload.quality_rounds}",
        f"deviation_mean = {statistics.fmean(o.deviation for o in window)!r} l2",
        f"byz_kept_per_round = {statistics.fmean(o.byz_kept for o in window)!r} count",
    ]
    if window[0].accuracy is not None:
        size = workload.rounds_per_repeat
        bests = [max(o.accuracy for o in seg.outcomes[start : start + size] if o is not None)
                 for start in range(0, workload.quality_rounds, size)]
        notes.append(f"best_accuracy = {statistics.fmean(bests)!r} ratio "
                     f"(best round of each repeat, mean over {len(bests)} repeats)")
    return metrics, notes


def per_layer(tracer, probe, plain, traced) -> tuple[dict, list[str]]:
    names, dur, self_time, rounds = tracer.arrays()
    in_round = rounds >= 0
    n_rounds = int((names[in_round] == tracing.ROUND).sum())

    def select(name, timed=True):
        return (in_round if timed else ~in_round) & (names == name)

    def ms_per_round(name, values=dur):
        return float(values[select(name)].sum()) * 1e3 / n_rounds

    def calls_per_round(name):
        return float(select(name).sum()) / n_rounds

    def per_call(name, scale):
        sel = select(name)
        return float(dur[sel].mean()) * scale if sel.any() else 0.0

    def setup_ms(name):
        sel = select(name, timed=False)
        return float(np.median(dur[sel])) * 1e3 if sel.any() else 0.0

    agg_peak = max(probe.peak_mb.get("aggregators.aggregate", 0.0),
                   probe.peak_mb.get("aggregators.aggregate_with_selection", 0.0))
    metrics = {
        "simulation.init_run.ms": (setup_ms("simulation.init_run"), "ms/call"),
        "simulation.local_train.calls": (calls_per_round("simulation.local_train"), "calls/round"),
        "simulation.local_train.ms": (ms_per_round("simulation.local_train"), "ms/round"),
        "simulation.run_round.self_ms": (ms_per_round("simulation.run_round", self_time), "ms/round"),
        "models.grad.calls": (calls_per_round("models.grad"), "calls/round"),
        "models.grad.us": (per_call("models.grad", 1e6), "us/call"),
        "models.accuracy.ms": (ms_per_round("models.accuracy"), "ms/round"),
        "attacks.craft.ms": (ms_per_round("attacks.craft"), "ms/round"),
        "attacks.craft.peak_mb": (probe.peak_mb.get("attacks.craft", 0.0), "MB"),
        "core.make_partition.ms": (ms_per_round("core.make_partition"), "ms/round"),
        "core.check_server_ingress.ms": (ms_per_round("core.check_server_ingress"), "ms/round"),
        "gas.gas_aggregate.self_ms": (ms_per_round("gas.gas_aggregate", self_time), "ms/round"),
        "gas.base_calls": (calls_per_round("aggregators.aggregate"), "calls/round"),
        "gas.select_clients.ms": (ms_per_round("gas.select_clients"), "ms/round"),
        "aggregators.aggregate.ms": (ms_per_round("aggregators.aggregate"), "ms/round"),
        "aggregators.aggregate_with_selection.ms": (ms_per_round("aggregators.aggregate_with_selection"), "ms/round"),
        "aggregators.peak_mb": (agg_peak, "MB"),
        "data.generate_synthetic.ms": (setup_ms("data.generate_synthetic"), "ms/call"),
        "data.dirichlet_partition.ms": (setup_ms("data.dirichlet_partition"), "ms/call"),
        "data.sample_round.ms": (ms_per_round("data.sample_round"), "ms/round"),
        "trace.round_ms": (ms_per_round(tracing.ROUND), "ms/round"),
        "trace.rounds_per_s": (traced.rounds_per_s, "1/s"),
        "trace.overhead_rounds_per_s": (traced.rounds_per_s - plain.rounds_per_s, "1/s"),
    }
    round_ms = metrics["trace.round_ms"][0]
    shares = ", ".join(
        f"{name} {100 * ms_per_round(name) / round_ms:.1f}%"
        for name in ("simulation.local_train", "models.accuracy", "attacks.craft",
                     "core.check_server_ingress", "aggregators.aggregate_with_selection",
                     "gas.gas_aggregate", "data.sample_round"))
    notes = [
        f"traced rounds: {n_rounds}; plain rounds: {len(plain.times)}; "
        f"plain rounds_per_s = {plain.rounds_per_s!r} 1/s",
        f"share of traced round time: {shares}",
    ]
    return metrics, notes


def measure_end_to_end(workloads, workload, args, env):
    workloads.run_segment(workload, workload.step, WARMUP_SECONDS, workloads.CHECK_ROUNDS)
    seg = workloads.run_segment(workload, workload.step, args.seconds,
                                max(workload.quality_rounds, MIN_P90_ROUNDS), SETUP_REPEATS)
    metrics, notes = end_to_end(workload, seg)  # reads peak RSS before the checks run
    return metrics, notes, workload.check(seg.outcomes), len(seg.times), seg.failed


def measure_layers(workloads, workload, args, env):
    """Half the run plain, half traced; memory peaks come from separate probe rounds."""
    tracer, probe = tracing.Tracer(), tracing.Tracer(memory=True)
    with tracer.installed():
        for _ in range(SETUP_REPEATS):
            workload.setup(0)
    workloads.run_segment(workload, workload.step, WARMUP_SECONDS, workloads.CHECK_ROUNDS)
    with probe.installed():
        workloads.run_segment(workload, workload.step, 0.0, MEMORY_PROBE_ROUNDS)
    plain = workloads.run_segment(workload, workload.step, args.seconds / 2, workloads.CHECK_ROUNDS)
    with tracer.installed():
        traced = workloads.run_segment(workload, tracer.round_step(workload.step), args.seconds / 2,
                                       workloads.CHECK_ROUNDS)
    problems = workload.check(plain.outcomes)
    common = min(len(plain.outcomes), len(traced.outcomes))
    if plain.outcomes[:common] != traced.outcomes[:common]:
        problems.append("traced rounds differ from plain rounds")
    metrics, notes = per_layer(tracer, probe, plain, traced)
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.npz"
    tracer.save(trace_path, env)
    notes.append(f"spans written to {trace_path.relative_to(ROOT)}")
    return (metrics, notes, problems, len(plain.times) + len(traced.times),
            plain.failed + traced.failed)


def import_workloads():
    """Import gasfl from this checkout's src/ (never an installed copy)."""
    if not (SRC / "gasfl" / "__init__.py").is_file():
        sys.exit(f"gasfl sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import gasfl

    if Path(gasfl.__file__).resolve().parent != (SRC / "gasfl").resolve():
        sys.exit(f"imported gasfl from {gasfl.__file__}, not from {SRC}")
    import workloads

    return workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("desk_median", "desk_gas", "wide_server"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = import_workloads()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    measure = measure_layers if args.trace else measure_end_to_end
    metrics, notes, problems, attempted, failed = measure(workloads, workload, args, env)

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    for line in notes + [f"check failed: {p}" for p in problems]:
        print(line)
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
