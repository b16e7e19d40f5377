"""Command-line front end: run, sweep, certify, oracle.

Exit codes: 0 success, 1 check failure, 2 configuration error, 3 runtime
error. All outputs other than the timing sidecar are pure functions of the
config bytes and flags; numeric fields are serialized with 17 significant
digits so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .aggregators import KINDS as AGR_KINDS
from .aggregators import AggregatorSpec, estimate_resilience
from .checks import SUITES, run_suite
from .config import INT64, INT64_ERROR, ConfigError, emit_config, emit_json, manifest, parse_config
from .core import SeedSpec
from .simulation import ExperimentConfig, RoundRecord, run_experiment

EXIT_OK, EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_RUNTIME = 0, 1, 2, 3

# sweep axis -> the config field it sets
SWEEP_AXES = {"p": "defense.p", "delta": "defense.delta", "beta": "data.beta",
              "f": "experiment.n_byzantine", "n": "experiment.n_clients"}

# each rounds.csv column and the RoundRecord field it reads; "repeat" is the run's index
ROUNDS_COLUMNS = [("round", "round"), ("repeat", "repeat"), ("accuracy", "test_accuracy"),
                  ("deviation", "deviation"), ("honest_ratio", "honest_inclusion_ratio"),
                  ("byz_count", "byz_inclusion_count"), ("f_excess", "f_excess")]


def int64(text: str) -> int:
    """argparse type of a seed flag; `run --seed` goes through the config parser instead."""
    value = int(text)
    if value not in INT64:
        raise argparse.ArgumentTypeError(f"{INT64_ERROR}, got {value}")
    return value


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write(path: Path, text: str) -> None:
    # write-then-rename, so a killed run never leaves a truncated file
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


def _rounds_csv(all_records: list[list[RoundRecord]]) -> str:
    rows = [{**vars(rec), "repeat": repeat} for repeat, run in enumerate(all_records) for rec in run]
    lines = [",".join(column for column, _ in ROUNDS_COLUMNS)]
    lines += [",".join(_fmt(row[field]) for _, field in ROUNDS_COLUMNS) for row in rows]
    return "\n".join(lines) + "\n"


def _timings_text(all_records: list[list[RoundRecord]]) -> str:
    lines = ["# wall-clock seconds per round; informational, not reproducible"]
    total = 0.0
    for repeat, records in enumerate(all_records):
        spent = sum(rec.wall_time for rec in records)
        total += spent
        lines.append(f"repeat {repeat}: {spent:.3f}s over {len(records)} rounds")
    lines.append(f"total: {total:.3f}s")
    return "\n".join(lines) + "\n"


def _summary_text(summary) -> str:
    per_repeat = ",".join(_fmt(v) for v in summary.best_accuracies)
    return (f"best_accuracy_mean = {_fmt(summary.best_mean)}\n"
            f"best_accuracy_std = {_fmt(summary.best_std)}\n"
            f"best_accuracy_per_repeat = {per_repeat}\n")


def _execute_run(cfg: ExperimentConfig, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    all_records, summary = run_experiment(cfg)
    outputs = {"rounds_csv": "rounds.csv", "summary": "summary.txt",
               "manifest": "manifest.json", "timings": "timings.txt"}
    _write(out_dir / "rounds.csv", _rounds_csv(all_records))
    _write(out_dir / "summary.txt", _summary_text(summary))
    _write(out_dir / "manifest.json", emit_json(manifest(cfg, outputs)))
    _write(out_dir / "timings.txt", _timings_text(all_records))


def cmd_run(args) -> int:
    try:
        seed = {} if args.seed is None else {"experiment.master_seed": args.seed}
        cfg = parse_config(Path(args.config).read_text(), seed)
    except FileNotFoundError:
        print(f"config not found: {args.config}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        _execute_run(cfg, Path(args.out))
    except (ValueError, MemoryError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _derive_sweep_seed(master_seed: int, axis: str, index: int) -> int:
    rng = SeedSpec(master_seed).child("sweep_" + axis, index).generator()
    return int(rng.integers(0, 2**63))


def cmd_sweep(args) -> int:
    try:
        document = Path(args.config).read_text()
        base_cfg = parse_config(document)
        texts = [v.strip() for v in args.values.split(",") if v.strip() != ""]
        if not texts:
            raise ConfigError("values", "no sweep values given")
        values = []
        for text in texts:
            try:
                values.append(float(text))
            except ValueError:
                raise ConfigError("values", f"sweep values must be numbers, got {text}") from None
            if not math.isfinite(values[-1]):
                raise ConfigError("values", f"sweep values must be finite, got {text}")
        names = [f"{args.axis}_{format(value, 'g')}" for value in values]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ConfigError("values", f"{values[names.index(name)]} and {values[i]} "
                                            f"would share the directory {name}/")
        points = []
        for idx, (value, name) in enumerate(zip(values, names)):
            # an integral value goes in as an int, so an integer field takes it
            point = {SWEEP_AXES[args.axis]: int(value) if value.is_integer() else value,
                     "experiment.master_seed": _derive_sweep_seed(base_cfg.master_seed, args.axis, idx)}
            points.append((value, name, parse_config(document, point)))
    except FileNotFoundError:
        print(f"config not found: {args.config}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"invalid sweep: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(args.out)
    lines = [f"{args.axis},repeat,best_accuracy,final_accuracy,mean_deviation"]
    try:
        for value, name, cfg in points:
            sub = out_dir / name
            records, summary = run_experiment(cfg)
            sub.mkdir(parents=True, exist_ok=True)
            _write(sub / "rounds.csv", _rounds_csv(records))
            _write(sub / "summary.txt", _summary_text(summary))
            _write(sub / "config.json", emit_config(cfg))
            for repeat, (best, recs) in enumerate(zip(summary.best_accuracies, records)):
                final = recs[-1].test_accuracy
                mean_dev = sum(r.deviation for r in recs) / len(recs)
                lines.append(",".join([_fmt(value), str(repeat), _fmt(best), _fmt(final), _fmt(mean_dev)]))
    except (ValueError, MemoryError) as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    _write(out_dir / "sweep.csv", "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_certify(args) -> int:
    try:
        spec = AggregatorSpec(kind=args.rule)
        report = estimate_resilience(spec, args.n, args.f, args.dim, args.trials,
                                     SeedSpec(args.seed), adversary_scale=args.scale)
    except ValueError as exc:
        print(f"invalid certification setup: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"certify failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    text = (f"rule = {report.kind}\nn = {report.n}\nf = {report.f}\ndim = {args.dim}\n"
            f"trials = {report.trials}\nskipped = {report.skipped}\n"
            f"lambda_hat = {_fmt(report.lambda_hat)}\n")
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        _write(path, text)
    else:
        print(text, end="")
    return EXIT_OK


def cmd_oracle(args) -> int:
    try:
        report = run_suite(args.suite, SeedSpec(args.seed), instances=args.instances,
                           inject_fault=args.inject_fault)
    except ValueError as exc:
        print(f"invalid oracle suite: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"suite={report.suite} instances={report.instances} "
          f"max_discrepancy={_fmt(report.max_discrepancy)} tolerance={_fmt(report.tolerance)}")
    if not report.passed:
        print(f"FAILED at instance seed index {report.first_bad_seed}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gasfl", allow_abbrev=False,
                                     description="Byzantine-robust FL simulator and certifier")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", allow_abbrev=False, help="run one experiment from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed", type=int, default=None, help="override the config master seed")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", allow_abbrev=False, help="run one experiment per value of one axis")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_cert = sub.add_parser("certify", allow_abbrev=False, help="empirical resilience probe for one rule")
    p_cert.add_argument("--rule", required=True, choices=AGR_KINDS)
    p_cert.add_argument("--n", type=int, required=True)
    p_cert.add_argument("--f", type=int, required=True)
    p_cert.add_argument("--dim", type=int, default=4)
    p_cert.add_argument("--trials", type=int, default=1000)
    p_cert.add_argument("--seed", type=int64, default=0)
    p_cert.add_argument("--scale", type=float, default=1e3, help="adversary distance from the honest mean")
    p_cert.add_argument("--out", default=None)
    p_cert.set_defaults(func=cmd_certify)

    p_oracle = sub.add_parser("oracle", allow_abbrev=False,
                              help="cross-check fast paths against brute-force references")
    p_oracle.add_argument("--suite", required=True, choices=SUITES)
    p_oracle.add_argument("--seed", type=int64, default=0)
    p_oracle.add_argument("--instances", type=int, default=1000)
    p_oracle.add_argument("--inject-fault", action="store_true",
                          help="perturb one output to verify the check detects regressions")
    p_oracle.set_defaults(func=cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
