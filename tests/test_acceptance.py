"""Acceptance battery.

One test per exit criterion, each printing a PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s``). Tolerances and instance sizes are
pinned here, not configurable. The end-to-end criteria (A7, A8) share one set
of desk-scale training runs via a module fixture; expect a few minutes of
single-threaded compute for the whole battery.
"""

import json
import time

import numpy as np
import pytest

from gasfl.aggregators import AggregatorSpec, aggregate, estimate_resilience, max_f
from gasfl.attacks import AttackSpec
from gasfl.checks import run_suite
from gasfl.cli import main
from gasfl.core import SeedSpec
from gasfl.data import SyntheticGradientModel
from gasfl.gas import GasConfig, KnownF, gas_aggregate
from gasfl.models import Model, finite_difference_grad
from gasfl.simulation import (ExperimentConfig, GasDefense, PlainDefense, run_experiment,
                              server_step)

DESK_SEED = 20260810


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name} failed: {detail}"


# A1 ---------------------------------------------------------------------------

def test_A1_oracle_equivalence():
    started = time.perf_counter()
    worst = {}
    for suite in ["median", "trimmed_mean", "krum", "bulyan"]:
        report = run_suite(suite, SeedSpec(11), instances=1000)
        worst[suite] = report.max_discrepancy
        assert report.passed, f"{suite} discrepancy {report.max_discrepancy}"
        assert report.max_discrepancy <= 1e-12
    elapsed = time.perf_counter() - started
    _report("A1 oracle equivalence", elapsed <= 30.0,
            f"max discrepancy {max(worst.values()):.2e}, {elapsed:.1f}s")


# A2 ---------------------------------------------------------------------------

def test_A2_gradient_check():
    started = time.perf_counter()
    rng = np.random.default_rng(22)
    worst = 0.0
    cases = [(Model(n_classes=10, n_features=64), 60),          # d = 650
             (Model(n_classes=4, n_features=16, hidden=8), 40)]  # d = 180
    for model, points in cases:
        feats = rng.standard_normal((16, model.n_features))
        labels = rng.integers(0, model.n_classes, 16)
        for _ in range(points):
            w = rng.standard_normal(model.dim)
            ana = model.grad(w, feats, labels)
            num = finite_difference_grad(model, w, feats, labels)
            rel = np.linalg.norm(num - ana) / max(1.0, np.linalg.norm(ana))
            worst = max(worst, rel)
            assert rel <= 1e-5
    elapsed = time.perf_counter() - started
    _report("A2 gradient check", elapsed <= 10.0,
            f"worst relative error {worst:.2e} over 100 points, {elapsed:.1f}s")


# A3 ---------------------------------------------------------------------------

def test_A3_gas_reductions():
    rng = np.random.default_rng(33)
    worst_mean, worst_p1 = 0.0, 0.0
    for k in range(500):
        n = int(rng.integers(3, 12))
        d = int(rng.integers(2, 20))
        x = rng.standard_normal((n, d)) * float(rng.uniform(0.5, 3.0))
        seed = SeedSpec(330).child("case", k)
        cfg0 = GasConfig(p=min(4, d), base=AggregatorSpec("median"), selection=KnownF(0), seed=seed)
        agg, _, _, _ = gas_aggregate(cfg0, x)
        worst_mean = max(worst_mean, float(np.abs(agg - x.mean(axis=0)).max()))
        cfg1 = GasConfig(p=1, base=AggregatorSpec("median"),
                         selection=KnownF(int(rng.integers(0, max_f(AggregatorSpec("median"), n) + 1))),
                         seed=seed)
        _, table, _, _ = gas_aggregate(cfg1, x)
        direct = np.linalg.norm(x - aggregate(AggregatorSpec("median"), x, 0), axis=1)
        worst_p1 = max(worst_p1, float(np.abs(table.totals - direct).max()))
    assert worst_mean <= 1e-12 and worst_p1 <= 1e-12
    _report("A3 gas reductions", True,
            f"KnownF(0) vs mean {worst_mean:.2e}, p=1 totals {worst_p1:.2e}, 500 instances")


# A4 ---------------------------------------------------------------------------

def test_A4_resilience_certification():
    lams = {}
    for kind in ["median", "trimmed_mean", "multi_krum", "bulyan"]:
        report = estimate_resilience(AggregatorSpec(kind), 10, 2, 4, 1000, SeedSpec(44))
        assert np.isfinite(report.lambda_hat), kind
        lams[kind] = report.lambda_hat
    control = estimate_resilience(AggregatorSpec("mean"), 10, 2, 4, 1000, SeedSpec(44),
                                  adversary_scale=1e6)
    assert control.lambda_hat > 1e3
    _report("A4 resilience certification", True,
            "lambda_hat " + ", ".join(f"{k}={v:.3f}" for k, v in lams.items())
            + f"; mean control {control.lambda_hat:.1e} > 1e3")


# A5 / A6 ------------------------------------------------------------------------

@pytest.fixture(scope="module")
def exclusion_instance():
    n, f, d, rounds = 50, 10, 1024, 100
    model = SyntheticGradientModel(dim=d, n_honest=n - f, kappa=1.0, sigma=0.5, seed=SeedSpec(505))
    gas, median = GasDefense(AggregatorSpec("median"), p=16), PlainDefense(AggregatorSpec("median"))
    lie, seed = AttackSpec("lie", z=1.5), SeedSpec(506)
    byz_mask = np.arange(n) >= n - f
    started = time.perf_counter()
    rows = []
    for t in range(rounds):
        honest = model.sample_round(t)
        _, dev_gas, ratio, byz_in, _ = server_step(gas, lie, honest, byz_mask, seed, t)
        _, dev_med, _, _, _ = server_step(median, lie, honest, byz_mask, seed, t)
        rows.append((byz_in, ratio, dev_gas, dev_med))
    byz_in, honest_ratio, dev_gas, dev_med = (np.mean(column) for column in zip(*rows))
    return {"byz_in": byz_in, "honest_ratio": honest_ratio, "dev_gas": dev_gas, "dev_med": dev_med,
            "elapsed": time.perf_counter() - started}


def test_A5_byzantine_exclusion(exclusion_instance):
    r = exclusion_instance
    ok = r["byz_in"] <= 0.5 and r["honest_ratio"] >= 0.95 and r["elapsed"] <= 60.0
    _report("A5 byzantine exclusion", ok,
            f"mean byz inclusion {r['byz_in']:.3f} <= 0.5, honest ratio {r['honest_ratio']:.4f}"
            f" >= 0.95, {r['elapsed']:.1f}s")


def test_A6_deviation_reduction(exclusion_instance):
    r = exclusion_instance
    reduction = 1.0 - r["dev_gas"] / r["dev_med"]
    ok = reduction >= 0.20 and r["elapsed"] <= 60.0
    _report("A6 deviation reduction", ok,
            f"gas {r['dev_gas']:.4f} vs median {r['dev_med']:.4f}: {reduction * 100:.0f}% lower")


# A7 / A8 -------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk_runs():
    lie = AttackSpec("lie", z=1.5)

    def desk(attack, defense):
        cfg = ExperimentConfig(n_clients=50, n_byzantine=10, rounds=200, repeats=5,
                               master_seed=DESK_SEED, attack=attack, defense=defense)
        _, summary = run_experiment(cfg)
        return summary.best_mean

    gas_median = GasDefense(AggregatorSpec("median"), p=650)
    gas_mk = GasDefense(AggregatorSpec("multi_krum"), p=650)
    started = time.perf_counter()
    results = {
        "clean": desk(AttackSpec("none"), PlainDefense(AggregatorSpec("mean"))),
        "median": desk(lie, PlainDefense(AggregatorSpec("median"))),
        "gas_median": desk(lie, gas_median),
        "multi_krum": desk(lie, PlainDefense(AggregatorSpec("multi_krum"))),
        "gas_multi_krum": desk(lie, gas_mk),
    }
    results["a7_elapsed"] = time.perf_counter() - started
    results["gas_delta_01"] = desk(lie, GasDefense(AggregatorSpec("median"), p=650,
                                                   delta=0.1))
    results["gas_delta_03"] = desk(lie, GasDefense(AggregatorSpec("median"), p=650,
                                                   delta=0.3))
    return results


def test_A7_end_to_end_ordering(desk_runs):
    r = desk_runs
    clean_ok = r["clean"] >= 0.90
    med_margin = r["gas_median"] - r["median"]
    mk_margin = r["gas_multi_krum"] - r["multi_krum"]
    ok = clean_ok and med_margin >= 0.05 and mk_margin >= 0.05 and r["a7_elapsed"] <= 300.0
    _report("A7 end-to-end ordering", ok,
            f"clean {r['clean']:.4f} >= 0.90; gas(median) {r['gas_median']:.4f} vs median "
            f"{r['median']:.4f} (+{med_margin * 100:.1f}pt); gas(multi_krum) "
            f"{r['gas_multi_krum']:.4f} vs multi_krum {r['multi_krum']:.4f} "
            f"(+{mk_margin * 100:.1f}pt); {r['a7_elapsed']:.0f}s")


def test_A8_unknown_f_sanity(desk_runs):
    r = desk_runs
    gap1 = abs(r["gas_median"] - r["gas_delta_01"])
    gap3 = abs(r["gas_median"] - r["gas_delta_03"])
    ok = gap1 <= 0.03 and gap3 <= 0.03
    _report("A8 unknown-f sanity", ok,
            f"delta=0.1 within {gap1 * 100:.1f}pt, delta=0.3 within {gap3 * 100:.1f}pt of known-f")


# A9 --------------------------------------------------------------------------------

def test_A9_cli_determinism(tmp_path):
    config = {
        "experiment": {"n_clients": 8, "n_byzantine": 2, "rounds": 3, "repeats": 2,
                       "master_seed": 17},
        "data": {"n_classes": 3, "n_features": 8, "per_class": 20, "test_per_class": 30},
        "attack": {"kind": "lie"},
        "defense": {"kind": "gas", "base": {"kind": "median"}, "p": 5},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    outs = [tmp_path / name for name in ["a", "b"]]
    for out in outs:
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    identical = all((outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
                    for name in ["rounds.csv", "summary.txt", "manifest.json"])
    _report("A9 determinism", identical,
            "rerun outputs byte-identical across rounds.csv, summary.txt, manifest.json")


# A10 --------------------------------------------------------------------------------

def test_A10_complexity_smoke():
    n, p = 50, 100
    times = {}
    for d in (10_000, 100_000):
        x = np.random.default_rng(d).standard_normal((n, d))
        cfg = GasConfig(p=p, base=AggregatorSpec("median"), selection=KnownF(10),
                        seed=SeedSpec(1010))
        trials = []
        for trial in range(5):
            started = time.perf_counter()
            gas_aggregate(cfg, x, round=trial)
            trials.append(time.perf_counter() - started)
        times[d] = float(np.median(trials))
    ratio = times[100_000] / times[10_000]
    _report("A10 complexity smoke", ratio <= 20.0,
            f"median wall time {times[10_000] * 1e3:.0f}ms at d=1e4 vs "
            f"{times[100_000] * 1e3:.0f}ms at d=1e5 (ratio {ratio:.1f}x <= 20x)")
