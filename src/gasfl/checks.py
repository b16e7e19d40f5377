"""Randomized cross-checks of the fast aggregation paths against the references.

Each suite draws seeded random instances, runs the production rule and the
straight-line reference from `reference`, and reports the worst discrepancy.
The CLI exposes these as the `oracle` command; `inject_fault` perturbs the
production output of the first instance so the harness can prove it would
catch a regression.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import reference as ref
from .aggregators import (KINDS, AggregatorSpec, _krum_scores, _spectral_scores, aggregate,
                          aggregate_with_selection, max_f)
from .core import SeedSpec, pairwise_sq_dists
from .gas import GasConfig, KnownF, gas_aggregate, group_scores

SUITES = ("median", "trimmed_mean", "krum", "bulyan", "weiszfeld", "dnc", "gas")

EXACT_TOL = 1e-12
SPECTRAL_TOL = 1e-6


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    instances: int
    max_discrepancy: float
    tolerance: float
    first_bad_seed: int | None

    @property
    def passed(self) -> bool:
        return self.max_discrepancy <= self.tolerance


def _random_instance(rng: np.random.Generator, n_min: int = 1) -> tuple[np.ndarray, int]:
    n = int(rng.integers(n_min, 12))
    d = int(rng.integers(1, 6))
    return rng.standard_normal((n, d)) * float(rng.uniform(0.5, 3.0)), n


def run_suite(suite: str, seed: SeedSpec, instances: int = 1000,
              inject_fault: bool = False) -> SuiteReport:
    if suite not in SUITES:
        raise ValueError(f"unknown oracle suite {suite!r}, expected one of {SUITES}")
    if instances < 1:  # zero instances would report a pass without checking anything
        raise ValueError(f"instances must be >= 1, got {instances}")
    worst, first_bad = 0.0, None
    tol = SPECTRAL_TOL if suite in ("weiszfeld", "dnc") else EXACT_TOL
    for k in range(instances):
        case_seed = seed.child(suite, k)
        gap = _run_case(suite, case_seed)
        if inject_fault and k == 0:
            gap += 10.0 * tol
        if gap > worst:
            worst = gap
        if gap > tol and first_bad is None:
            first_bad = k
    return SuiteReport(suite=suite, instances=instances, max_discrepancy=worst,
                       tolerance=tol, first_bad_seed=first_bad)


def _run_case(suite: str, case_seed: SeedSpec) -> float:
    rng = case_seed.generator()
    if suite == "median":
        x, _ = _random_instance(rng)
        return float(np.abs(aggregate(AggregatorSpec("median"), x, 0) - ref.median_reference(x)).max())

    if suite == "trimmed_mean":
        x, n = _random_instance(rng, n_min=3)
        spec = AggregatorSpec("trimmed_mean")
        f = int(rng.integers(0, max_f(spec, n) + 1))
        return float(np.abs(aggregate(spec, x, f) - ref.trimmed_mean_reference(x, f)).max())

    if suite == "krum":
        x, n = _random_instance(rng, n_min=4)
        spec = AggregatorSpec("multi_krum")
        f = int(rng.integers(0, max_f(spec, n) + 1))
        gap = float(np.abs(_krum_scores(pairwise_sq_dists(x), f) - ref.krum_scores_reference(x, f)).max())
        return max(gap, float(np.abs(aggregate(spec, x, f) - ref.multi_krum_reference(x, f)).max()))

    if suite == "bulyan":
        n = int(rng.integers(6, 12))
        spec = AggregatorSpec("bulyan")
        f = int(rng.integers(0, max_f(spec, n) + 1))
        x = rng.standard_normal((n, int(rng.integers(1, 6))))
        out, sel = aggregate_with_selection(spec, x, f)
        sel_gap = 0.0 if np.array_equal(sel, np.asarray(ref.bulyan_selection_reference(x, f))) else 1.0
        return max(sel_gap, float(np.abs(out - ref.bulyan_reference(x, f)).max()))

    if suite == "weiszfeld":
        x, _ = _random_instance(rng, n_min=2)
        out = aggregate(AggregatorSpec("geometric_median", iters=8), x, 0)
        slack = ref.geometric_median_objective(out, x) - ref.geometric_median_objective(x.mean(axis=0), x)
        return max(0.0, float(slack))

    if suite == "dnc":
        n = int(rng.integers(4, 12))
        # d = 1 checks the closed form the kernel takes at one coordinate
        d = int(rng.integers(1, 8))
        x = rng.standard_normal((n, d))
        # plant a dominant outlier so the top eigengap is wide enough for the
        # fixed 50 power steps to converge well past the comparison tolerance
        spike = rng.standard_normal(d)
        x[0] += 20.0 * spike / max(np.linalg.norm(spike), 1e-300)
        centered = x - x.mean(axis=0)
        v_ref = ref.top_direction_reference(centered)
        scores = _spectral_scores(centered[None], [case_seed.child("power")])[0]
        ref_scores = (centered @ v_ref) ** 2
        denom = max(float(ref_scores.max()), 1e-12)
        return float(np.abs(scores - ref_scores).max()) / denom

    if suite == "gas":
        n = int(rng.integers(3, 10))
        d = int(rng.integers(2, 12))
        x = rng.standard_normal((n, d))
        base = AggregatorSpec("median")
        cfg1 = GasConfig(p=1, base=base, selection=KnownF(0), seed=case_seed.child("gas1"))
        _, table, _, _ = gas_aggregate(cfg1, x)
        direct = np.linalg.norm(x - aggregate(base, x, 0), axis=1)
        gap = float(np.abs(table.totals - direct).max())
        cfg2 = GasConfig(p=min(3, d), base=base, selection=KnownF(0), seed=case_seed.child("gas2"))
        agg, _, _, _ = gas_aggregate(cfg2, x)
        gap = max(gap, float(np.abs(agg - x.mean(axis=0)).max()))
        return max(gap, _gas_per_group_gap(rng, case_seed))

    raise ValueError(f"unknown oracle suite {suite!r}")


def _gas_per_group_gap(rng: np.random.Generator, case_seed: SeedSpec) -> float:
    """Worst gap between gas_aggregate and a table built group by group.

    The instance has uneven group sizes (d mod p != 0). Every base, with f
    drawn within its own bound, must give the same selection, group scores
    and totals bit for bit; a mismatch counts as a gap of 1.
    """
    n = int(rng.integers(5, 12))
    f = int(rng.integers(0, max_f(AggregatorSpec("multi_krum"), n) + 1))
    d = int(rng.integers(3, 40))
    p = int(rng.choice([q for q in range(2, d) if d % q]))
    x = rng.standard_normal((n, d)) * float(rng.uniform(0.5, 3.0))
    rnd = int(rng.integers(0, 100))
    # bulyan and dnc draw f within their own bounds; the others take the f
    # above, within multi_krum's bound, the tightest of theirs
    for kind in KINDS:
        base = AggregatorSpec(kind)
        f_kind = int(rng.integers(0, max_f(base, n) + 1)) if kind in ("bulyan", "dnc") else f
        cfg = GasConfig(p=p, base=base, selection=KnownF(f_kind),
                        seed=case_seed.child("gas_groups"))
        agg, table, sel, part = gas_aggregate(cfg, x, round=rnd)
        round_seed = cfg.seed.child("round", rnd)
        scores = np.empty((n, p))
        totals = np.zeros(n)
        for q, subset in enumerate(part.subsets):
            _, scores[:, q] = group_scores(x[:, subset], cfg.base, f_kind,
                                           seed=round_seed.child("group", q))
            totals += scores[:, q]
        kept = sorted(sorted(range(n), key=lambda i: (totals[i], i))[: n - f_kind])
        if not (np.array_equal(table.group_scores, scores) and np.array_equal(table.totals, totals)
                and sel.selected.tolist() == kept
                and np.array_equal(agg, x[kept].mean(axis=0))):
            return 1.0
    return 0.0


__all__ = ["SUITES", "SuiteReport", "run_suite"]
