"""The benchmark's workloads and the output checks every run makes.

Each workload is a closed loop: a single caller runs `step(state, t)` and
starts the next round only after the previous one returns. Every input derives
from the workload seed; gasfl receives only the generated inputs.

- desk_median: the desk instance (n=50, f=10, lie z=1.5, 650-dim softmax
  model, beta=0.5 shards, 10k test split) under plain coordinate-wise median.
  Client training dominates and GAS is bypassed.
- desk_gas: the same clients and attack under GAS(median, p=650, known f).
  Training is identical to desk_median, so the gap between the two
  isolates the GAS layer.
- wide_server: training-free server rounds at d=1e4. Honest uploads come
  from `SyntheticGradientModel`, the min_max attack crafts f=10 uploads,
  and GAS(multi_krum, p=100) defends. No model code runs.

Checks are made outside the timed interval: the first `CHECK_ROUNDS` rounds
are replayed from a fresh set-up, must reproduce the timed rounds exactly,
and their aggregates are recomputed with the straight-line rules in
`gasfl.reference`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from gasfl import attacks, core, gas, simulation
from gasfl import reference as ref
from gasfl.aggregators import AggregatorSpec
from gasfl.attacks import AttackContext, AttackSpec
from gasfl.checks import EXACT_TOL
from gasfl.core import SeedSpec
from gasfl.data import SyntheticGradientModel

import tracing

CHECK_ROUNDS = 3
N_CLIENTS, N_BYZANTINE = 50, 10

REFERENCE_RULES = {
    "median": lambda points, f: ref.median_reference(points),
    "multi_krum": ref.multi_krum_reference,
}


@dataclass(frozen=True)
class Outcome:
    """What one round produced; equal seeds give equal outcomes."""

    deviation: float
    update_norm: float
    honest_kept_share: float
    byz_kept: int
    accuracy: float | None = None


def check_gas(config: gas.GasConfig, uploads: np.ndarray, result) -> list[str]:
    """Recompute GAS totals per subset of the returned partition with the
    reference base rule, and require the same totals and selection."""
    agg, table, selection, partition = result
    n, d = uploads.shape
    if not np.array_equal(np.sort(np.concatenate(partition.subsets)), np.arange(d)):
        return ["gas partition is not a disjoint cover of the coordinates"]
    rule = REFERENCE_RULES[config.base.kind]
    totals = np.zeros(n)
    for subset in partition.subsets:  # ascending group order, as gas sums them
        sub = uploads[:, subset]
        totals += np.linalg.norm(sub - rule(sub, config.selection.f), axis=1)
    kept = sorted(sorted(range(n), key=lambda i: (totals[i], i))[: selection.keep_count])
    problems = []
    gap = float(np.abs(totals - table.totals).max())
    if gap > EXACT_TOL:
        problems.append(f"gas totals differ from the reference by {gap:.3e}")
    if selection.selected.tolist() != kept:
        problems.append("gas selection differs from the reference selection")
    elif np.abs(agg - uploads[kept].mean(axis=0)).max() > EXACT_TOL:
        problems.append("gas aggregate is not the mean of the kept clients")
    return problems


def check_min_max(honest: np.ndarray, crafted: np.ndarray) -> list[str]:
    """The crafted vector must lie inside the honest distance envelope."""
    vec = crafted[0]
    if not (crafted == vec).all():
        return ["min_max uploads are not identical"]
    envelope = max(float(np.linalg.norm(honest - row, axis=1).max()) for row in honest)
    reach = float(np.linalg.norm(honest - vec, axis=1).max())
    if reach > envelope * (1.0 + 1e-9):
        return [f"min_max vector reaches {reach:.6g}, outside the envelope {envelope:.6g}"]
    return []


def attempt(step, state, t: int) -> Outcome | None:
    """One round as the timed loop runs it: a ValueError is a failed round."""
    try:
        return step(state, t)
    except ValueError:
        return None


@dataclass
class Segment:
    """One closed-loop stretch of rounds; a failed round's outcome is None."""

    times: list[float] = field(default_factory=list)
    outcomes: list[Outcome | None] = field(default_factory=list)
    failed: int = 0
    setup_times: list[float] = field(default_factory=list)

    @property
    def rounds_per_s(self) -> float:
        return (len(self.times) - self.failed) / sum(self.times)


def run_segment(workload, step, seconds: float, min_rounds: int,
                setup_samples: int = 0) -> Segment:
    """Run rounds from a fresh set-up until `seconds` pass and `min_rounds` ran.

    A round that raises ValueError counts as failed, and the next round
    continues from the unchanged parameters. `setup_samples` extra set-ups
    are timed at even intervals between rounds, so that their median sees
    the same machine state as the rounds do. No set-up is part of any
    round's time.
    """
    seg = Segment()
    state, t = workload.setup(0), 0
    started = time.perf_counter()
    while len(seg.times) < min_rounds or time.perf_counter() - started < seconds:
        due = len(seg.setup_times) * seconds / max(setup_samples, 1)
        if len(seg.setup_times) < setup_samples and time.perf_counter() - started >= due:
            t0 = time.perf_counter()
            workload.setup(0)
            seg.setup_times.append(time.perf_counter() - t0)
        if t == workload.rounds_per_repeat:
            state, t = workload.setup(len(seg.times) // workload.rounds_per_repeat), 0
        t0 = time.perf_counter()
        outcome = attempt(step, state, t)
        seg.times.append(time.perf_counter() - t0)
        seg.failed += outcome is None
        seg.outcomes.append(outcome)
        t += 1
    return seg


class Desk:
    """The desk instance under one defense; repeats are 200-round runs.

    The quality metrics average the first three repeats, each with its own
    derived seed, so that one unlucky data draw moves them less.
    """

    rounds_per_repeat = 200
    quality_rounds = 3 * rounds_per_repeat

    def __init__(self, defense, seed: int):
        self.cfg = simulation.ExperimentConfig(
            n_clients=N_CLIENTS, n_byzantine=N_BYZANTINE, rounds=self.rounds_per_repeat,
            attack=AttackSpec("lie", z=1.5), defense=defense, repeats=1, master_seed=seed)
        self.master = SeedSpec(seed)

    def setup(self, repeat: int = 0) -> simulation.RunState:
        return simulation.init_run(self.cfg, self.master.child("repeat", repeat))

    def step(self, state: simulation.RunState, t: int) -> Outcome:
        w = state.w
        state.w, record = simulation.run_round(state, self.cfg, t)
        return Outcome(record.deviation, float(np.linalg.norm(w - state.w)),
                       record.honest_inclusion_ratio, record.byz_inclusion_count,
                       record.test_accuracy)

    def check(self, timed: list[Outcome | None]) -> list[str]:
        calls = []
        owner, attr = self.captured
        obj = tracing.resolve(owner)
        original = obj.__dict__[attr]

        def capture(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append((args, result))
            return result

        state = self.setup(0)
        with tracing.swapped([(obj, attr, capture)]):
            replay = [attempt(self.step, state, t) for t in range(CHECK_ROUNDS)]
        problems = []
        if replay != timed[:CHECK_ROUNDS]:
            problems.append("replayed rounds differ from the timed rounds")
        for args, result in calls:
            problems += self.check_call(args, result)
        return problems


class DeskMedian(Desk):
    captured = ("gasfl.simulation", "aggregate_with_selection")

    def __init__(self, seed: int):
        super().__init__(simulation.PlainDefense(AggregatorSpec("median")), seed)

    @staticmethod
    def check_call(args, result) -> list[str]:
        uploads = args[1]
        agg, selected = result
        gap = float(np.abs(agg - ref.median_reference(uploads)).max())
        if gap > EXACT_TOL:
            return [f"median differs from the reference by {gap:.3e}"]
        if not np.array_equal(selected, np.arange(uploads.shape[0])):
            return ["plain median did not keep every client"]
        return []


class DeskGas(Desk):
    captured = ("gasfl.gas", "gas_aggregate")

    def __init__(self, seed: int):
        super().__init__(simulation.GasDefense(AggregatorSpec("median"), p=650), seed)

    @staticmethod
    def check_call(args, result) -> list[str]:
        return check_gas(args[0], args[1], result)


@dataclass(frozen=True)
class WideState:
    model: SyntheticGradientModel
    means: np.ndarray


class WideServer:
    """Training-free server rounds: sample, craft, ingress check, defend."""

    rounds_per_repeat = None
    quality_rounds = 100
    dim, p, sigma = 10_000, 100, 0.5

    def __init__(self, seed: int):
        self.master = SeedSpec(seed)
        self.attack = AttackSpec("min_max")
        self.config = gas.GasConfig(p=self.p, base=AggregatorSpec("multi_krum"),
                                    selection=gas.KnownF(N_BYZANTINE), seed=self.master.child("gas"))
        self.byz_mask = np.arange(N_CLIENTS) >= N_CLIENTS - N_BYZANTINE

    def setup(self, repeat: int = 0) -> WideState:
        """Construct the gradient model and draw its fixed per-client means."""
        model = SyntheticGradientModel(dim=self.dim, n_honest=N_CLIENTS - N_BYZANTINE, kappa=1.0,
                                       sigma=self.sigma, seed=self.master.child("gradients"))
        return WideState(model, model.client_means())

    def _round(self, state: WideState, t: int):
        honest = state.model.sample_round(t)
        crafted = attacks.craft(self.attack, AttackContext(honest, N_BYZANTINE),
                                self.master.child("attack", t))
        uploads = np.vstack([honest, crafted])
        core.check_server_ingress(uploads)
        return honest, crafted, uploads, gas.gas_aggregate(self.config, uploads, round=t)

    def _outcome(self, honest: np.ndarray, result) -> Outcome:
        agg, _, selection, _ = result
        share, byz_kept = simulation.inclusion_metrics(selection.selected, self.byz_mask)
        return Outcome(simulation.deviation_metric(agg, honest), float(np.linalg.norm(agg)),
                       share, byz_kept)

    def step(self, state: WideState, t: int) -> Outcome:
        honest, _, _, result = self._round(state, t)
        return self._outcome(honest, result)

    def check(self, timed: list[Outcome | None]) -> list[str]:
        state = self.setup(0)
        problems = []
        for t in range(CHECK_ROUNDS):
            try:
                honest, crafted, uploads, result = self._round(state, t)
            except ValueError:
                if timed[t] is not None:
                    problems.append(f"replayed round {t} failed, the timed round did not")
                continue
            if self._outcome(honest, result) != timed[t]:
                problems.append(f"replayed round {t} differs from the timed round")
            noise = np.linalg.norm(honest - state.means, axis=1)
            if np.abs(noise - self.sigma).max() > 0.1 * self.sigma:
                problems.append(f"round {t} honest noise norms leave sigma={self.sigma} +- 10%")
            problems += check_min_max(honest, crafted)
            if t == 0:  # the pure-Python multi_krum reference takes seconds per round
                problems += check_gas(self.config, uploads, result)
        return problems


WORKLOADS = {"desk_median": DeskMedian, "desk_gas": DeskGas, "wide_server": WideServer}
