"""Deterministic federated simulation with attack injection and pluggable defenses.

One round samples clients, runs local SGD on honest clients, lets the attack
replace the Byzantine uploads, aggregates with the configured defense, and
applies the aggregate with server learning rate 1. Every random choice is a
labeled child of the run seed, so rounds are pure functions of (config,
seed, t) and a whole run is reproducible from its config and seed. `run_round`
trains the uploads and hands them to `server_step`, the server's half of a
round; a training-free round feeds it `SyntheticGradientModel` rows instead.

Local SGD runs once per round for all training clients together:
`local_train` steps every client's parameters as rows of one (k, d) array
and takes their gradients with `Model.grads`. Each client keeps its own
permutation stream and batches, so every row is bit-identical to training
that client alone with `reference.local_train_reference`. The shards are
fixed for a run and live in one `ClientShards` built by `init_run`.

Seed derivation used by one run (all children of the per-repeat run seed):
  data            -> "data"
  shard partition -> "shards"
  byzantine ids   -> "byz_identity"
  model init      -> "model_init"
  round t sample  -> ("sample", t)
  client training -> ("train", t) then ("client", client_id)
and those read by server_step:
  attack crafting -> ("attack", t)
  PlainDefense    -> ("agr", t)
  GasDefense      -> "gas" (partitions, drawn for round t)
  BucketedDefense -> ("bucketing", t)

Each defense states its config `kind`, the count it hands its base rule and
that count's bound at n clients (`base_input`), the field that sets the count
(`count_field`), and runs itself on one round's uploads (`apply`, on the stream
above). `server_step` and `ExperimentConfig` read these and name no defense type.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Sequence, Union

import numpy as np

from . import gas as gas_mod
from .aggregators import AggregatorSpec, aggregate_with_selection, bucketing_wrap, max_f
from .attacks import OWN_GRADIENT_KINDS, AttackContext, AttackSpec, craft
from .core import SeedSpec, check_server_ingress, l2_norm
from .data import ClientShards, SyntheticDataset, dirichlet_partition, generate_synthetic
from .models import Model


@dataclass(frozen=True)
class TrainerConfig:
    local_epochs: int = 5
    batch_size: int = 64
    learning_rate: float = 0.1
    momentum: float = 0.5
    weight_decay: float = 1e-4
    clip_norm: float | None = 2.0

    def __post_init__(self):
        if self.clip_norm is not None and not self.clip_norm > 0:
            raise ValueError(f"clip_norm must be positive when enabled, got {self.clip_norm}")
        if self.local_epochs < 0:
            raise ValueError(f"local_epochs must be >= 0, got {self.local_epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        # a zero learning rate is a valid no-op; a negative one trains by gradient ascent
        if not self.learning_rate >= 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not self.weight_decay >= 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")


@dataclass(frozen=True)
class DataConfig:
    """Dataset knobs; the defaults are the standard desk instance.

    The noise level and shard size are calibrated so the classification task
    is learnable to ~0.93 within 200 rounds yet heterogeneous enough for
    model-poisoning attacks to separate the defenses; the large test split
    keeps the best-over-rounds accuracy metric from rewarding evaluation
    noise.
    """

    n_classes: int = 10
    n_features: int = 64
    per_class: int = 50
    r_sep: float = 7.0
    noise: float = 1.75
    beta: float = 0.5
    test_per_class: int | None = 1000

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {self.n_classes}")
        for name in ("n_features", "per_class"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.test_per_class is not None and self.test_per_class < 1:
            raise ValueError(f"test_per_class must be >= 1 or null, got {self.test_per_class}")
        if not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        for name in ("r_sep", "noise"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class PlainDefense:
    base: AggregatorSpec
    kind: ClassVar[str] = "plain"
    count_field: ClassVar[str] = "n_byzantine"

    def base_input(self, n: int, f: int) -> tuple[int, int]:
        """(count, bound): f, and the largest f the rule takes at n clients (-1 if none)."""
        return f, max_f(self.base, n)

    def apply(self, uploads: np.ndarray, f: int, seed: SeedSpec, t: int) -> tuple[np.ndarray, np.ndarray]:
        """(aggregate, kept positions) of the base rule on stream ("agr", t)."""
        return aggregate_with_selection(self.base, uploads, f, seed.child("agr", t))


@dataclass(frozen=True)
class GasDefense:
    """Split-gradient defense. With `delta` None the server knows each round's
    Byzantine count f and keeps n - f clients; otherwise f is unknown to it
    and it drops ceil(delta * n), with delta read as the decimal it prints as."""

    base: AggregatorSpec
    p: int
    delta: float | None = None
    partition_policy: str = "per_round"
    kind: ClassVar[str] = "gas"

    def __post_init__(self):
        if self.delta is not None and not 0.0 <= self.delta < 0.5:  # a NaN fails too
            raise ValueError(f"delta must lie in [0, 0.5), got {self.delta}")
        # runs the p and partition_policy checks
        gas_mod.GasConfig(self.p, self.base, gas_mod.KnownF(0), SeedSpec(0), self.partition_policy)

    @property
    def count_field(self) -> str:
        return "n_byzantine" if self.delta is None else "defense.delta"

    def base_input(self, n: int, f: int) -> tuple[int, int]:
        """(count, bound): f, or ceil(delta * n) whatever f is, and the rule's bound
        at n, -1 below the 2 clients GAS needs. delta is read as the decimal it
        prints as: the float 0.14 * 50 reads 7.000000000000001, whose ceiling is 8."""
        count = f if self.delta is None else math.ceil(Fraction(repr(self.delta)) * n)
        return count, max_f(self.base, n) if n >= 2 else -1

    def apply(self, uploads: np.ndarray, f: int, seed: SeedSpec, t: int) -> tuple[np.ndarray, np.ndarray]:
        """(aggregate, kept positions) of GAS keeping n - f, on stream "gas" at round t."""
        config = gas_mod.GasConfig(self.p, self.base, gas_mod.KnownF(f), seed.child("gas"),
                                   self.partition_policy)
        agg, _, result, _ = gas_mod.gas_aggregate(config, uploads, round=t)
        return agg, result.selected


@dataclass(frozen=True)
class BucketedDefense:
    base: AggregatorSpec
    s: int
    kind: ClassVar[str] = "bucketing"
    count_field: ClassVar[str] = "defense.s"

    def __post_init__(self):
        if self.s < 1:
            raise ValueError(f"s must be >= 1, got {self.s}")

    def base_input(self, n: int, f: int) -> tuple[int, int]:
        """(count, bound): f, and the rule's bound over the ceil(n / s) bucket means."""
        return f, max_f(self.base, -(-n // self.s))

    def apply(self, uploads: np.ndarray, f: int, seed: SeedSpec, t: int) -> tuple[np.ndarray, np.ndarray]:
        """(aggregate, every position) of bucketing on stream ("bucketing", t)."""
        agg = bucketing_wrap(self.base, uploads, f, self.s, seed.child("bucketing", t))
        return agg, np.arange(uploads.shape[0])


Defense = Union[PlainDefense, GasDefense, BucketedDefense]


@dataclass(frozen=True)
class ExperimentConfig:
    n_clients: int
    n_byzantine: int
    rounds: int
    attack: AttackSpec
    defense: Defense
    trainer: TrainerConfig = TrainerConfig()
    data: DataConfig = DataConfig()
    hidden: int | None = None
    init_scale: float = 0.3
    client_sample_ratio: float = 1.0
    repeats: int = 5
    master_seed: int = 0

    @property
    def sample_size(self) -> int:
        """Clients sampled per round, before those with empty shards are dropped."""
        return max(1, int(round(self.client_sample_ratio * self.n_clients)))

    def __post_init__(self):
        # a Byzantine minority: the loosest row of the aggregators.max_f table
        if not 0 <= self.n_byzantine <= max_f(AggregatorSpec("mean"), self.n_clients):
            raise ValueError(f"n_byzantine must satisfy 0 <= f < n/2, "
                             f"got n={self.n_clients}, f={self.n_byzantine}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        if not 0 < self.client_sample_ratio <= 1:
            raise ValueError(f"client_sample_ratio must lie in (0, 1], got {self.client_sample_ratio}")
        if not self.init_scale >= 0:
            raise ValueError(f"init_scale must be >= 0, got {self.init_scale}")
        dim = Model(self.data.n_classes, self.data.n_features, self.hidden).dim  # checks hidden
        if isinstance(self.defense, GasDefense) and self.defense.p > dim:
            raise ValueError(f"defense.p must be <= the model dimension {dim}, got {self.defense.p}")
        count, bound = self.defense.base_input(self.sample_size, self.n_byzantine)
        rule = f"{self.defense.kind}({self.defense.base.kind})"
        if self.sample_size == self.n_clients:  # every round then hands the defense all clients
            if count > bound:
                raise ValueError(f"{self.defense.count_field} is out of the defense's range with every "
                                 f"client sampled: {rule} takes f <= {bound} at n={self.n_clients}, "
                                 f"got f={count}")
        # a partial round's count is clamped to the bound, so only a sample
        # too small for the defense at f = 0 fails every round
        elif bound < 0:
            raise ValueError(f"client_sample_ratio {self.client_sample_ratio} samples "
                             f"{self.sample_size} of {self.n_clients} clients per round, too few "
                             f"for {rule} at any f")


@dataclass(frozen=True)
class StepRecord:
    """What `server_step` measured of one round's defense."""
    deviation: float
    honest_inclusion_ratio: float
    byz_inclusion_count: int
    f_excess: int  # how far the round's count passed the rule's bound, clamped off


@dataclass(frozen=True)
class RoundRecord(StepRecord):
    round: int
    test_accuracy: float
    wall_time: float


@dataclass(frozen=True)
class ExperimentSummary:
    best_accuracies: tuple[float, ...]
    best_mean: float
    best_std: float


@dataclass
class RunState:
    model: Model
    w: np.ndarray
    shards: ClientShards
    test: SyntheticDataset
    byz_ids: frozenset[int]
    seed: SeedSpec


def local_train(model: Model, w: np.ndarray, shards: ClientShards, cfg: TrainerConfig,
                seeds: Sequence[SeedSpec], flip_labels: np.ndarray | None = None) -> np.ndarray:
    """Local SGD with momentum, weight decay, and per-batch gradient clipping
    for every client of `shards` at once, all starting from w.

    Returns the (k, d) updates g_i = w_start - w_end, row i bit-identical to
    `reference.local_train_reference` on shard i with seeds[i]. Client i
    draws each epoch's permutation from its own seeds[i].generator(), so it
    trains on the batches it would train on alone; a client whose epochs
    have fewer batches sits out the later steps. Clients with
    flip_labels[i] train on flipped labels (y -> C-1-y), the data-poisoning
    path of Byzantine clients under the label_flip attack.
    """
    counts = shards.counts
    if (counts == 0).any():
        raise ValueError("empty client shard")
    # largest shards first: each step's clients are a prefix, equal batch heights are runs
    rank = np.argsort(-counts, kind="stable")
    counts, starts = counts[rank], shards.starts[rank]
    flips = (np.zeros(counts.size, dtype=bool) if flip_labels is None
             else np.asarray(flip_labels, dtype=bool)[rank])
    size, epochs = cfg.batch_size, cfg.local_epochs
    n_batches = -(-int(counts[0]) // size)
    steps = []
    for j in range(n_batches):
        heights = np.clip(counts - j * size, 0, size)
        steps.append((slice(j * size, j * size + int(heights[0])), heights[heights > 0]))
    # rows[e, i, s]: data row of slot s in client i's epoch e (row 0 pads, never read);
    # permuted() draws the same permutations as one permutation() call per epoch
    slots = np.arange(n_batches * size) < counts[:, None]
    unshuffled = np.tile(np.arange(counts[0]), (epochs, 1))
    perms = [seeds[i].generator().permuted(unshuffled[:, :n], axis=1) for i, n in zip(rank, counts)]
    rows = np.zeros((epochs, *slots.shape), dtype=np.int64)
    rows[:, slots] = np.concatenate(perms, axis=1) + np.repeat(starts, counts)
    labels = shards.labels[rows]
    labels[:, flips] = (model.n_classes - 1) - labels[:, flips]

    current = np.repeat(w[None, :], counts.size, axis=0)
    velocity = np.zeros_like(current)
    scratch = np.empty_like(current)
    for epoch in range(epochs):
        for batch, heights in steps:
            k = heights.size
            cur, vel, tmp = current[:k], velocity[:k], scratch[:k]
            g = model.grads(cur, shards.features[rows[epoch, :k, batch]],
                            labels[epoch, :k, batch], heights)
            if cfg.clip_norm is not None:
                norms = np.sqrt(g[:, None, :] @ g[:, :, None])[:, 0, 0]
                over = norms > cfg.clip_norm
                if over.any():
                    g[over] *= (cfg.clip_norm / norms[over])[:, None]
            # v = momentum * v + (g + wd * w); w = w - lr * v, in place but with the
            # same operations in the same order, so rows stay bit-identical to the reference
            np.multiply(cur, cfg.weight_decay, out=tmp)
            g += tmp
            vel *= cfg.momentum
            vel += g
            np.multiply(vel, cfg.learning_rate, out=tmp)
            cur -= tmp
    updates = np.empty_like(current)
    updates[rank] = w - current
    return updates


def deviation_metric(aggregate_vec: np.ndarray, honest_gradients: np.ndarray) -> float:
    """l2 distance between the defended aggregate and the honest mean."""
    honest = np.asarray(honest_gradients, dtype=np.float64)
    if honest.shape[0] == 0:
        raise ValueError("no honest gradients to compare against")
    return l2_norm(aggregate_vec - honest.mean(axis=0))


def inclusion_metrics(selected: np.ndarray, byz_mask: np.ndarray) -> tuple[float, int]:
    """(honest inclusion ratio, Byzantine inclusion count) for one selection.

    `selected` holds positions into the round's upload list; `byz_mask`
    flags which positions belong to Byzantine clients.
    """
    byz_mask = np.asarray(byz_mask, dtype=bool)
    n_honest = int((~byz_mask).sum())
    kept_honest = int((~byz_mask[selected]).sum())
    kept_byz = int(byz_mask[selected].sum())
    ratio = kept_honest / n_honest if n_honest else 0.0
    return ratio, kept_byz


def init_run(cfg: ExperimentConfig, seed: SeedSpec) -> RunState:
    """Draw data, shard it, fix Byzantine identities, and init the model."""
    dc = cfg.data
    train, test = generate_synthetic(dc.n_classes, dc.n_features, dc.per_class,
                                     dc.r_sep, dc.noise, seed.child("data"),
                                     test_per_class=dc.test_per_class)
    partition = dirichlet_partition(train.labels, cfg.n_clients, dc.beta, seed.child("shards"))
    shards = ClientShards.from_partition(train.features, train.labels, partition)
    ids = seed.child("byz_identity").generator().permutation(cfg.n_clients)
    byz_ids = frozenset(int(i) for i in ids[: cfg.n_byzantine])
    model = Model(n_classes=dc.n_classes, n_features=dc.n_features, hidden=cfg.hidden)
    w = model.init_params(seed.child("model_init"), cfg.init_scale)
    return RunState(model=model, w=w, shards=shards, test=test, byz_ids=byz_ids, seed=seed)


def _sample_clients(cfg: ExperimentConfig, state: RunState, t: int) -> np.ndarray:
    rng = state.seed.child("sample", t).generator()
    sampled = np.sort(rng.choice(cfg.n_clients, size=cfg.sample_size, replace=False))
    return sampled[state.shards.counts[sampled] > 0].astype(np.int64)


def run_round(state: RunState, cfg: ExperimentConfig, t: int) -> tuple[np.ndarray, RoundRecord]:
    """Execute round t and return (new parameter vector, metrics record)."""
    started = time.perf_counter()
    sampled = _sample_clients(cfg, state, t)
    byz_mask = np.isin(sampled, list(state.byz_ids))
    if byz_mask.all():
        raise ValueError(f"round {t}: no honest client sampled")

    needs_own = cfg.attack.kind in OWN_GRADIENT_KINDS
    train_ids = sampled if needs_own else sampled[~byz_mask]
    train_seed = state.seed.child("train", t)
    updates = local_train(state.model, state.w, state.shards.take(train_ids), cfg.trainer,
                          [train_seed.child("client", c) for c in train_ids],
                          flip_labels=byz_mask if cfg.attack.kind == "label_flip" else None)
    honest, own = (updates[~byz_mask], updates[byz_mask]) if needs_own else (updates, None)

    agg, step = server_step(cfg.defense, cfg.attack, honest, byz_mask, state.seed, t, own)
    new_w = state.w - agg
    accuracy = state.model.accuracy(new_w, state.test.features, state.test.labels)
    return new_w, RoundRecord(**vars(step), round=t, test_accuracy=accuracy,
                              wall_time=time.perf_counter() - started)


def server_step(defense: Defense, attack: AttackSpec, honest: np.ndarray, byz_mask: np.ndarray,
                seed: SeedSpec, t: int, own: np.ndarray | None = None) -> tuple[np.ndarray, StepRecord]:
    """Round t's server side: craft, stack, check at ingress, defend and score.

    `byz_mask` flags the Byzantine positions of the upload order, `honest` holds the
    other rows in that order and `own` the Byzantine rows' own gradients.
    """
    f = int(byz_mask.sum())
    crafted = craft(attack, AttackContext(honest, f, own), seed.child("attack", t))
    uploads = np.empty((byz_mask.size, honest.shape[1]))
    uploads[~byz_mask] = honest
    uploads[byz_mask] = crafted
    check_server_ingress(uploads)

    # A sampled round can hold more Byzantine clients than the defense's bound, and
    # GAS's ceil(delta * n) can pass it too. The rule is then handed the bound
    # (0 if it takes no f at all, and raises), and the excess is returned.
    wanted, bound = defense.base_input(byz_mask.size, f)
    handed = min(wanted, max(bound, 0))
    try:
        agg, selected = defense.apply(uploads, handed, seed, t)
    except ValueError as exc:
        raise ValueError(f"defense failed in round {t}: {exc}") from exc
    ratio, byz_in = inclusion_metrics(selected, byz_mask)
    return agg, StepRecord(deviation_metric(agg, honest), ratio, byz_in, wanted - handed)


def run_single(cfg: ExperimentConfig, seed: SeedSpec) -> list[RoundRecord]:
    """One full training run of cfg.rounds rounds from a fresh state."""
    state = init_run(cfg, seed)
    records = []
    for t in range(cfg.rounds):
        state.w, record = run_round(state, cfg, t)
        records.append(record)
    return records


def run_experiment(cfg: ExperimentConfig) -> tuple[list[list[RoundRecord]], ExperimentSummary]:
    """cfg.repeats independent runs; summary aggregates the per-run best accuracy."""
    master = SeedSpec(cfg.master_seed)
    all_records = [run_single(cfg, master.child("repeat", r)) for r in range(cfg.repeats)]
    bests = tuple(max(rec.test_accuracy for rec in run) for run in all_records)
    summary = ExperimentSummary(best_accuracies=bests,
                                best_mean=float(np.mean(bests)),
                                best_std=float(np.std(bests)))
    return all_records, summary


__all__ = [
    "TrainerConfig", "DataConfig", "PlainDefense", "GasDefense", "BucketedDefense",
    "ExperimentConfig", "StepRecord", "RoundRecord", "ExperimentSummary", "RunState",
    "local_train", "deviation_metric", "inclusion_metrics",
    "init_run", "run_round", "server_step", "run_single", "run_experiment",
]
