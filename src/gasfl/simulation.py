"""Deterministic federated simulation with attack injection and pluggable defenses.

One round samples clients, runs local SGD on honest clients, lets the attack
replace the Byzantine uploads, aggregates with the configured defense, and
applies the aggregate with server learning rate 1. Every random choice is a
labeled child of the run seed, so rounds are pure functions of (config,
seed, t) and a whole run is reproducible from its config and seed.

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
  attack crafting -> ("attack", t)
  defense streams -> "gas" (partitions), ("agr", t), ("bucketing", t)
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from . import gas as gas_mod
from .aggregators import AggregatorSpec, aggregate_with_selection, bucketing_wrap
from .attacks import AttackContext, AttackSpec, craft
from .core import SeedSpec, check_server_ingress
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
        if self.clip_norm is not None and self.clip_norm <= 0:
            raise ValueError(f"clip_norm must be positive when enabled, got {self.clip_norm}")
        if self.local_epochs < 0:
            raise ValueError(f"local_epochs must be >= 0, got {self.local_epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


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
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        for name in ("r_sep", "noise"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class PlainDefense:
    base: AggregatorSpec


@dataclass(frozen=True)
class GasDefense:
    """Split-gradient defense; selection either uses the true Byzantine count
    of the round ("known_f") or drops a fixed fraction delta ("ratio")."""

    base: AggregatorSpec
    p: int
    selection_mode: str = "known_f"
    delta: float = 0.1
    partition_policy: str = "per_round"

    def __post_init__(self):
        if self.selection_mode not in ("known_f", "ratio"):
            raise ValueError(f"selection_mode must be 'known_f' or 'ratio', got {self.selection_mode!r}")
        self.gas_config(0, SeedSpec(0))  # runs the p, delta and partition_policy checks

    def gas_config(self, f_round: int, seed: SeedSpec) -> gas_mod.GasConfig:
        """The round's GasConfig, keeping n - f_round clients in known_f mode."""
        ratio = gas_mod.Ratio(self.delta)
        selection = gas_mod.KnownF(f_round) if self.selection_mode == "known_f" else ratio
        return gas_mod.GasConfig(p=self.p, base=self.base, selection=selection, seed=seed,
                                 partition_policy=self.partition_policy)


@dataclass(frozen=True)
class BucketedDefense:
    base: AggregatorSpec
    s: int

    def __post_init__(self):
        if self.s < 1:
            raise ValueError(f"s must be >= 1, got {self.s}")


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
        if not 0 <= self.n_byzantine < self.n_clients / 2:
            raise ValueError(f"n_byzantine must satisfy 0 <= f < n/2, "
                             f"got n={self.n_clients}, f={self.n_byzantine}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        if not 0 < self.client_sample_ratio <= 1:
            raise ValueError(f"client_sample_ratio must lie in (0, 1], got {self.client_sample_ratio}")
        if isinstance(self.defense, GasDefense) and self.sample_size < 2:
            raise ValueError(f"client_sample_ratio {self.client_sample_ratio} samples "
                             f"{self.sample_size} of {self.n_clients} clients per round, "
                             f"and a gas defense needs at least 2")
        if self.init_scale < 0:
            raise ValueError(f"init_scale must be >= 0, got {self.init_scale}")
        dim = Model(self.data.n_classes, self.data.n_features, self.hidden).dim  # checks hidden
        if isinstance(self.defense, GasDefense) and self.defense.p > dim:
            raise ValueError(f"defense.p must be <= the model dimension {dim}, got {self.defense.p}")


@dataclass(frozen=True)
class RoundRecord:
    round: int
    test_accuracy: float
    deviation: float
    honest_inclusion_ratio: float
    byz_inclusion_count: int
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
    return float(np.linalg.norm(aggregate_vec - honest.mean(axis=0)))


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
    shards = ClientShards.from_shards([(train.features[idx], train.labels[idx])
                                       for idx in partition.client_indices])
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
    honest_clients = sampled[~byz_mask]
    byz_clients = sampled[byz_mask]
    if honest_clients.size == 0:
        raise ValueError(f"round {t}: no honest client sampled")

    needs_own = cfg.attack.kind in ("none", "bit_flip", "label_flip")
    train_ids = sampled if needs_own else honest_clients
    train_seed = state.seed.child("train", t)
    updates = local_train(state.model, state.w, state.shards.take(train_ids), cfg.trainer,
                          [train_seed.child("client", c) for c in train_ids],
                          flip_labels=byz_mask if cfg.attack.kind == "label_flip" else None)

    honest_matrix = updates[~byz_mask] if needs_own else updates
    byz_true = updates[byz_mask] if (needs_own and byz_clients.size) else None
    ctx = AttackContext(honest_gradients=honest_matrix, byz_count=int(byz_clients.size),
                        byz_true_gradients=byz_true)
    crafted = craft(cfg.attack, ctx, state.seed.child("attack", t))

    uploads = np.empty((sampled.size, state.w.size))
    uploads[~byz_mask] = honest_matrix
    if byz_clients.size:
        uploads[byz_mask] = crafted
    check_server_ingress(uploads)

    agg, selected = _defend(cfg.defense, uploads, int(byz_clients.size), state.seed, t)
    new_w = state.w - agg

    ratio, byz_in = inclusion_metrics(selected, byz_mask)
    record = RoundRecord(
        round=t,
        test_accuracy=state.model.accuracy(new_w, state.test.features, state.test.labels),
        deviation=deviation_metric(agg, honest_matrix),
        honest_inclusion_ratio=ratio,
        byz_inclusion_count=byz_in,
        wall_time=time.perf_counter() - started,
    )
    return new_w, record


def _defend(defense: Defense, uploads: np.ndarray, f_round: int, seed: SeedSpec,
            t: int) -> tuple[np.ndarray, np.ndarray]:
    try:
        if isinstance(defense, PlainDefense):
            return aggregate_with_selection(defense.base, uploads, f_round, seed.child("agr", t))
        if isinstance(defense, GasDefense):
            gcfg = defense.gas_config(f_round, seed.child("gas"))
            agg, _, result, _ = gas_mod.gas_aggregate(gcfg, uploads, round=t)
            return agg, result.selected
        if isinstance(defense, BucketedDefense):
            agg = bucketing_wrap(defense.base, uploads, f_round, defense.s, seed.child("bucketing", t))
            return agg, np.arange(uploads.shape[0])
    except ValueError as exc:
        raise ValueError(f"defense failed in round {t}: {exc}") from exc
    raise ValueError(f"unknown defense {defense!r}")


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
    "ExperimentConfig", "RoundRecord", "ExperimentSummary", "RunState",
    "local_train", "deviation_metric", "inclusion_metrics",
    "init_run", "run_round", "run_single", "run_experiment",
]
