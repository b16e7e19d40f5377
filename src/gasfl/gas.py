"""Split-gradient meta-aggregation.

The defense splits each client gradient into p groups of coordinates, applies
a base robust rule per group, scores every client by its distance to each
group's aggregate, sums the scores across groups, keeps the lowest-scoring
clients, and returns their plain average. Low-dimensional group scoring keeps
colluding outliers visible, while averaging the kept clients preserves all
the honest signal.

The gradients are transposed once into a C-ordered (d, n) copy. Group sizes
differ by at most one, so the groups are walked in blocks of equal-size
groups, each block at most `_BLOCK_BYTES` and gathered once into a
(size, groups, n) buffer; memory beyond the copy stays fixed whatever d is.
Whatever the base rule, it runs once per block, through `aggregate`, on the
buffer's (groups, n, size) view, and gives each group bit for bit the
aggregate it gives that group alone. The group scores of a block are then
taken in place on its buffer. `group_scores` is the one-group form, kept as
the straight-line reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .aggregators import AggregatorSpec, _check_f, aggregate
from .core import IndexPartition, SeedSpec, as_gradient_matrix, make_partition

# Bytes of client rows gathered per block of groups: the scoring holds about
# two blocks beside the (d, n) transposed copy, whatever d is.
_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class KnownF:
    """Keep n - f clients; the server knows the Byzantine count."""

    f: int

    def __post_init__(self):
        if self.f < 0:
            raise ValueError(f"Byzantine count must be >= 0, got f={self.f}")


@dataclass(frozen=True)
class Ratio:
    """Drop ceil(delta * n) clients per call; f is unknown to the server."""

    delta: float

    def __post_init__(self):
        if not 0.0 <= self.delta < 0.5:
            raise ValueError(f"delta must lie in [0, 0.5), got {self.delta}")


Selection = Union[KnownF, Ratio]


PARTITION_POLICIES = ("per_round", "fixed")


@dataclass(frozen=True)
class GasConfig:
    p: int
    base: AggregatorSpec
    selection: Selection
    seed: SeedSpec
    partition_policy: str = "per_round"  # one of PARTITION_POLICIES

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if self.partition_policy not in PARTITION_POLICIES:
            raise ValueError(f"partition_policy must be one of {PARTITION_POLICIES}, "
                             f"got {self.partition_policy!r}")


@dataclass(frozen=True)
class ScoreTable:
    """Per-group identification scores (n x p) and their row totals."""

    group_scores: np.ndarray
    totals: np.ndarray


@dataclass(frozen=True)
class SelectionResult:
    selected: np.ndarray
    keep_count: int


def group_scores(sub_vectors, base: AggregatorSpec, f: int,
                 seed: SeedSpec | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate one group's sub-vectors and score each client against it.

    Returns (aggregate, scores) where scores[i] is the l2 distance from
    client i's sub-vector to the group aggregate.
    """
    sub = as_gradient_matrix(sub_vectors)
    agg = aggregate(base, sub, f, seed=seed)
    return agg, np.linalg.norm(sub - agg, axis=1)


def select_clients(totals: np.ndarray, keep_count: int) -> SelectionResult:
    """Indices of the keep_count lowest totals, ties toward the lower index."""
    totals = np.asarray(totals, dtype=np.float64)
    n = totals.shape[0]
    if not 1 <= keep_count <= n:
        raise ValueError(f"keep_count must lie in [1, {n}], got {keep_count}")
    kept = np.sort(np.argsort(totals, kind="stable")[:keep_count])
    return SelectionResult(selected=kept, keep_count=keep_count)


def _resolve_counts(selection: Selection, n: int) -> tuple[int, int]:
    """(keep_count, byzantine count handed to the base rule) for n clients."""
    f = selection.f if isinstance(selection, KnownF) else int(np.ceil(selection.delta * n))
    return n - f, f


def _group_blocks(partition: IndexPartition, n: int):
    """The groups in blocks of at most `_BLOCK_BYTES` of (n,) rows, in group order.

    Yields (first, cols): `cols` is a (groups, size) index array whose rows
    are groups first .. first + groups - 1. Group sizes differ by at most
    one, the groups of the larger size come first, and no block mixes sizes.
    """
    lo = partition.d // partition.p
    split = (partition.d - lo * partition.p) * (lo + 1)
    first = 0
    for cols, size in ((partition.order[:split], lo + 1), (partition.order[split:], lo)):
        groups = cols.reshape(-1, size)
        step = max(1, _BLOCK_BYTES // (size * n * 8))
        for start in range(0, groups.shape[0], step):
            yield first + start, groups[start:start + step]
        first += groups.shape[0]


def gas_aggregate(config: GasConfig, gradients, round: int = 0,
                  ) -> tuple[np.ndarray, ScoreTable, SelectionResult, IndexPartition]:
    """Full split/score/select/average pipeline for one communication round.

    The coordinate partition is resampled per round (or held fixed, per
    `config.partition_policy`) from seeds derived off `config.seed`, so the
    call is a pure function of (config, gradients, round). The gradients are
    transposed once into a C-ordered (d, n) copy, and the groups are walked
    in blocks of equal-size groups, each gathered once into a
    (size, groups, n) buffer. The base rule runs once per block on the
    buffer's (groups, n, size) view; group q's seed, which only DnC draws
    from, is the round seed's child ("group", q). Each block's scores are
    then taken in place and reduced over its leading axis, so every group
    norm adds its coordinates one at a time in ascending order, as the row
    norms of the column-major `x[:, subset]` in `group_scores` do; a norm
    past the float range is inf. Totals are summed in ascending group order.
    """
    x = as_gradient_matrix(gradients)
    n, d = x.shape
    if n < 2:
        raise ValueError(f"need at least 2 clients, got n={n}")
    keep_count, base_f = _resolve_counts(config.selection, n)
    _check_f(config.base, n, base_f)  # every bound in the table keeps keep_count >= 1

    if config.partition_policy == "per_round":
        part_seed = config.seed.child("partition", round)
    else:
        part_seed = config.seed.child("fixed_partition")
    partition = make_partition(d, min(config.p, d), part_seed)

    xt = np.ascontiguousarray(x.T)
    round_seed = config.seed.child("round", round)
    scores = np.empty((partition.p, n))
    for first, cols in _group_blocks(partition, n):
        block = np.take(xt, cols.T, axis=0)  # (size, groups, n)
        groups = range(first, first + cols.shape[0])
        center = aggregate(config.base, block.transpose(1, 2, 0), base_f,
                           seed=(round_seed.child("group", q) for q in groups))
        block -= center.T[:, :, None]
        with np.errstate(over="ignore"):
            block *= block
            np.sqrt(np.add.reduce(block, axis=0), out=scores[first:first + len(groups)])
    table = ScoreTable(group_scores=scores.T, totals=scores.sum(axis=0))
    result = select_clients(table.totals, keep_count)
    return _mean_of_rows(x, result.selected), table, result, partition


def _mean_of_rows(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """`x[rows].mean(axis=0)` without its (len(rows), d) copy.

    numpy averages the C-ordered copy by adding its rows one at a time to
    +0.0, so adding them in place gives the same bits. A single column,
    which numpy sums pairwise, is averaged directly.
    """
    if x.shape[1] == 1:
        return x[rows].mean(axis=0)
    total = np.zeros(x.shape[1])
    for r in rows:
        total += x[r]
    total /= len(rows)
    return total


__all__ = [
    "PARTITION_POLICIES", "GasConfig", "KnownF", "Ratio", "ScoreTable", "SelectionResult",
    "group_scores", "select_clients", "gas_aggregate",
]
