"""Split-gradient meta-aggregation.

The defense splits each client gradient into p groups of coordinates, applies
a base robust rule per group, scores every client by its distance to each
group's aggregate, sums the scores across groups, keeps the lowest-scoring
clients, and returns their plain average. Low-dimensional group scoring keeps
colluding outliers visible, while averaging the kept clients preserves all
the honest signal.

The groups are walked in blocks of equal-size groups cut from
`IndexPartition.groups`, each laid out as one C-ordered (size, groups, n) buffer.
A block holds at most `core.BLOCK_BYTES` of gathered rows and, when the
base rule builds an (n, n) matrix per group, at most that of those matrices
too. A block is gathered in the upload's own layout: along the rows of a
C-ordered matrix, and from the rows of `x.T` otherwise, which for a
column-major matrix is a view. Neither copies those uploads, so the working
memory beyond them is one bounded block whatever d, p and the base are; a
strided upload alone is copied once, into a C-ordered `x.T`.
Whatever the base rule, it runs once per block, through `aggregate`, on the
buffer's (groups, n, size) view, and gives each group bit for bit the
aggregate it gives that group alone, so block boundaries never change a
group's bits. The group scores of a block are then taken in place on its
buffer. `group_scores` is the one-group form, kept as the straight-line
reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregators import _PAIRWISE_KINDS, AggregatorSpec, _check_f, aggregate
from .core import (IndexPartition, SeedSpec, as_gradient_matrix, block_rows, make_partition,
                   scale_exponents)


@dataclass(frozen=True)
class KnownF:
    """Keep n - f clients; the server knows the Byzantine count."""

    f: int

    def __post_init__(self):
        if self.f < 0:
            raise ValueError(f"Byzantine count must be >= 0, got f={self.f}")


PARTITION_POLICIES = ("per_round", "fixed")


@dataclass(frozen=True)
class GasConfig:
    p: int
    base: AggregatorSpec
    selection: KnownF
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


def _group_blocks(partition: IndexPartition, n: int, base: AggregatorSpec):
    """The groups in blocks of at most `core.BLOCK_BYTES` each, in group order.

    A block's gathered (n,) rows stay within the budget, and so do the
    (n, n) matrices, one per group, of a base in `_PAIRWISE_KINDS`. Yields
    (first, cols): `cols` is a (groups, size) index array whose rows are
    groups first .. first + groups - 1, cut from one of `partition.groups`,
    so no block mixes sizes.
    """
    first = 0
    for groups in partition.groups:
        size = groups.shape[1]
        width = max(size, n) if base.kind in _PAIRWISE_KINDS else size
        step = block_rows(width * n * 8)
        for start in range(0, groups.shape[0], step):
            yield first + start, groups[start:start + step]
        first += groups.shape[0]


def gas_aggregate(config: GasConfig, gradients, round: int = 0,
                  ) -> tuple[np.ndarray, ScoreTable, SelectionResult, IndexPartition]:
    """Full split/score/select/average pipeline for one communication round.

    The coordinate partition is resampled per round (or held fixed, per
    `config.partition_policy`) from seeds derived off `config.seed`, so the
    call is a pure function of (config, gradients, round). The groups are
    walked in blocks of equal-size groups (`_group_blocks`), each gathered
    once into a C-ordered (size, groups, n) buffer: along the upload rows
    when they are C-ordered, else from the rows of a C-ordered (d, n)
    `x.T`, which for a column-major input is a view. The base rule runs
    once per block on the buffer's (groups, n, size) view; group q's seed,
    which only DnC draws from, is the round seed's child ("group", q).
    Each block's scores are then taken in place and reduced over its
    leading axis, so every group norm adds its coordinates one at a time in
    ascending order, as the row norms of the column-major `x[:, subset]` in
    `group_scores` do. Totals are summed in ascending group order.
    Uploads `scale_exponents` flags are scored scaled down; only the report,
    scaled back, may saturate at inf.
    """
    x = as_gradient_matrix(gradients)
    n, d = x.shape
    if n < 2:
        raise ValueError(f"need at least 2 clients, got n={n}")
    f = config.selection.f
    _check_f(config.base, n, f)  # every bound in the table keeps n - f >= 1
    shift = scale_exponents(x)[0, 0]
    if shift:
        agg, table, result, partition = gas_aggregate(config, np.ldexp(x, -shift), round)
        with np.errstate(over="ignore"):
            table = ScoreTable(*(np.ldexp(a, shift) for a in (table.group_scores, table.totals)))
        return np.ldexp(agg, shift), table, result, partition

    if config.partition_policy == "per_round":
        part_seed = config.seed.child("partition", round)
    else:
        part_seed = config.seed.child("fixed_partition")
    partition = make_partition(d, config.p, part_seed)

    along_rows = x.flags.c_contiguous
    xt = None if along_rows else np.ascontiguousarray(x.T)
    round_seed = config.seed.child("round", round)
    scores = np.empty((partition.p, n))
    for first, cols in _group_blocks(partition, n, config.base):
        if along_rows:  # read along each upload row, then lay out as (size, groups, n)
            block = np.take(x, cols, axis=1).T.copy()
        else:
            block = np.take(xt, cols.T, axis=0)
        groups = range(first, first + cols.shape[0])
        center = aggregate(config.base, block.transpose(1, 2, 0), f,
                           seed=(round_seed.child("group", q) for q in groups))
        block -= center.T[:, :, None]
        block *= block
        norms = np.add.reduce(block, axis=0, out=scores[first:first + len(groups)])
        np.sqrt(norms, out=norms)
    table = ScoreTable(group_scores=scores.T, totals=scores.sum(axis=0))
    result = select_clients(table.totals, n - f)
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
    "PARTITION_POLICIES", "GasConfig", "KnownF", "ScoreTable", "SelectionResult",
    "group_scores", "select_clients", "gas_aggregate",
]
