"""Robust aggregation rules for Byzantine-tolerant gradient averaging.

Implements plain mean, coordinate-wise median, coordinate-wise trimmed mean,
Multi-Krum, Bulyan, smoothed-Weiszfeld geometric median (RFA), and
divide-and-conquer spectral filtering (DnC), plus a bucketing wrapper and an
empirical resilience certifier. Every rule is a pure function of its inputs;
the seeded rules (DnC, bucketing) take an explicit SeedSpec.

Every rule has one way in: `aggregate`, or `aggregate_with_selection`,
which also reports the clients the rule kept. Both take an (n, k) matrix or
a (groups, n, k) stack of them, check 0 <= f <= `max_f(spec, n)` once,
before any work, and dispatch on the rule's kind in one place, `_apply`.
Each rule's kernel is a private function over the clients axis -2 of a
stack, and gives every matrix of a stack bit for bit what it gives that
matrix alone. `bucketing_wrap` checks its inner rule's bound at ceil(n/s)
buckets; GAS, the config and the oracle read the same `max_f` table.
`_apply` and `bucketing_wrap` hold the overflow guard (`core.scale_exponents`).

All selection ties break toward the lower client index, and equal-value
order statistics break toward the lower value, so outputs are deterministic.
Multi-Krum and Bulyan read distances off a Gram matrix
(`core.pairwise_sq_dists`), whose entries round with the BLAS blocking:
identical uploads, such as colluding copies, can score an ulp apart, so
which copy is kept may differ from the lower index. The kept values are
the same either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (SeedSpec, _with_width, as_gradient_matrix, l2_norm, pairwise_sq_dists,
                   scale_exponents)

KINDS = ("mean", "median", "trimmed_mean", "multi_krum", "bulyan", "geometric_median", "dnc")

_POWER_ITERATIONS = 50


@dataclass(frozen=True)
class AggregatorSpec:
    """Tagged choice of aggregation rule plus its hyperparameters.

    Only the fields matching `kind` are read: `iters`/`eps` drive the
    geometric median (3 Weiszfeld iterations by default; `eps` is the least
    distance a weight reads, in units of the power of two of the median
    row's peak |entry|), and `c`/`niters`/`b` drive DnC (filter factor 4, one
    filtering round, 10000 sampled coordinates by default).
    """

    kind: str
    iters: int = 3
    eps: float = 1e-8
    c: float = 4.0
    niters: int = 1
    b: int = 10000

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind {self.kind!r} is an unknown aggregator kind, expected one of {KINDS}")
        if self.iters < 1:
            raise ValueError(f"iters must be >= 1, got {self.iters}")
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.b < 1:
            raise ValueError(f"b must be >= 1, got {self.b}")
        if not 0 < self.c < math.inf:
            raise ValueError(f"c must be positive and finite, got {self.c}")
        if self.niters < 1:
            raise ValueError(f"niters must be >= 1, got {self.niters}")


@dataclass(frozen=True)
class ResilienceReport:
    """Result of the empirical resilience probe for one rule and (n, f)."""

    kind: str
    n: int
    f: int
    trials: int
    skipped: int
    lambda_hat: float
    ratios: tuple[float, ...] = field(repr=False)


def _as_points(gradients) -> np.ndarray:
    """An (n, k) matrix, or a (groups, n, k) stack of them left in its own layout; k >= 1."""
    if isinstance(gradients, np.ndarray) and gradients.ndim == 3:
        return _with_width(np.asarray(gradients, dtype=np.float64))
    return as_gradient_matrix(gradients)


# each rule's bound on f beyond f >= 0, as its error states it; `max_f` is its arithmetic
_BOUND_TEXT = {
    "trimmed_mean": "n > 2f",
    "multi_krum": "f < n/2 and n >= f+3",
    "bulyan": "n >= 4f+2",
    "dnc": "f < n/2 and n > floor(c*f)*niters",
}


def max_f(spec: AggregatorSpec, n: int) -> int:
    """The largest Byzantine count the rule accepts with n clients, or -1 if none.

    Every rule needs f < n/2. Multi-Krum also needs n >= f + 3 and Bulyan
    n >= 4f + 2. DnC removes floor(c*f) clients in each of its niters
    rounds, so n > niters * floor(c*f) always leaves a survivor. Bucketing
    is its inner rule's bound at ceil(n/s) buckets.
    """
    bound = (n - 1) // 2
    if spec.kind == "multi_krum":
        bound = min(n - 3, bound)
    elif spec.kind == "bulyan":
        bound = (n - 2) // 4
    elif spec.kind == "dnc":  # the count DnC removes, as it takes it
        while bound > 0 and spec.niters * math.floor(spec.c * bound) >= n:
            bound -= 1
    return max(bound, -1)


def _check_f(spec: AggregatorSpec, n: int, f: int) -> None:
    """Raise unless 0 <= f <= max_f(spec, n)."""
    if 0 <= f <= max_f(spec, n):
        return
    params = f", c={spec.c}, niters={spec.niters}" if spec.kind == "dnc" else ""
    raise ValueError(f"{spec.kind} requires f >= 0 and {_BOUND_TEXT.get(spec.kind, 'f < n/2')}, "
                     f"got n={n}, f={f}{params}")


def _median(stack: np.ndarray) -> np.ndarray:
    """Coordinate-wise median of each matrix, bit-identical to `np.median(stack, axis=-2)`.

    Even n averages the two middle order statistics.
    One full `np.sort` along the clients axis costs about a fifth of
    `np.median`'s partition with a two-element kth list at 50 x 650. The
    middle pair is then averaged as np.median's mean does it: the sum starts
    from +0.0, so a -0.0 median comes out +0.0, which also makes the order
    of tied zeros irrelevant. A column holding a NaN sorts it last and takes
    that NaN, as np.median does.
    """
    ordered = np.sort(stack, axis=-2)
    n = ordered.shape[-2]
    half = n // 2
    if n % 2:
        med = ordered[..., half, :] + 0.0
    else:
        med = ordered[..., half - 1, :] + ordered[..., half, :]
        med += 0.0
        med /= 2
    last = ordered[..., -1, :]
    nan = np.isnan(last)
    if nan.any():
        med[nan] = last[nan]
    return med


def _trimmed_mean(stack: np.ndarray, f: int) -> np.ndarray:
    """Drop the f largest and f smallest values per coordinate, average the rest."""
    n = stack.shape[-2]
    return np.sort(stack, axis=-2)[..., f : n - f, :].mean(axis=-2)


# the rules whose kernels build an (n, n) matrix for every matrix of a
# stack: the Krum and Bulyan distances (`pairwise_sq_dists`) and DnC's Gram
_PAIRWISE_KINDS = ("multi_krum", "bulyan", "dnc")


def _krum_scores(sq: np.ndarray, f: int) -> np.ndarray:
    # score(i) = sum of squared distances to its (n - f - 2) nearest peers,
    # for one (n, n) distance matrix or each matrix of a (groups, n, n)
    # stack; sq is overwritten with each row's sorted distances to its peers
    n = sq.shape[-1]
    diag = np.arange(n)
    sq[..., diag, diag] = np.inf
    sq.sort(axis=-1)
    return sq[..., : max(0, n - f - 2)].sum(axis=-1)


def _krum_selection(stack: np.ndarray, f: int) -> np.ndarray:
    """Per matrix, the ascending indices of the n-f lowest Krum scores, ties by lower index.

    At the smallest allowed n = f + 3 each score sums a single peer, so
    mutual nearest neighbours tie exactly and the result depends on
    client order.
    """
    n = stack.shape[-2]
    scores = _krum_scores(pairwise_sq_dists(stack), f)
    chosen = np.argsort(scores, axis=-1, kind="stable")[..., : n - f]
    return np.sort(chosen, axis=-1)


def _bulyan_selection(stack: np.ndarray, f: int) -> np.ndarray:
    """First Bulyan stage: iterated Krum picks, n-2f of them, pool shrinking.

    Returns each matrix's n - 2f picks in ascending order, one row each.
    Each distance row is sorted once. A pick then leaves the pool: its row
    goes, and so does its entry in every other row, which keeps each row
    sorted over the clients still in the pool. Every Krum score is so the
    same sum of the same values as when the pool's distances are sorted
    afresh, and a pick can never be picked again. Ties go to the lower
    index. A pick from a pool of m clients scores over m - f - 2 peers and
    the last pool holds 2f + 1, so for f in {1, 2} mutual nearest
    neighbours tie exactly and the selection depends on client order.
    """
    groups, n = stack.shape[:2]
    sq = pairwise_sq_dists(stack)
    diag = np.arange(n)
    sq[:, diag, diag] = np.inf
    order = np.argsort(sq, axis=-1)  # the client behind each sorted distance
    dist = np.take_along_axis(sq, order, axis=-1)
    # the pool stays ascending, so argmin's first minimum is the lowest index
    pool = np.broadcast_to(diag, (groups, n))
    chosen = np.empty((groups, n - 2 * f), dtype=np.intp)
    for step in range(n - 2 * f):
        m = n - step
        scores = dist[..., : max(0, m - f - 2)].sum(axis=-1)
        best = np.argmin(scores, axis=-1)
        chosen[:, step] = pick = pool[np.arange(groups), best]
        rows = np.arange(m) != best[:, None]
        stay = rows[:, :, None] & (order != pick[:, None, None])
        pool = pool[rows].reshape(groups, m - 1)
        dist = dist[stay].reshape(groups, m - 1, m - 1)
        order = order[stay].reshape(groups, m - 1, m - 1)
    chosen.sort(axis=-1)
    return chosen


def _bulyan_average(sel: np.ndarray, f: int) -> np.ndarray:
    """Bulyan's second stage on the rows Krum selected, per matrix.

    Per coordinate, the theta - 2f selected values closest to the selected
    set's coordinate median are averaged (theta = n - 2f); distance ties
    prefer the lower value.
    """
    beta = sel.shape[-2] - 2 * f
    gaps = np.abs(sel - _median(sel)[..., None, :])
    # lexsort: primary key distance-to-median, secondary key the value itself
    order = np.lexsort((sel, gaps), axis=-2)
    nearest = np.take_along_axis(sel, order[..., :beta, :], axis=-2)
    return nearest.mean(axis=-2)


def _median_row_exponents(stack: np.ndarray) -> np.ndarray:
    """Per matrix, the power of two of the median over its rows of each row's
    peak |entry|, a scale that a minority of rows cannot move. It is held at
    most 900 binades below the matrix's peak, so that no distance between
    points of the matrix overflows in its units.
    """
    peaks = np.abs(stack).max(axis=-1)
    floor = np.frexp(peaks.max(axis=-1))[1] - 900
    return np.maximum(np.frexp(np.median(peaks, axis=-1, overwrite_input=True))[1], floor)


def _geometric_median(stack: np.ndarray, iters: int, eps: float) -> np.ndarray:
    """Smoothed Weiszfeld iteration, started from the mean.

    Point weights are 1 / max(eps, ||z - g_i|| / 2^e), with 2^e the matrix's
    `_median_row_exponents` scale; `iters` fixed-point updates are applied
    (no early stopping, for determinism).
    """
    e = _median_row_exponents(stack)[..., None]
    z = stack.mean(axis=-2)
    for _ in range(iters):
        w = 1.0 / np.maximum(eps, np.ldexp(np.linalg.norm(stack - z[..., None, :], axis=-1), -e))
        z = (w[..., None] * stack).sum(axis=-2) / w.sum(axis=-1, keepdims=True)
    return z


def _dnc_survivors(stack: np.ndarray, f: int, c: float, niters: int, b: int, seed):
    """Per matrix, the indices never marked as outliers by the spectral filtering rounds.

    Each round samples min(b, d) coordinates (keyed by the seed and round
    only, so client order is irrelevant), centers the sub-sampled gradients,
    and marks the floor(c*f) clients with the largest squared projection
    onto the top right singular direction. `seed` is as `aggregate` takes
    it. Returns a (groups, m) array, or a list of one array per matrix when
    the filtering rounds keep unequal counts. f within `max_f` leaves m >= 1.
    """
    k = stack.shape[-1]
    n_remove = math.floor(c * f)
    if seed is None or isinstance(seed, SeedSpec):
        seeds = [seed or SeedSpec(0)] * len(stack)
    else:
        seeds = list(seed)
    rows = stack.swapaxes(-1, -2)
    kept = np.ones(stack.shape[:2], dtype=bool)
    for it in range(niters):
        if b >= k:  # the sorted sample of every coordinate is 0..k-1: no draw
            sub = rows.copy()
        else:
            cols = np.stack([np.sort(s.child("dnc_coords", it).generator().choice(k, size=b, replace=False))
                             for s in seeds])
            sub = np.take_along_axis(rows, cols[:, :, None], axis=-2)
        sub = sub.swapaxes(-1, -2)  # each matrix column-major, as x[:, cols] is
        centered = sub - sub.mean(axis=-2, keepdims=True)
        scores = _spectral_scores(centered, [s.child("dnc_power", it) for s in seeds])
        # mark the n_remove largest scores, ties toward the lower index
        order = np.argsort(-scores, axis=-1, kind="stable")
        np.put_along_axis(kept, order[:, :n_remove], False, axis=-1)
    counts = kept.sum(axis=-1)
    if (counts == counts[0]).all():
        return np.nonzero(kept)[1].reshape(len(stack), -1)
    return [np.flatnonzero(row) for row in kept]


def _spectral_scores(centered: np.ndarray, seeds) -> np.ndarray:
    """Squared projections onto the top right singular direction of each matrix.

    Takes a (groups, n, k) stack and one SeedSpec per matrix. Power
    iteration runs on the n x n Gram matrix; the start vector is the image
    under `centered` of a seeded coordinate-space draw, which keeps the
    iterates equivariant to client reordering. A matrix whose iterate
    vanishes has no spectral direction, and all its scores are zero.

    With one coordinate (k = 1) the direction is ±1 and each score is the
    squared centered value: it is returned directly, with no draw, no
    iteration, and no iterate to under- or overflow.
    """
    if centered.shape[-1] == 1:
        return centered[..., 0] * centered[..., 0]
    gram = centered @ centered.swapaxes(-1, -2)
    v0 = np.stack([s.generator().standard_normal(centered.shape[-1]) for s in seeds])
    flat = np.zeros(len(seeds), dtype=bool)
    u = _unit(centered @ v0[..., None], flat)
    for _ in range(_POWER_ITERATIONS):
        u = _unit(gram @ u, flat)
    v = _unit(centered.swapaxes(-1, -2) @ u, flat)
    proj = (centered @ v)[..., 0]
    scores = proj * proj
    scores[flat] = 0.0
    return scores


def _unit(u: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """Each (m, 1) vector of a stack over its l2 norm; marks zero vectors in `flat`.

    `u^T u` is the same dot product `np.linalg.norm` takes of one vector.
    A zero vector is divided by 1 and stays zero.
    """
    norm = np.sqrt(np.swapaxes(u, -1, -2) @ u)
    if not norm.all():
        zero = norm[:, 0, 0] == 0.0
        flat |= zero
        norm[zero] = 1.0
    return u / norm


def _kept_mean(stack: np.ndarray, chosen) -> np.ndarray:
    """Per matrix, the mean of its chosen rows, gathered C-ordered as `x[sel]` is."""
    if isinstance(chosen, list):  # one index array per matrix, of unequal lengths
        return np.stack([matrix[rows].mean(axis=0) for matrix, rows in zip(stack, chosen)])
    return stack[np.arange(len(stack))[:, None], chosen].mean(axis=1)


def _apply(spec: AggregatorSpec, stack: np.ndarray, f: int, seed) -> tuple[np.ndarray, object]:
    """The rule `spec` on each matrix of a (groups, n, k) stack, f already checked.

    Returns the (groups, k) aggregates and the ascending indices of the
    clients each matrix kept: a (groups, m) array, a list of arrays when DnC
    filtering over several rounds keeps unequal counts, or None for a rule
    without a selection step. A flagged matrix is aggregated scaled down;
    scaling back cannot overflow, as every output lies in its inputs' box.
    """
    shift = scale_exponents(stack)
    if shift.any():
        centers, chosen = _apply(spec, np.ldexp(stack, -shift), f, seed)
        return np.ldexp(centers, shift[..., 0]), chosen
    if spec.kind == "mean":
        return stack.mean(axis=-2), None
    if spec.kind == "median":
        return _median(stack), None
    if spec.kind == "trimmed_mean":
        return _trimmed_mean(stack, f), None
    if spec.kind == "geometric_median":
        return _geometric_median(stack, spec.iters, spec.eps), None
    if spec.kind == "bulyan":
        chosen = _bulyan_selection(stack, f)
        return _bulyan_average(stack[np.arange(len(stack))[:, None], chosen], f), chosen
    if spec.kind == "multi_krum":
        chosen = _krum_selection(stack, f)
    elif spec.kind == "dnc":
        chosen = _dnc_survivors(stack, f, spec.c, spec.niters, spec.b, seed)
    else:
        raise ValueError(f"unknown aggregator kind {spec.kind!r}")
    return _kept_mean(stack, chosen), chosen


def aggregate_with_selection(spec: AggregatorSpec, gradients, f: int,
                             seed: SeedSpec | None = None) -> tuple[np.ndarray, object]:
    """`aggregate`, and the ascending indices of the clients the rule kept.

    An (n, k) matrix gives one index array. A stack gives a (groups, m)
    array whose row g is what matrix g gives alone, or a list of one array
    per matrix when DnC filtering over several rounds keeps unequal counts.
    Rules without a selection step (mean, median, trimmed_mean,
    geometric_median) report every client as kept.
    """
    x = _as_points(gradients)
    n = x.shape[-2]
    _check_f(spec, n, f)
    if x.ndim == 2:
        centers, chosen = _apply(spec, x[None], f, seed)
        return centers[0], np.arange(n) if chosen is None else chosen[0]
    centers, chosen = _apply(spec, x, f, seed)
    return centers, np.tile(np.arange(n), (len(x), 1)) if chosen is None else chosen


def aggregate(spec: AggregatorSpec, gradients, f: int, seed=None) -> np.ndarray:
    """Apply the rule named by `spec` to n gradients with Byzantine count f.

    An (n, k) matrix gives a (k,) aggregate. A (groups, n, k) stack gives a
    (groups, k) array whose row g is bit for bit what matrix g gives alone.
    `seed` is one SeedSpec for every matrix or an iterable of one per
    matrix; only DnC draws from it, and only then is it iterated.
    """
    x = _as_points(gradients)
    _check_f(spec, x.shape[-2], f)
    centers = _apply(spec, x if x.ndim == 3 else x[None], f, seed)[0]
    return centers if x.ndim == 3 else centers[0]


def bucketing_wrap(spec: AggregatorSpec, gradients, f: int, s: int,
                   seed: SeedSpec | None = None) -> np.ndarray:
    """Permute clients, average ceil(n/s) consecutive buckets, aggregate the means.

    Worst case every Byzantine client lands in its own bucket, so the inner
    rule keeps Byzantine count f over ceil(n/s) buckets, within its `max_f`.
    """
    x = as_gradient_matrix(gradients)
    n = x.shape[0]
    if s < 1:
        raise ValueError(f"bucket size must be >= 1, got s={s}")
    n_buckets = -(-n // s)
    if not 0 <= f <= max_f(spec, n_buckets):
        raise ValueError(f"too few buckets: {spec.kind} over ceil(n/s)={n_buckets} buckets "
                         f"tolerates f <= {max_f(spec, n_buckets)}, got n={n}, s={s}, f={f}")
    shift = scale_exponents(x)[0, 0]
    if shift:  # the bucket means would overflow first
        return np.ldexp(bucketing_wrap(spec, np.ldexp(x, -shift), f, s, seed), shift)
    seed = seed if seed is not None else SeedSpec(0)
    perm = seed.child("bucketing").generator().permutation(n)
    means = np.stack([x[chunk].mean(axis=0) for chunk in np.array_split(perm, n_buckets)])
    return aggregate(spec, means, f, seed=seed.child("bucketing_inner"))


def estimate_resilience(spec: AggregatorSpec, n: int, f: int, dim: int, trials: int,
                        seed: SeedSpec, adversary_scale: float = 1e3) -> ResilienceReport:
    """Empirically probe the worst observed resilience ratio of a rule.

    Each trial draws n-f honest points from a unit Gaussian and plants f
    colluding points at honest_mean + adversary_scale * (random unit
    direction), then measures ||A(x) - honest_mean|| divided by the largest
    honest pairwise distance. Degenerate trials (zero denominator) are
    skipped and counted. Every argument is checked before anything is drawn,
    and at least 2 honest points are required: one has no pairwise distance.
    """
    try:
        _check_f(spec, n, f)
    except ValueError as exc:
        raise ValueError(f"f must be within the rule's bound: {exc}") from None
    if n - f < 2:
        raise ValueError(f"n must be >= f + 2, for at least 2 honest points, got n={n}, f={f}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if not math.isfinite(adversary_scale):
        raise ValueError(f"adversary_scale must be finite, got {adversary_scale}")
    ratios: list[float] = []
    skipped = 0
    for t in range(trials):
        rng = seed.child("trial", t).generator()
        honest = rng.standard_normal((n - f, dim))
        center = honest.mean(axis=0)
        direction = rng.standard_normal(dim)
        direction /= max(np.linalg.norm(direction), 1e-300)
        adv = np.tile(center + adversary_scale * direction, (f, 1))
        points = np.vstack([honest, adv]) if f else honest
        max_dist = float(np.sqrt(pairwise_sq_dists(honest).max()))
        if max_dist == 0.0:
            skipped += 1
            continue
        out = aggregate(spec, points, f, seed=seed.child("trial_agg", t))
        ratios.append(l2_norm(out - center) / max_dist)
    lam = max(ratios) if ratios else float("nan")
    return ResilienceReport(kind=spec.kind, n=n, f=f, trials=trials, skipped=skipped,
                            lambda_hat=lam, ratios=tuple(ratios))


__all__ = [
    "AggregatorSpec", "ResilienceReport", "KINDS",
    "aggregate", "aggregate_with_selection", "bucketing_wrap", "estimate_resilience", "max_f",
]
