"""Robust aggregation rules for Byzantine-tolerant gradient averaging.

Implements plain mean, coordinate-wise median, coordinate-wise trimmed mean,
Multi-Krum, Bulyan, smoothed-Weiszfeld geometric median (RFA), and
divide-and-conquer spectral filtering (DnC), plus a bucketing wrapper and an
empirical resilience certifier. Every rule is a pure function of its inputs;
the seeded rules (DnC, bucketing) take an explicit SeedSpec.

All selection ties break toward the lower client index, and equal-value
order statistics break toward the lower value, so outputs are deterministic.
Multi-Krum and Bulyan read distances off a Gram matrix
(`core.pairwise_sq_dists`), whose entries round with the BLAS blocking:
identical uploads, such as colluding copies, can score an ulp apart, so
which copy is kept may differ from the lower index. The kept values are
the same either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import SeedSpec, as_gradient_matrix, mean, pairwise_sq_dists

KINDS = ("mean", "median", "trimmed_mean", "multi_krum", "bulyan", "geometric_median", "dnc")

_POWER_ITERATIONS = 50


@dataclass(frozen=True)
class AggregatorSpec:
    """Tagged choice of aggregation rule plus its hyperparameters.

    Only the fields matching `kind` are read: `iters`/`eps` drive the
    geometric median (3 Weiszfeld iterations by default), and `c`/`niters`/
    `b` drive DnC (filter factor 4, one filtering round, 10000 sampled
    coordinates by default).
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
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.b < 1:
            raise ValueError(f"b must be >= 1, got {self.b}")


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


def _check_shared(gradients, f: int) -> np.ndarray:
    x = as_gradient_matrix(gradients)
    n = x.shape[0]
    if f < 0 or 2 * f >= n:
        raise ValueError(f"Byzantine count must satisfy 0 <= f < n/2, got n={n}, f={f}")
    return x


def coordinate_median(gradients) -> np.ndarray:
    """Coordinate-wise median, bit-identical to `np.median(x, axis=0)`.

    Even n averages the two middle order statistics. One full `np.sort`
    along the clients axis costs about a fifth of `np.median`'s partition
    with a two-element kth list at 50 x 650. The middle pair is then
    averaged as np.median's mean does it: the sum starts from +0.0, so a
    -0.0 median comes out +0.0, which also makes the order of tied zeros
    irrelevant. A column holding a NaN sorts it last and takes that NaN,
    as np.median does.
    """
    ordered = np.sort(as_gradient_matrix(gradients), axis=0)
    half = ordered.shape[0] // 2
    if ordered.shape[0] % 2:
        med = ordered[half] + 0.0
    else:
        med = ordered[half - 1] + ordered[half]
        med += 0.0
        med /= 2
    last = ordered[-1]
    nan = np.isnan(last)
    if nan.any():
        med[nan] = last[nan]
    return med


def coordinate_trimmed_mean(gradients, f: int) -> np.ndarray:
    """Drop the f largest and f smallest values per coordinate, average the rest."""
    x = as_gradient_matrix(gradients)
    n = x.shape[0]
    if n <= 2 * f:
        raise ValueError(f"trimmed_mean requires n > 2f, got n={n}, f={f}")
    return np.sort(x, axis=0)[f : n - f].mean(axis=0)


def _krum_scores(sq: np.ndarray, f: int) -> np.ndarray:
    # score(i) = sum of squared distances to its (n - f - 2) nearest peers,
    # for one (n, n) distance matrix or each matrix of a (groups, n, n) stack
    n = sq.shape[-1]
    k = max(0, n - f - 2)
    ordered = sq + np.diag(np.full(n, np.inf))
    ordered.sort(axis=-1)
    return ordered[..., :k].sum(axis=-1)


def multi_krum_selections(stack: np.ndarray, f: int) -> np.ndarray:
    """Multi-Krum on each (n, k) matrix of a (groups, n, k) stack at once.

    Returns a (groups, n - f) array: row g holds the ascending indices of
    the n - f lowest Krum scores of matrix g, ties by lower index. A matrix
    gets the same selection alone or in any stack.
    """
    n = stack.shape[-2]
    if n < f + 3:
        raise ValueError(f"multi_krum requires n >= f+3, got n={n}, f={f}")
    scores = _krum_scores(pairwise_sq_dists(stack), f)
    chosen = np.argsort(scores, axis=-1, kind="stable")[..., : n - f]
    return np.sort(chosen, axis=-1)


def multi_krum_selection(gradients, f: int) -> np.ndarray:
    """Indices of the n-f lowest Krum-scoring clients, ties by lower index.

    At the smallest allowed n = f + 3 each score sums a single peer, so
    mutual nearest neighbours tie exactly and the result depends on
    client order.
    """
    return multi_krum_selections(as_gradient_matrix(gradients)[None], f)[0]


def multi_krum(gradients, f: int) -> np.ndarray:
    x = as_gradient_matrix(gradients)
    return x[multi_krum_selection(x, f)].mean(axis=0)


def bulyan_selection(gradients, f: int) -> np.ndarray:
    """First Bulyan stage: iterated Krum picks, n-2f of them, pool shrinking.

    Ties go to the lower index. A pick from a pool of m clients scores
    over m - f - 2 peers and the last pool holds 2f + 1, so for f in
    {1, 2} mutual nearest neighbours tie exactly and the selection
    depends on client order.
    """
    x = as_gradient_matrix(gradients)
    n = x.shape[0]
    if n < 4 * f + 2:
        raise ValueError(f"bulyan requires n >= 4f+2, got n={n}, f={f}")
    sq = pairwise_sq_dists(x)
    pool = list(range(n))
    chosen: list[int] = []
    for _ in range(n - 2 * f):
        sub = sq[np.ix_(pool, pool)]
        scores = _krum_scores(sub, f)
        best = pool[int(np.argmin(scores))]  # argmin is stable: first minimum wins
        chosen.append(best)
        pool.remove(best)
    return np.sort(np.asarray(chosen))


def bulyan(gradients, f: int) -> np.ndarray:
    """Iterated-Krum selection followed by a median-centered trimmed average.

    Per coordinate, the theta - 2f selected values closest to the selected
    set's coordinate median are averaged (theta = n - 2f); distance ties
    prefer the lower value.
    """
    x = as_gradient_matrix(gradients)
    return _bulyan_average(x[bulyan_selection(x, f)], f)


def _bulyan_average(sel: np.ndarray, f: int) -> np.ndarray:
    """Bulyan's second stage on the rows Krum selected."""
    theta = sel.shape[0]
    beta = theta - 2 * f
    med = coordinate_median(sel)
    gaps = np.abs(sel - med)
    # lexsort: primary key distance-to-median, secondary key the value itself
    order = np.lexsort((sel, gaps), axis=0)
    nearest = np.take_along_axis(sel, order[:beta], axis=0)
    return nearest.mean(axis=0)


def geometric_median(gradients, iters: int = 3, eps: float = 1e-8) -> np.ndarray:
    """Smoothed Weiszfeld iteration, started from the mean.

    Point weights are 1 / max(eps, ||z - g_i||); `iters` fixed-point updates
    are applied (no early stopping, for determinism).
    """
    x = as_gradient_matrix(gradients)
    if iters < 1:
        raise ValueError("geometric_median requires iters >= 1")
    if eps <= 0:
        raise ValueError("geometric_median requires eps > 0")
    z = x.mean(axis=0)
    for _ in range(iters):
        w = 1.0 / np.maximum(eps, np.linalg.norm(x - z, axis=1))
        z = (w[:, None] * x).sum(axis=0) / w.sum()
    return z


def dnc_survivors(gradients, f: int, c: float = 4.0, niters: int = 1, b: int = 10000,
                  seed: SeedSpec | None = None) -> np.ndarray:
    """Indices never marked as outliers by the spectral filtering rounds.

    Each round samples min(b, d) coordinates (keyed by the seed and round
    only, so client order is irrelevant), centers the sub-sampled gradients,
    and marks the floor(c*f) clients with the largest squared projection
    onto the top right singular direction.
    """
    x = as_gradient_matrix(gradients)
    n, d = x.shape
    n_remove = int(np.floor(c * f))
    if n <= n_remove:
        raise ValueError(f"dnc requires n > floor(c*f), got n={n}, floor(c*f)={n_remove}")
    if b < 1:
        raise ValueError("dnc requires b >= 1")
    seed = seed if seed is not None else SeedSpec(0)
    marked = np.zeros(n, dtype=bool)
    for it in range(niters):
        rng = seed.child("dnc_coords", it).generator()
        cols = np.sort(rng.choice(d, size=min(b, d), replace=False))
        sub = x[:, cols]
        centered = sub - sub.mean(axis=0)
        scores = _spectral_scores(centered, seed.child("dnc_power", it))
        # mark the n_remove largest scores, ties toward the lower index
        order = np.lexsort((np.arange(n), -scores))
        marked[order[:n_remove]] = True
    survivors = np.flatnonzero(~marked)
    if survivors.size == 0:
        raise ValueError("dnc removed everyone")
    return survivors


def _spectral_scores(centered: np.ndarray, seed: SeedSpec) -> np.ndarray:
    """Squared projections onto the top right singular direction of `centered`.

    Power iteration runs on the n x n Gram matrix; the start vector is the
    image under `centered` of a seeded coordinate-space draw, which keeps
    the iterates equivariant to client reordering.
    """
    n, k = centered.shape
    gram = centered @ centered.T
    v0 = seed.generator().standard_normal(k)
    u = centered @ v0
    norm = np.linalg.norm(u)
    if norm == 0.0:  # all rows identical: no spectral direction, all scores zero
        return np.zeros(n)
    u = u / norm
    for _ in range(_POWER_ITERATIONS):
        u_next = gram @ u
        norm = np.linalg.norm(u_next)
        if norm == 0.0:
            return np.zeros(n)
        u = u_next / norm
    v = centered.T @ u
    vnorm = np.linalg.norm(v)
    if vnorm == 0.0:
        return np.zeros(n)
    proj = centered @ (v / vnorm)
    return proj * proj


def dnc(gradients, f: int, c: float = 4.0, niters: int = 1, b: int = 10000,
        seed: SeedSpec | None = None) -> np.ndarray:
    x = as_gradient_matrix(gradients)
    return x[dnc_survivors(x, f, c, niters, b, seed)].mean(axis=0)


def aggregate_with_selection(spec: AggregatorSpec, gradients, f: int,
                             seed: SeedSpec | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Dispatch to `spec.kind`; also report which clients the rule kept.

    Rules without an explicit selection step (mean, median, trimmed_mean,
    geometric_median) report every client as selected.
    """
    x = _check_shared(gradients, f)
    n = x.shape[0]
    everyone = np.arange(n)
    if spec.kind == "mean":
        return x.mean(axis=0), everyone
    if spec.kind == "median":
        return coordinate_median(x), everyone
    if spec.kind == "trimmed_mean":
        return coordinate_trimmed_mean(x, f), everyone
    if spec.kind == "multi_krum":
        sel = multi_krum_selection(x, f)
        return x[sel].mean(axis=0), sel
    if spec.kind == "bulyan":
        sel = bulyan_selection(x, f)
        return _bulyan_average(x[sel], f), sel
    if spec.kind == "geometric_median":
        return geometric_median(x, spec.iters, spec.eps), everyone
    if spec.kind == "dnc":
        sel = dnc_survivors(x, f, spec.c, spec.niters, spec.b, seed)
        return x[sel].mean(axis=0), sel
    raise ValueError(f"unknown aggregator kind {spec.kind!r}")


def aggregate(spec: AggregatorSpec, gradients, f: int, seed: SeedSpec | None = None) -> np.ndarray:
    """Apply the rule named by `spec` to n gradients with Byzantine count f."""
    return aggregate_with_selection(spec, gradients, f, seed)[0]


def bucketing_wrap(spec: AggregatorSpec, gradients, f: int, s: int,
                   seed: SeedSpec | None = None) -> np.ndarray:
    """Permute clients, average ceil(n/s) consecutive buckets, aggregate the means.

    Worst case every Byzantine client lands in its own bucket, so the inner
    rule keeps Byzantine count f and the bucket count must exceed 2f.
    """
    x = _check_shared(gradients, f)
    n = x.shape[0]
    if s < 1:
        raise ValueError(f"bucket size must be >= 1, got s={s}")
    n_buckets = -(-n // s)
    if n_buckets <= 2 * f:
        raise ValueError(f"too few buckets: ceil(n/s)={n_buckets} must exceed 2f={2 * f}")
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
    skipped and counted.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
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
        ratios.append(float(np.linalg.norm(out - center)) / max_dist)
    lam = max(ratios) if ratios else float("nan")
    return ResilienceReport(kind=spec.kind, n=n, f=f, trials=trials, skipped=skipped,
                            lambda_hat=lam, ratios=tuple(ratios))


__all__ = [
    "AggregatorSpec", "ResilienceReport", "KINDS",
    "aggregate", "aggregate_with_selection", "bucketing_wrap",
    "coordinate_median", "coordinate_trimmed_mean", "multi_krum", "multi_krum_selection",
    "multi_krum_selections",
    "bulyan", "bulyan_selection", "geometric_median", "dnc", "dnc_survivors",
    "estimate_resilience", "mean",
]
