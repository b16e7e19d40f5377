"""Straight-line reference implementations used to cross-check the fast paths.

Everything here is written with plain loops and sorting, deliberately not
sharing code with the production rules, so the two routes can disagree when
one of them is wrong. The oracle CLI command and the test suite both consume
these.
"""

from __future__ import annotations

import math

import numpy as np


def median_reference(points: np.ndarray) -> np.ndarray:
    n, d = points.shape
    out = np.zeros(d)
    for j in range(d):
        col = sorted(points[i][j] for i in range(n))
        mid = n // 2
        out[j] = col[mid] if n % 2 else (col[mid - 1] + col[mid]) / 2.0
    return out


def trimmed_mean_reference(points: np.ndarray, f: int) -> np.ndarray:
    n, d = points.shape
    out = np.zeros(d)
    for j in range(d):
        col = sorted(points[i][j] for i in range(n))
        kept = col[f : n - f]
        out[j] = sum(kept) / len(kept)
    return out


def krum_scores_reference(points: np.ndarray, f: int) -> np.ndarray:
    n = points.shape[0]
    scores = np.zeros(n)
    for i in range(n):
        dists = []
        for j in range(n):
            if j == i:
                continue
            dists.append(sum((points[i][k] - points[j][k]) ** 2 for k in range(points.shape[1])))
        dists.sort()
        scores[i] = sum(dists[: n - f - 2])
    return scores


def multi_krum_reference(points: np.ndarray, f: int) -> np.ndarray:
    n = points.shape[0]
    scores = krum_scores_reference(points, f)
    order = sorted(range(n), key=lambda i: (scores[i], i))
    chosen = sorted(order[: n - f])
    return points[chosen].mean(axis=0)


def bulyan_selection_reference(points: np.ndarray, f: int) -> list[int]:
    """First stage: repeated Krum picks on a shrinking pool."""
    n = points.shape[0]
    pool = list(range(n))
    chosen: list[int] = []
    for _ in range(n - 2 * f):
        best, best_score = None, None
        for i in pool:
            dists = []
            for j in pool:
                if j == i:
                    continue
                dists.append(sum((points[i][k] - points[j][k]) ** 2 for k in range(points.shape[1])))
            dists.sort()
            k_near = max(0, len(pool) - f - 2)
            score = sum(dists[:k_near])
            if best_score is None or score < best_score:
                best, best_score = i, score
        chosen.append(best)
        pool.remove(best)
    return sorted(chosen)


def bulyan_reference(points: np.ndarray, f: int) -> np.ndarray:
    sel = points[bulyan_selection_reference(points, f)]
    theta, d = sel.shape
    beta = theta - 2 * f
    out = np.zeros(d)
    for j in range(d):
        col = sorted(sel[i][j] for i in range(theta))
        mid = theta // 2
        med = col[mid] if theta % 2 else (col[mid - 1] + col[mid]) / 2.0
        # beta values nearest the median; distance ties prefer the lower value
        ranked = sorted(col, key=lambda v: (abs(v - med), v))
        out[j] = sum(ranked[:beta]) / beta
    return out


def geometric_median_objective(z: np.ndarray, points: np.ndarray) -> float:
    return float(sum(math.sqrt(float(((z - p) ** 2).sum())) for p in points))


def top_direction_reference(centered: np.ndarray) -> np.ndarray:
    """Top right singular direction via a dense symmetric eigensolver."""
    cov = centered.T @ centered
    vals, vecs = np.linalg.eigh(cov)
    return vecs[:, -1]


def local_train_reference(model, w: np.ndarray, features: np.ndarray, labels: np.ndarray,
                          cfg, seed, flip_labels: bool = False) -> np.ndarray:
    """One client's local SGD, batch by batch with `Model.grad`.

    Momentum, weight decay and per-batch gradient clipping as configured by
    the TrainerConfig `cfg`; the permutation of each epoch comes from
    `seed.generator()`. Returns the update w_start - w_end.
    """
    if features.shape[0] == 0:
        raise ValueError("empty client shard")
    if flip_labels:
        labels = (model.n_classes - 1) - labels
    rng = seed.generator()
    current = w.copy()
    velocity = np.zeros_like(w)
    for _ in range(cfg.local_epochs):
        order = rng.permutation(features.shape[0])
        for start in range(0, order.size, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            g = model.grad(current, features[batch], labels[batch])
            if cfg.clip_norm is not None:
                norm = np.linalg.norm(g)
                if norm > cfg.clip_norm:
                    g = g * (cfg.clip_norm / norm)
            step = g + cfg.weight_decay * current
            velocity = cfg.momentum * velocity + step
            current = current - cfg.learning_rate * velocity
    return w - current


def synthetic_reference(n_classes: int, dim: int, per_class: int, r_sep: float, noise: float,
                        seed, test_per_class: int | None = None):
    """Train and test (features, labels) pairs, each split as `centers[labels] + noise * draw`.

    The seeded draws are those of `data.generate_synthetic`, in its order;
    every array is built whole.
    """
    rng = seed.child("centers").generator()
    centers = rng.standard_normal((n_classes, dim))
    centers = centers * (r_sep / np.maximum(np.linalg.norm(centers, axis=1, keepdims=True), 1e-300))
    splits = []
    for split, count in (("train", per_class),
                         ("test", per_class if test_per_class is None else test_per_class)):
        labels = np.repeat(np.arange(n_classes), count)
        draw = seed.child(split).generator().standard_normal((labels.size, dim))
        splits.append((centers[labels] + noise * draw, labels))
    return splits[0], splits[1]


def dirichlet_shards_reference(labels: np.ndarray, n_clients: int, beta: float, seed) -> list[np.ndarray]:
    """Each client's sample indices, ascending, as `data.dirichlet_partition` draws them.

    Per class: shuffle the class's indices, draw Dir(beta) proportions, round
    them to counts by largest remainders (leftovers to the largest
    fractional parts, lower client first), and deal the shuffled indices out
    in client order. Each client's parts are then joined and sorted.
    """
    parts: list[list[int]] = [[] for _ in range(n_clients)]
    for y in sorted(set(labels.tolist())):
        class_idx = np.flatnonzero(labels == y)
        rng = seed.child("class", int(y)).generator()
        rng.shuffle(class_idx)
        props = rng.dirichlet(np.full(n_clients, beta))
        raw = [float(v) * class_idx.size for v in props]
        counts = [math.floor(r) for r in raw]
        by_fraction = sorted(range(n_clients), key=lambda i: (-(raw[i] - counts[i]), i))
        for i in by_fraction[: class_idx.size - sum(counts)]:
            counts[i] += 1
        start = 0
        for i in range(n_clients):
            parts[i].extend(class_idx[start : start + counts[i]].tolist())
            start += counts[i]
    return [np.array(sorted(p), dtype=np.int64) for p in parts]


def bucketed_means_reference(points: np.ndarray, s: int, permutation: np.ndarray) -> np.ndarray:
    """Permute, chunk into ceil(n/s) consecutive buckets, average each."""
    n = points.shape[0]
    n_buckets = math.ceil(n / s)
    base, extra = divmod(n, n_buckets)
    means, start = [], 0
    for b in range(n_buckets):
        size = base + (1 if b < extra else 0)
        idx = permutation[start : start + size]
        means.append(points[idx].mean(axis=0))
        start += size
    return np.stack(means)


__all__ = [
    "median_reference", "trimmed_mean_reference", "krum_scores_reference",
    "multi_krum_reference", "bulyan_selection_reference", "bulyan_reference",
    "geometric_median_objective", "top_direction_reference", "bucketed_means_reference",
    "local_train_reference", "synthetic_reference", "dirichlet_shards_reference",
]
