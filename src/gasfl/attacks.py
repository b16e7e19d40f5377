"""Omniscient model-poisoning attacks.

Each attack sees the full matrix of honest gradients for the round and emits
the f Byzantine uploads. The statistics-based attacks (lie, min_max, min_sum,
ipm) collude: all f uploads are identical. bit_flip and label_flip act on the
Byzantine clients' own training instead; label flipping happens inside local
training, so its crafted vectors pass through unchanged here.

min_max and min_sum make one centered copy of the honest rows and take the
std, the honest pairwise distances (one Gram matrix, `core.centered_sq_dists`)
and their O(n)-per-probe step search from it, so besides their input they
hold one (n, d) array and O(n^2) more, never (n, n, d).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import SeedSpec, as_gradient_matrix, centered_sq_dists

KINDS = ("none", "bit_flip", "label_flip", "lie", "min_max", "min_sum", "ipm")

_GAMMA_CAP = 1e12


@dataclass(frozen=True)
class AttackSpec:
    """Tagged choice of attack plus its hyperparameters.

    `z` scales the lie offset, `gamma_init`/`tau` drive the min_max/min_sum
    step search, and `epsilon` scales the inner-product manipulation.
    """

    kind: str
    z: float = 1.5
    gamma_init: float = 10.0
    tau: float = 1e-5
    epsilon: float = 0.5

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind {self.kind!r} is an unknown attack kind, expected one of {KINDS}")
        if self.gamma_init <= 0:
            raise ValueError(f"gamma_init must be positive, got {self.gamma_init}")
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")


@dataclass(frozen=True)
class AttackContext:
    """What the attacker knows in one round.

    honest_gradients is the (n_honest, d) matrix of true honest uploads;
    byz_true_gradients holds the Byzantine clients' own honestly computed
    gradients (needed by none / bit_flip / label_flip), or None.
    """

    honest_gradients: np.ndarray
    byz_count: int
    byz_true_gradients: np.ndarray | None = None


def lie(honest, z: float) -> np.ndarray:
    """Hide just outside the crowd: mean + z * population std, per coordinate."""
    x = _require_honest(honest, 2, "lie")
    return x.mean(axis=0) + z * x.std(axis=0)


def _largest_feasible_gamma(feasible: Callable[[float], bool], gamma_init: float, tau: float) -> float:
    """Largest gamma accepted by `feasible`: doubling bracket, then bisection to width tau."""
    lo, hi = 0.0, gamma_init
    while feasible(hi):
        lo, hi = hi, 2.0 * hi
        if hi > _GAMMA_CAP:
            return lo
    while hi - lo > tau:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def min_max(honest, gamma_init: float = 10.0, tau: float = 1e-5) -> np.ndarray:
    """Push along -std as far as the largest honest pairwise distance allows."""
    x = _require_honest(honest, 2, "min_max")
    mu, delta, pair_sq, sq_dists = _spread(x)
    if not delta.any():
        return mu
    bound = float(pair_sq.max())

    def feasible(gamma: float) -> bool:
        return float(sq_dists(gamma).max()) <= bound

    return mu - _largest_feasible_gamma(feasible, gamma_init, tau) * delta


def min_sum(honest, gamma_init: float = 10.0, tau: float = 1e-5) -> np.ndarray:
    """Like min_max, but bounded by the worst honest sum of squared distances."""
    x = _require_honest(honest, 2, "min_sum")
    mu, delta, pair_sq, sq_dists = _spread(x)
    if not delta.any():
        return mu
    bound = float(pair_sq.sum(axis=1).max())

    def feasible(gamma: float) -> bool:
        return float(sq_dists(gamma).sum()) <= bound

    return mu - _largest_feasible_gamma(feasible, gamma_init, tau) * delta


def _spread(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                     Callable[[float], np.ndarray]]:
    """(mu, delta, pair_sq, sq_dists) of the honest rows, from one centered copy.

    mu and delta are `x.mean(axis=0)` and `x.std(axis=0)` bit for bit, and
    pair_sq, read off c = x - mu, is `pairwise_sq_dists(x)` bit for bit for
    a C-ordered x. c is the only (n, d) array made, and it is dropped on
    return. numpy adds the squared
    deviations of a C-ordered matrix to +0.0 one row at a time, so delta
    squares and adds c row by row; a single column or a column-major c,
    which numpy sums pairwise, is squared whole.

    sq_dists maps gamma to the squared distances from each row to
    mu - gamma * delta: |c_i + gamma delta|^2 = a_i + gamma (2 b_i + gamma
    |delta|^2), where a_i = |c_i|^2 and b_i = c_i . delta are computed once,
    so each step of the gamma search costs O(n), not O(n d).
    """
    mu = x.mean(axis=0)
    c = x - mu
    if c.shape[1] > 1 and c.flags.c_contiguous:
        var = np.zeros(c.shape[1])
        for row in c:
            var += np.square(row)
    else:
        var = np.add.reduce(np.square(c), axis=0)
    var /= x.shape[0]
    delta = np.sqrt(var, out=var)
    pair_sq = centered_sq_dists(c)
    a = np.einsum("ij,ij->i", c, c)
    b = c @ delta
    dd = float(delta @ delta)
    return mu, delta, pair_sq, lambda gamma: a + gamma * (2.0 * b + gamma * dd)


def ipm(honest, epsilon: float = 0.5) -> np.ndarray:
    """Send the negatively scaled honest mean to flip the update's direction."""
    x = _require_honest(honest, 1, "ipm")
    return -epsilon * x.mean(axis=0)


def craft(spec: AttackSpec, ctx: AttackContext, seed: SeedSpec | None = None) -> np.ndarray:
    """The f Byzantine uploads for this round, as an (f, d) matrix.

    Colluding attacks return f copies of one vector. `seed` is part of the
    contract for future randomized attacks; none of the current kinds use it.
    """
    f = ctx.byz_count
    if f < 0:
        raise ValueError(f"Byzantine count must be >= 0, got {f}")
    if f == 0:
        d = as_gradient_matrix(ctx.honest_gradients).shape[1]
        return np.zeros((0, d))
    if spec.kind in ("none", "label_flip", "bit_flip"):
        own = ctx.byz_true_gradients
        if own is None:
            raise ValueError(f"{spec.kind} needs the Byzantine clients' own gradients")
        own = as_gradient_matrix(own)
        if own.shape[0] != f:
            raise ValueError(f"expected {f} Byzantine gradients, got {own.shape[0]}")
        return -own if spec.kind == "bit_flip" else own.copy()

    if spec.kind == "lie":
        vec = lie(ctx.honest_gradients, spec.z)
    elif spec.kind == "min_max":
        vec = min_max(ctx.honest_gradients, spec.gamma_init, spec.tau)
    elif spec.kind == "min_sum":
        vec = min_sum(ctx.honest_gradients, spec.gamma_init, spec.tau)
    elif spec.kind == "ipm":
        vec = ipm(ctx.honest_gradients, spec.epsilon)
    else:
        raise ValueError(f"unknown attack kind {spec.kind!r}")
    return np.tile(vec, (f, 1))


def _require_honest(honest, minimum: int, name: str) -> np.ndarray:
    x = as_gradient_matrix(honest)
    if x.shape[0] < minimum:
        raise ValueError(f"{name} needs at least {minimum} honest gradients, got {x.shape[0]}")
    return x


__all__ = ["AttackSpec", "AttackContext", "KINDS", "craft", "lie", "min_max", "min_sum", "ipm"]
