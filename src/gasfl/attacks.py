"""Omniscient model-poisoning attacks, all entered through `craft`.

`craft(spec, ctx, seed)` returns the f Byzantine uploads of one round. The
OWN_GRADIENT_KINDS act on the Byzantine clients' own training: none sends
it, bit_flip negates it, and label_flip flips labels inside local training,
so its vectors pass through unchanged here. The other kinds see the full
matrix of honest gradients and collude, so all f uploads are identical:
lie is mean + z * std, ipm is -epsilon * mean, and min_max and min_sum push
along -std as far as an honest distance bound allows.

min_max and min_sum are one search for the step gamma (`_push_along_std`)
and differ only in the bound and in how they reduce the distances to the
honest rows (max or sum). They take the std, the honest pairwise distances
(one Gram matrix, `core.centered_sq_dists`) and an O(n)-per-probe step
search from one centered copy of the honest rows, so besides their input
they hold one (n, d) array and O(n^2) more, never (n, n, d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import SeedSpec, as_gradient_matrix, centered_sq_dists

OWN_GRADIENT_KINDS = ("none", "bit_flip", "label_flip")
KINDS = OWN_GRADIENT_KINDS + ("lie", "min_max", "min_sum", "ipm")

_GAMMA_CAP = 1e12


@dataclass(frozen=True)
class AttackSpec:
    """Tagged choice of attack plus its hyperparameters, and their only defaults.

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
        if not self.gamma_init > 0:
            raise ValueError(f"gamma_init must be positive, got {self.gamma_init}")
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        for name in ("z", "gamma_init", "tau", "epsilon"):
            if not math.isfinite(getattr(self, name)):  # an infinite gamma_init never halves
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class AttackContext:
    """What the attacker knows in one round.

    honest_gradients is the (n_honest, d) matrix of true honest uploads;
    byz_true_gradients holds the Byzantine clients' own honestly computed
    gradients (needed by the OWN_GRADIENT_KINDS), or None.
    """

    honest_gradients: np.ndarray
    byz_count: int
    byz_true_gradients: np.ndarray | None = None


def craft(spec: AttackSpec, ctx: AttackContext, seed: SeedSpec | None = None) -> np.ndarray:
    """The f Byzantine uploads for this round, as an (f, d) matrix.

    Colluding attacks return f copies of one vector. `seed` is part of the
    contract for future randomized attacks; none of the current kinds use it.
    """
    f = ctx.byz_count
    if f < 0:
        raise ValueError(f"Byzantine count must be >= 0, got {f}")
    if f and spec.kind in OWN_GRADIENT_KINDS:
        own = ctx.byz_true_gradients
        if own is None:
            raise ValueError(f"{spec.kind} needs the Byzantine clients' own gradients")
        own = as_gradient_matrix(own)
        if own.shape[0] != f:
            raise ValueError(f"expected {f} Byzantine gradients, got {own.shape[0]}")
        return -own if spec.kind == "bit_flip" else own.copy()

    x = as_gradient_matrix(ctx.honest_gradients)
    if f == 0:
        return np.zeros((0, x.shape[1]))
    if x.shape[0] == 0:  # one honest row has std 0: lie, min_max and min_sum return it
        raise ValueError(f"{spec.kind} needs at least 1 honest gradient, got 0")
    if spec.kind == "lie":  # hide just outside the crowd, in population-std units
        vec = x.mean(axis=0) + spec.z * x.std(axis=0)
    elif spec.kind == "ipm":  # the negatively scaled honest mean flips the update's direction
        vec = -spec.epsilon * x.mean(axis=0)
    else:
        vec = _push_along_std(x, spec)
    return np.tile(vec, (f, 1))


def _push_along_std(x: np.ndarray, spec: AttackSpec) -> np.ndarray:
    """min_max or min_sum: mu - gamma * std for the largest feasible gamma.

    min_max keeps the largest distance to an honest row within the largest
    honest pairwise distance; min_sum keeps the sum of squared distances
    within the worst honest row's sum of squared distances to its peers.
    """
    mu, delta, pair_sq, sq_dists = _spread(x)
    if not delta.any():
        return mu
    if spec.kind == "min_max":
        bound, reduce = float(pair_sq.max()), np.max
    else:
        bound, reduce = float(pair_sq.sum(axis=1).max()), np.sum
    gamma = _largest_feasible_gamma(lambda g: float(reduce(sq_dists(g))) <= bound,
                                    spec.gamma_init, spec.tau)
    return mu - gamma * delta


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


__all__ = ["AttackSpec", "AttackContext", "KINDS", "OWN_GRADIENT_KINDS", "craft"]
