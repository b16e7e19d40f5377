"""Gradient vectors, random index partitions, and derived random streams.

Gradients are plain 1-D float64 numpy arrays throughout the package; the
helpers here validate shapes and finiteness at the boundaries where it
matters. Randomness is never global: every consumer receives a SeedSpec and
derives labeled child streams from it.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SeedSpec:
    """A master seed plus a derivation path of (label, index) pairs.

    Equal (master_seed, path) pairs produce identical streams; distinct
    paths produce statistically independent streams. Children are derived
    with :meth:`child`, so parallel workers can share a master seed without
    sharing mutable RNG state.
    """

    master_seed: int
    path: tuple[tuple[str, int], ...] = ()

    def child(self, label: str, index: int = 0) -> "SeedSpec":
        return SeedSpec(self.master_seed, self.path + ((label, int(index)),))

    def _entropy(self) -> list[int]:
        words = [self.master_seed & _MASK64]
        for label, index in self.path:
            words.append(zlib.crc32(label.encode("utf-8")))
            words.append(index & _MASK64)
        return words

    def generator(self) -> np.random.Generator:
        """Fresh PCG64 generator for this exact derivation path.

        `SeedSequence` coerces a list of Python ints one int at a time,
        which is half the cost of each stream, so the entropy is handed over
        as one packed uint32 array instead. Each word is split the way
        numpy splits an int: 0 is one word, and anything else gives its
        32-bit words, least significant first, up to its highest nonzero
        one. The pool, and so every stream, is the same as from the list.
        """
        packed = []
        for word in self._entropy():
            packed.append(word & _MASK32)
            if word > _MASK32:
                packed.append(word >> 32)
        entropy = np.array(packed, dtype=np.uint32)
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


@dataclass(frozen=True)
class IndexPartition:
    """Disjoint cover of {0..d-1} by p index groups, stored flat.

    `order` is a permutation of 0..d-1 listed group by group, each group
    ascending; group q is `order[offsets[q]:offsets[q + 1]]`. The p + 1
    `offsets` start at 0 and end at d, and every group holds floor(d/p) or
    ceil(d/p) indices. Both arrays are stored as read-only copies.
    """

    order: np.ndarray
    offsets: np.ndarray
    d: int
    p: int

    def __post_init__(self):
        if not 1 <= self.p <= self.d:
            raise ValueError(f"group count must lie in [1, d={self.d}], got p={self.p}")
        order = np.array(self.order, dtype=np.int64)
        offsets = np.array(self.offsets, dtype=np.int64)
        if order.shape != (self.d,):
            raise ValueError(f"order has shape {order.shape}, expected ({self.d},)")
        if order.min() < 0 or order.max() >= self.d:
            raise ValueError(f"order has an index outside [0, {self.d})")
        if not (np.bincount(order, minlength=self.d) == 1).all():
            raise ValueError("order is not a permutation of {0..d-1}")
        if offsets.shape != (self.p + 1,) or offsets[0] != 0 or offsets[-1] != self.d:
            raise ValueError(f"offsets must be p+1={self.p + 1} boundaries from 0 to d={self.d}")
        lo, hi = self.d // self.p, -(-self.d // self.p)
        sizes = np.diff(offsets)
        if sizes.min() < lo or sizes.max() > hi:
            raise ValueError(f"group sizes {sizes.min()}..{sizes.max()} outside [{lo}, {hi}]")
        rising = np.diff(order) > 0
        rising[offsets[1:-1] - 1] = True  # a group may start below its predecessor's end
        if not rising.all():
            raise ValueError("indices within a group are not ascending")
        order.flags.writeable = False
        offsets.flags.writeable = False
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "offsets", offsets)

    @property
    def subsets(self) -> tuple[np.ndarray, ...]:
        """The p groups, as read-only views into `order`."""
        bounds = self.offsets.tolist()
        return tuple(self.order[a:b] for a, b in zip(bounds[:-1], bounds[1:]))


def as_gradient(values) -> np.ndarray:
    """Coerce to a 1-D float64 array. Shape errors raise ValueError."""
    g = np.asarray(values, dtype=np.float64)
    if g.ndim != 1:
        raise ValueError(f"gradient must be 1-D, got shape {g.shape}")
    return g


def as_gradient_matrix(gradients) -> np.ndarray:
    """Stack a nonempty sequence of equal-length gradients into an (n, d) matrix."""
    if isinstance(gradients, np.ndarray) and gradients.ndim == 2:
        return np.asarray(gradients, dtype=np.float64)
    rows = [as_gradient(g) for g in gradients]
    if not rows:
        raise ValueError("empty gradient list")
    d = rows[0].shape[0]
    for i, r in enumerate(rows):
        if r.shape[0] != d:
            raise ValueError(f"dimension mismatch: gradient 0 has d={d}, gradient {i} has d={r.shape[0]}")
    return np.stack(rows)


def pairwise_sq_dists(points: np.ndarray) -> np.ndarray:
    """Squared l2 distances between the rows of an (n, k) matrix or a (..., n, k) stack.

    Gram form, O(n^2 + n k) memory per matrix: the rows are centered on
    their mean, which leaves every distance unchanged but cancels a large
    common offset before any product, and |a|^2 + |b|^2 - 2 a.b is read off
    one `c @ c.T`. Rounding can leave a true zero slightly negative, so the
    result is clamped at 0 and its diagonal is exactly 0. The rows are
    centered in a C-ordered copy, so a matrix gets the same result alone or
    in a stack, whatever the input's layout.
    """
    c = np.array(points, dtype=np.float64, order="C")
    c -= c.mean(axis=-2, keepdims=True)
    gram = c @ np.swapaxes(c, -1, -2)
    sq = np.diagonal(gram, axis1=-2, axis2=-1)
    dists = sq[..., :, None] + sq[..., None, :]
    dists -= 2.0 * gram
    np.maximum(dists, 0.0, out=dists)
    diag = np.arange(dists.shape[-1])
    dists[..., diag, diag] = 0.0
    return dists


def check_server_ingress(matrix: np.ndarray) -> None:
    """Reject client uploads containing NaN (or infinite) entries.

    Clean uploads cost one `isfinite` pass. On failure NaN is reported
    before inf, naming the first client that holds one.
    """
    if np.isfinite(matrix).all():
        return
    if np.isnan(matrix).any():
        bad = int(np.argwhere(np.isnan(matrix).any(axis=1))[0, 0])
        raise ValueError(f"gradient from client {bad} contains NaN entries")
    if np.isinf(matrix).any():
        bad = int(np.argwhere(np.isinf(matrix).any(axis=1))[0, 0])
        raise ValueError(f"gradient from client {bad} contains infinite entries")


def make_partition(d: int, p: int, seed: SeedSpec) -> IndexPartition:
    """Uniformly random partition of {0..d-1} into p sorted index groups.

    The indices are shuffled with the seeded stream and cut into p
    contiguous blocks; the first (d mod p) blocks get ceil(d/p) indices and
    the rest floor(d/p). Each block is then sorted in place in one pass, by
    sorting the indices offset by block * d. p > d is clamped to p = d.
    """
    if d <= 0:
        raise ValueError("empty dimension")
    if p <= 0:
        raise ValueError(f"group count must be positive, got p={p}")
    p = min(p, d)
    order = np.arange(d)
    seed.generator().shuffle(order)
    sizes = np.full(p, d // p)
    sizes[: d % p] += 1
    shift = np.repeat(np.arange(p) * d, sizes)
    order = np.sort(order + shift) - shift
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    return IndexPartition(order=order, offsets=offsets, d=d, p=p)


def mean(gradients: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """Coordinate-wise arithmetic mean of a nonempty list of gradients."""
    return as_gradient_matrix(gradients).mean(axis=0)
