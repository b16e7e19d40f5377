"""Gradient vectors, random index partitions, and derived random streams.

Gradients are plain 1-D float64 numpy arrays throughout the package; the
helpers here validate shapes and finiteness at the boundaries where it
matters. Randomness is never global: every consumer receives a SeedSpec and
derives labeled child streams from it.

The overflow policy lives here once: every defense's entry scales a matrix
by the power of two `scale_exponents` gives it, so the distance kernels
below only ever see entries under `SCALE_LIMIT`, and the metric norms take
`l2_norm`. So does the working-memory policy: `block_rows` sizes every
blockwise loop's blocks to `BLOCK_BYTES`, and importing this module fixes
glibc's malloc thresholds, so the pages a round frees are reused by the
next round instead of faulted in again.
"""

from __future__ import annotations

import ctypes
import zlib
from dataclasses import dataclass

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
    """Disjoint cover of {0..d-1}, d = `order.size`, by p index groups.

    `order` is a permutation of 0..d-1 listed group by group, each group
    ascending, and stored as a read-only copy. The layout is fixed: with
    d = p * size + r, the first r groups hold size + 1 indices and the other
    p - r hold size. `groups` reshapes `order` along it into at most two
    read-only (count, size) views, larger groups first, whose rows are the
    groups in order; every reader of the layout goes through them.
    """

    order: np.ndarray
    p: int

    def __post_init__(self):
        order = np.array(self.order, dtype=np.int64)
        if order.ndim != 1:
            raise ValueError(f"order must be 1-D, got shape {order.shape}")
        d = order.size
        if not 1 <= self.p <= d:
            raise ValueError(f"group count must lie in [1, d={d}], got p={self.p}")
        if order.min() < 0 or order.max() >= d:
            raise ValueError(f"order has an index outside [0, {d})")
        if not (np.bincount(order, minlength=d) == 1).all():
            raise ValueError("order is not a permutation of {0..d-1}")
        if not all((np.diff(g, axis=1) > 0).all() for g in _group_views(order, self.p)):
            raise ValueError("indices within a group are not ascending")
        order.flags.writeable = False
        object.__setattr__(self, "order", order)

    @property
    def groups(self) -> tuple[np.ndarray, ...]:
        """The groups as rows of (count, size) views into `order`, larger groups first."""
        return _group_views(self.order, self.p)

    @property
    def subsets(self) -> tuple[np.ndarray, ...]:
        """The p groups, as read-only views into `order`."""
        return tuple(row for g in self.groups for row in g)


def _group_views(order: np.ndarray, p: int) -> tuple[np.ndarray, ...]:
    """`order` reshaped into the `IndexPartition` layout of p groups, empty views left out."""
    size, larger = divmod(order.size, p)
    split = larger * (size + 1)
    views = (order[:split].reshape(larger, size + 1), order[split:].reshape(p - larger, size))
    return tuple(g for g in views if g.size)


def as_gradient(values) -> np.ndarray:
    """Coerce to a 1-D float64 array. Shape errors raise ValueError."""
    g = np.asarray(values, dtype=np.float64)
    if g.ndim != 1:
        raise ValueError(f"gradient must be 1-D, got shape {g.shape}")
    return g


def as_gradient_matrix(gradients) -> np.ndarray:
    """Stack a nonempty sequence of equal-length gradients into an (n, d) matrix, d >= 1."""
    if isinstance(gradients, np.ndarray) and gradients.ndim == 2:
        return _with_width(np.asarray(gradients, dtype=np.float64))
    rows = [as_gradient(g) for g in gradients]
    if not rows:
        raise ValueError("empty gradient list")
    d = rows[0].shape[0]
    for i, r in enumerate(rows):
        if r.shape[0] != d:
            raise ValueError(f"dimension mismatch: gradient 0 has d={d}, gradient {i} has d={r.shape[0]}")
    return _with_width(np.stack(rows))


def _with_width(x: np.ndarray) -> np.ndarray:
    """`x`, an (n, d) matrix or a (groups, n, d) stack, checked to have d >= 1 coordinates."""
    if x.shape[-1] == 0:
        raise ValueError(f"gradients need at least one coordinate, got shape {x.shape}")
    return x


# Bytes of scratch per block in every blockwise loop: a GAS block's gathered
# rows and pairwise distances, an ingress check's bool mask, a chunk of row
# norms. 256 KiB fits a block in a core's L2 cache.
BLOCK_BYTES = 1 << 18


def block_rows(row_bytes: int) -> int:
    """Rows of `row_bytes` bytes each that fit one `BLOCK_BYTES` block, at least 1."""
    return max(1, BLOCK_BYTES // row_bytes)


# glibc serves blocks of at least MMAP_THRESHOLD bytes from fresh mappings,
# unmapped on free, and hands the heap top back to the OS once more than
# TRIM_THRESHOLD of it is free. Its dynamic rule raises both only after a
# large block is freed, so they trail a round's ~11 MB of arrays at d = 1e4
# and every round faults its pages in again. 32 MiB is the ceiling of that
# rule on 64-bit and 64 MiB its own 2x ratio. Both are needed: fixing the
# trim threshold alone freezes the mmap threshold at 128 KiB, and fixing the
# mmap threshold alone leaves the top trimmed at 128 KiB.
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters, from glibc's malloc.h


def _set_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds; do nothing under any other C library.

    Only a C library exporting both `mallopt` and `gnu_get_libc_version` is
    glibc (musl's `mallopt` is a stub). Never raises.
    """
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):  # no dlopen(NULL), as on Windows
        return
    if hasattr(libc, "mallopt") and hasattr(libc, "gnu_get_libc_version"):
        mallopt = libc.mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)


_set_malloc_thresholds()


# The peak |entry| a defense's kernels take. DnC's power iteration squares
# Gram entries, and (2^200)^4 times any realistic n * d stays finite.
SCALE_LIMIT = 2.0 ** 200


def scale_exponents(x: np.ndarray) -> np.ndarray:
    """Per matrix of an (n, k) matrix or (..., n, k) stack, the power of two to divide it by.

    Ints of shape (..., 1, 1), for `np.ldexp`. A finite matrix whose peak
    |entry| reaches `SCALE_LIMIT` gets the k that lands its peak just below
    it, turning the fewest small entries subnormal; every other matrix,
    including one holding NaN or inf, gets 0. The rules are positively
    homogeneous, so a rule on `ldexp(x, -k)` scaled back by 2^k is the rule
    on x. Per-matrix peaks are taken only if the whole-array max or min trips.
    """
    if -SCALE_LIMIT < x.min() and x.max() < SCALE_LIMIT:
        return np.zeros(x.shape[:-2] + (1, 1), dtype=int)
    peak = np.maximum(x.max(axis=(-2, -1), keepdims=True), -x.min(axis=(-2, -1), keepdims=True))
    return np.where(np.isfinite(peak) & (peak >= SCALE_LIMIT), np.frexp(peak / SCALE_LIMIT)[1], 0)



def l2_norm(v: np.ndarray) -> float:
    """`np.linalg.norm` of a vector, without its overflow on finite entries.

    The plain norm squares the entries, so a finite vector whose norm passes
    about 1.3e154 reads inf. Only then is the norm taken of the vector divided
    by the power of two of its peak |entry| and scaled back; every other
    vector, including one holding NaN or inf, keeps the plain norm's bits.
    """
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(v)
        if np.isinf(norm) and np.isfinite(v).all():
            k = np.frexp(np.abs(v).max())[1]
            norm = np.ldexp(np.linalg.norm(np.ldexp(v, -k)), k)
    return float(norm)

def pairwise_sq_dists(points: np.ndarray) -> np.ndarray:
    """Squared l2 distances between the rows of an (n, k) matrix or a (..., n, k) stack.

    Gram form, O(n^2 + n k) memory per matrix: the rows are centered on
    their mean, which leaves every distance unchanged but cancels a large
    common offset before any product, and |a|^2 + |b|^2 - 2 a.b is read off
    one `c @ c.T`, whose -2 scaling happens in place. Rounding can leave a
    true zero slightly negative, so the result is clamped at 0 and its
    diagonal is exactly 0. The rows are centered in a C-ordered copy, so a
    matrix gets the same result alone or in a stack, whatever the input's
    layout. Entries must lie below `SCALE_LIMIT` in magnitude, as every
    defense's entry ensures (`scale_exponents`); far larger ones overflow.
    """
    c = np.array(points, dtype=np.float64, order="C")
    c -= c.mean(axis=-2, keepdims=True)
    return centered_sq_dists(c)


def centered_sq_dists(c: np.ndarray) -> np.ndarray:
    """`pairwise_sq_dists` of rows that are already centered; `c` is only read.

    A caller that holds the centered rows anyway saves the copy: for a
    C-ordered matrix x, passing `x - x.mean(axis=0)` gives exactly
    `pairwise_sq_dists(x)`, under the same bound on the entries.
    """
    gram = c @ np.swapaxes(c, -1, -2)
    sq = np.diagonal(gram, axis1=-2, axis2=-1)
    dists = sq[..., :, None] + sq[..., None, :]
    gram *= -2.0
    dists += gram
    np.maximum(dists, 0.0, out=dists)
    diag = np.arange(dists.shape[-1])
    dists[..., diag, diag] = 0.0
    return dists


def check_server_ingress(matrix: np.ndarray) -> None:
    """Reject client uploads containing NaN (or infinite) entries.

    Clean uploads cost one `isfinite` pass, taken a block of rows at a time,
    so its bool mask stays within `BLOCK_BYTES`. Only a block holding a
    non-finite entry leads to the full scan, which reports NaN before inf,
    naming the first client that holds one. Zero-width uploads are rejected.
    """
    _with_width(matrix)
    rows = block_rows(matrix.shape[1])
    if all(np.isfinite(matrix[i:i + rows]).all() for i in range(0, len(matrix), rows)):
        return
    if np.isnan(matrix).any():
        bad = int(np.argwhere(np.isnan(matrix).any(axis=1))[0, 0])
        raise ValueError(f"gradient from client {bad} contains NaN entries")
    if np.isinf(matrix).any():
        bad = int(np.argwhere(np.isinf(matrix).any(axis=1))[0, 0])
        raise ValueError(f"gradient from client {bad} contains infinite entries")


def make_partition(d: int, p: int, seed: SeedSpec) -> IndexPartition:
    """Uniformly random partition of {0..d-1} into p sorted index groups.

    The indices are shuffled with the seeded stream and cut into the
    `IndexPartition` layout, and each group is sorted in place. p > d is
    clamped to p = d.
    """
    if d <= 0:
        raise ValueError("empty dimension")
    if p <= 0:
        raise ValueError(f"group count must be positive, got p={p}")
    p = min(p, d)
    order = np.arange(d)
    seed.generator().shuffle(order)
    for g in _group_views(order, p):
        g.sort(axis=1)
    return IndexPartition(order=order, p=p)
