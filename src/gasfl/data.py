"""Synthetic classification data and non-IID client partitioning.

The dataset is a Gaussian-blob classification task sized to run in seconds:
class centers sit on a sphere, samples add isotropic noise. Each split's
features are drawn into the array returned and shifted in place, so set-up
holds one copy of each split. Client shards come from a per-class Dirichlet
draw, the standard recipe for dialing data heterogeneity with a single
concentration parameter.

A partition is one `(order, counts)` layout: `order` lists every client's
sample indices back to back, each client's ascending, and client i owns the
next `counts[i]` entries. `ClientShards` gathers the rows in that order once,
into the one pair of arrays batched local training reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import SeedSpec, block_rows


@dataclass(frozen=True)
class SyntheticDataset:
    features: np.ndarray
    labels: np.ndarray
    n_classes: int
    r_sep: float
    noise: float

    def __post_init__(self):
        if self.labels.min(initial=0) < 0 or self.labels.max(initial=0) >= self.n_classes:
            raise ValueError("labels out of range")

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class DirichletPartition:
    """Disjoint client index lists jointly covering the data, in one layout.

    `order` holds client 0's indices, then client 1's, and so on, each
    client's ascending; client i has `counts[i]` of them. Both arrays are
    read-only.
    """

    order: np.ndarray
    counts: np.ndarray
    beta: float

    @property
    def client_indices(self) -> tuple[np.ndarray, ...]:
        """Each client's sample indices, as read-only views into `order`."""
        return tuple(np.split(self.order, np.cumsum(self.counts)[:-1]))


@dataclass(frozen=True)
class ClientShards:
    """Client shards stored back to back in one pair of read-only arrays.

    Client i owns rows `starts[i] : starts[i] + counts[i]` of `features` and
    `labels`. `shards[i]` is client i's (features, labels) pair of views, and
    `take` selects clients without copying the data.
    """

    features: np.ndarray
    labels: np.ndarray
    starts: np.ndarray
    counts: np.ndarray

    @classmethod
    def from_shards(cls, shards: Sequence[tuple[np.ndarray, np.ndarray]]) -> "ClientShards":
        counts = np.array([labels.size for _, labels in shards], dtype=np.int64)
        return cls._packed(np.concatenate([f for f, _ in shards]),
                           np.concatenate([y for _, y in shards]), counts)

    @classmethod
    def from_partition(cls, features: np.ndarray, labels: np.ndarray,
                       partition: DirichletPartition) -> "ClientShards":
        """The rows of every client in `partition`, gathered in one pass."""
        return cls._packed(features[partition.order], labels[partition.order], partition.counts)

    @classmethod
    def _packed(cls, features: np.ndarray, labels: np.ndarray, counts: np.ndarray) -> "ClientShards":
        features.flags.writeable = labels.flags.writeable = False
        return cls(features=features, labels=labels, starts=np.cumsum(counts) - counts,
                   counts=counts)

    def __getitem__(self, client: int) -> tuple[np.ndarray, np.ndarray]:
        rows = slice(self.starts[client], self.starts[client] + self.counts[client])
        return self.features[rows], self.labels[rows]

    def take(self, clients) -> "ClientShards":
        """The shards of `clients`, in that order, sharing this object's data."""
        return ClientShards(self.features, self.labels, self.starts[clients], self.counts[clients])


@dataclass(frozen=True)
class SyntheticGradientModel:
    """Direct honest-gradient generator for training-free aggregation studies.

    Client i's mean gradient is a shared base direction plus a fixed
    per-client shift of magnitude kappa (the heterogeneity); each round adds
    isotropic noise with total magnitude sigma (the stochastic-gradient
    proxy).
    """

    dim: int
    n_honest: int
    kappa: float
    sigma: float
    seed: SeedSpec
    base_norm: float = 1.0

    def __post_init__(self):
        for name in ("dim", "n_honest"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("kappa", "sigma", "base_norm"):
            if not 0 <= getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")

    def client_means(self) -> np.ndarray:
        """(n_honest, dim) fixed per-client means, drawn once per instance; read-only."""
        return self._client_means

    @cached_property
    def _client_means(self) -> np.ndarray:
        rng = self.seed.child("client_means").generator()
        base = rng.standard_normal(self.dim)
        base *= self.base_norm / max(np.linalg.norm(base), 1e-300)
        # the means are built in the one (n_honest, dim) array drawn, with
        # the row norms taken a few rows at a time: no other array of that
        # size means fewer fresh pages to fault at set-up
        shifts = rng.standard_normal((self.n_honest, self.dim))
        rows = block_rows(8 * self.dim)
        norms = np.empty((self.n_honest, 1))
        for i in range(0, self.n_honest, rows):
            norms[i:i + rows] = np.linalg.norm(shifts[i:i + rows], axis=1, keepdims=True)
        shifts *= self.kappa / np.maximum(norms, 1e-300)
        shifts += base
        shifts.flags.writeable = False
        return shifts

    def sample_round(self, round: int) -> np.ndarray:
        """(n_honest, dim) honest gradients for one round."""
        rng = self.seed.child("round_noise", round).generator()
        noise = rng.standard_normal((self.n_honest, self.dim))
        noise *= self.sigma / np.sqrt(self.dim)
        noise += self.client_means()
        return noise


def generate_synthetic(n_classes: int, dim: int, per_class: int, r_sep: float,
                       noise: float, seed: SeedSpec,
                       test_per_class: int | None = None) -> tuple[SyntheticDataset, SyntheticDataset]:
    """Train and test splits drawn independently from one blob model.

    Class centers are random unit directions scaled to r_sep; every sample
    is its class center plus N(0, noise^2 I) jitter.
    """
    if n_classes < 2:
        raise ValueError(f"need at least 2 classes, got {n_classes}")
    if dim < 1:
        raise ValueError(f"feature dimension must be >= 1, got {dim}")
    if test_per_class is None:
        test_per_class = per_class
    rng = seed.child("centers").generator()
    centers = rng.standard_normal((n_classes, dim))
    centers *= r_sep / np.maximum(np.linalg.norm(centers, axis=1, keepdims=True), 1e-300)

    def draw(count: int, split: str) -> SyntheticDataset:
        # the labels are class-major, so each class's rows are one block:
        # scaling and shifting the draw in place gives centers[labels] +
        # noise * draw bit for bit, with no second array of the split's size
        labels = np.repeat(np.arange(n_classes), count)
        features = seed.child(split).generator().standard_normal((labels.size, dim))
        features *= noise
        blocks = features.reshape(n_classes, count, dim)  # a view, one block per class
        blocks += centers[:, None, :]
        return SyntheticDataset(features=features, labels=labels, n_classes=n_classes,
                                r_sep=r_sep, noise=noise)

    return draw(per_class, "train"), draw(test_per_class, "test")


def dirichlet_partition(labels: np.ndarray, n_clients: int, beta: float,
                        seed: SeedSpec) -> DirichletPartition:
    """Split sample indices across clients with per-class Dirichlet proportions.

    For each class a proportion vector is drawn from Dir(beta); the class's
    shuffled indices are divided by largest-remainder rounding, so every
    sample lands on exactly one client. Each sample is tagged with its
    client, and one stable sort by client gives the `(order, counts)` layout.
    """
    if n_clients < 1:
        raise ValueError(f"need at least 1 client, got {n_clients}")
    if not beta > 0:
        raise ValueError(f"concentration must be positive, got beta={beta}")
    labels = np.asarray(labels)
    owner = np.empty(labels.size, dtype=np.int64)
    for y in np.unique(labels):
        class_idx = np.flatnonzero(labels == y)
        rng = seed.child("class", int(y)).generator()
        rng.shuffle(class_idx)
        props = rng.dirichlet(np.full(n_clients, beta))
        owner[class_idx] = np.repeat(np.arange(n_clients), _largest_remainder(props, class_idx.size))
    # a stable sort keeps each client's indices ascending
    order = np.argsort(owner, kind="stable")
    counts = np.bincount(owner, minlength=n_clients)
    order.flags.writeable = counts.flags.writeable = False
    return DirichletPartition(order=order, counts=counts, beta=beta)


def _largest_remainder(proportions: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing to `total`, proportional to `proportions`."""
    raw = proportions * total
    counts = np.floor(raw).astype(np.int64)
    short = total - int(counts.sum())
    if short:
        # hand the leftovers to the largest fractional parts, lower index first
        order = np.lexsort((np.arange(len(raw)), -(raw - counts)))
        counts[order[:short]] += 1
    return counts


__all__ = ["SyntheticDataset", "DirichletPartition", "ClientShards", "SyntheticGradientModel",
           "generate_synthetic", "dirichlet_partition"]
