"""Differentiable classifiers over a single flat parameter vector.

The default model is a softmax linear classifier (weights then biases in the
flat layout, d = C*m + C). Setting `hidden` switches to a one-hidden-layer
tanh network with layout [W1, b1, W2, b2]. Loss is mean cross-entropy;
gradients are analytic and checked against finite differences in the tests.

`Model.grads` computes the gradients of many clients at once from padded
batches, bit-identical to one `Model.grad` call per client. OpenBLAS rows
of `X @ W.T` depend on the height of X, so every product and sum over a
batch runs as one stacked call per run of clients with the same batch
height, on exactly their rows. Each stack item is then the call that
`Model.grad` makes, and padded rows are never read. Padding the batch
inside a product or sum is not exact: a width-1 layer or feature turns the
contraction into a matrix-vector BLAS call, and numpy sums a width-1 column
pairwise, and both round differently when the length changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SeedSpec


@dataclass(frozen=True)
class Model:
    n_classes: int
    n_features: int
    hidden: int | None = None

    def __post_init__(self):
        if self.hidden is not None and self.hidden < 1:
            raise ValueError(f"hidden must be >= 1 or null, got {self.hidden}")

    @property
    def dim(self) -> int:
        c, m = self.n_classes, self.n_features
        if self.hidden is None:
            return c * m + c
        h = self.hidden
        return h * m + h + c * h + c

    def init_params(self, seed: SeedSpec, scale: float = 0.3) -> np.ndarray:
        return scale * seed.child("init").generator().standard_normal(self.dim)

    def _unpack(self, w: np.ndarray):
        """Views of the layers of w (d,) or of each row of w (k, d)."""
        c, m = self.n_classes, self.n_features
        lead = w.shape[:-1]
        if self.hidden is None:
            return w[..., : c * m].reshape(*lead, c, m), w[..., c * m :]
        h = self.hidden
        parts = np.split(w, np.cumsum([h * m, h, c * h]), axis=-1)
        return (parts[0].reshape(*lead, h, m), parts[1],
                parts[2].reshape(*lead, c, h), parts[3])

    def logits(self, w: np.ndarray, features: np.ndarray) -> np.ndarray:
        if self.hidden is None:
            weights, bias = self._unpack(w)
            z = features @ weights.T
            z += bias
            return z
        w1, b1, w2, b2 = self._unpack(w)
        hidden = np.tanh(features @ w1.T + b1)
        return hidden @ w2.T + b2

    def loss(self, w: np.ndarray, features: np.ndarray, labels: np.ndarray) -> float:
        z = self.logits(w, features)
        z = z - z.max(axis=1, keepdims=True)
        log_norm = np.log(np.exp(z).sum(axis=1))
        return float(np.mean(log_norm - z[np.arange(len(labels)), labels]))

    def grad(self, w: np.ndarray, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Analytic gradient of the mean cross-entropy loss at w."""
        n = features.shape[0]
        if self.hidden is None:
            weights, bias = self._unpack(w)
            probs = _softmax(features @ weights.T + bias)
            probs[np.arange(n), labels] -= 1.0
            probs /= n
            return np.concatenate([(probs.T @ features).ravel(), probs.sum(axis=0)])
        w1, b1, w2, b2 = self._unpack(w)
        hidden = np.tanh(features @ w1.T + b1)
        probs = _softmax(hidden @ w2.T + b2)
        probs[np.arange(n), labels] -= 1.0
        probs /= n
        d_hidden = (probs @ w2) * (1.0 - hidden * hidden)
        return np.concatenate([
            (d_hidden.T @ features).ravel(), d_hidden.sum(axis=0),
            (probs.T @ hidden).ravel(), probs.sum(axis=0),
        ])

    def grads(self, ws: np.ndarray, features: np.ndarray, labels: np.ndarray,
              counts: np.ndarray) -> np.ndarray:
        """Gradients of k clients at once; row i equals, bit for bit,
        `grad(ws[i], features[i, :counts[i]], labels[i, :counts[i]])`.

        ws is (k, d), features (k, b, m), labels (k, b) and counts (k,) with
        1 <= counts[i] <= b. Slots past counts[i] are padding and are never
        read, except that their labels must be valid class indices. Clients
        sorted by count make fewer, larger stacked products.
        """
        k = features.shape[0]
        runs = _equal_runs(counts)
        if self.hidden is None:
            weights, bias = self._unpack(ws)
            z = _rows_matmul(features, weights.swapaxes(1, 2), runs)
            z += bias[:, None, :]
            probs = _softmax(z)
            _loss_slope(probs, labels, counts)
            return np.concatenate([_rows_contract(probs, features, runs).reshape(k, -1),
                                   _rows_sum(probs, runs)], axis=1)
        w1, b1, w2, b2 = self._unpack(ws)
        hidden = _rows_matmul(features, w1.swapaxes(1, 2), runs)
        hidden += b1[:, None, :]
        np.tanh(hidden, out=hidden)
        z = _rows_matmul(hidden, w2.swapaxes(1, 2), runs)
        z += b2[:, None, :]
        probs = _softmax(z)
        _loss_slope(probs, labels, counts)
        d_hidden = _rows_matmul(probs, w2, runs) * (1.0 - hidden * hidden)
        return np.concatenate([
            _rows_contract(d_hidden, features, runs).reshape(k, -1), _rows_sum(d_hidden, runs),
            _rows_contract(probs, hidden, runs).reshape(k, -1), _rows_sum(probs, runs),
        ], axis=1)

    def predict(self, w: np.ndarray, features: np.ndarray) -> np.ndarray:
        return self.logits(w, features).argmax(axis=1)

    def accuracy(self, w: np.ndarray, features: np.ndarray, labels: np.ndarray) -> float:
        return float(np.mean(self.predict(w, features) == labels))


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in place: z is overwritten and returned."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _equal_runs(counts: np.ndarray) -> list[tuple[int, int, int]]:
    """(start, stop, count) for each run of equal consecutive counts."""
    edges = [0, *(np.flatnonzero(np.diff(counts)) + 1).tolist(), len(counts)]
    return [(lo, hi, int(counts[lo])) for lo, hi in zip(edges, edges[1:])]


def _rows_matmul(a: np.ndarray, b: np.ndarray, runs) -> np.ndarray:
    """a @ b over stacks a (k, rows, n) and b (k, n, p), keeping only the
    first `count` rows of each item; the rest of the result is zero.

    Each run of equal counts is one stacked matmul of height `count`, so
    every item is the BLAS call an unpadded product of that height makes.
    """
    out = np.zeros((a.shape[0], a.shape[1], b.shape[2]))
    for lo, hi, count in runs:
        np.matmul(a[lo:hi, :count], b[lo:hi], out=out[lo:hi, :count])
    return out


def _rows_contract(a: np.ndarray, b: np.ndarray, runs) -> np.ndarray:
    """a.T @ b over stacks a (k, rows, n) and b (k, rows, p), summed over
    the first `count` rows of each item only, one stacked matmul per run."""
    out = np.empty((a.shape[0], a.shape[2], b.shape[2]))
    for lo, hi, count in runs:
        np.matmul(a[lo:hi, :count].swapaxes(1, 2), b[lo:hi, :count], out=out[lo:hi])
    return out


def _rows_sum(a: np.ndarray, runs) -> np.ndarray:
    """Sum of a (k, rows, n) over the first `count` rows of each item."""
    out = np.empty((a.shape[0], a.shape[2]))
    for lo, hi, count in runs:
        a[lo:hi, :count].sum(axis=1, out=out[lo:hi])
    return out


def _loss_slope(probs: np.ndarray, labels: np.ndarray, counts: np.ndarray) -> None:
    """Turn softmax outputs (k, rows, C) into (probs - onehot) / count in place."""
    k, rows, _ = probs.shape
    probs[np.arange(k)[:, None], np.arange(rows), labels] -= 1.0
    probs /= counts[:, None, None]


def finite_difference_grad(model: Model, w: np.ndarray, features: np.ndarray,
                           labels: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient, the oracle for Model.grad."""
    g = np.zeros_like(w)
    probe = w.copy()
    for j in range(w.size):
        probe[j] = w[j] + step
        hi = model.loss(probe, features, labels)
        probe[j] = w[j] - step
        lo = model.loss(probe, features, labels)
        probe[j] = w[j]
        g[j] = (hi - lo) / (2.0 * step)
    return g


__all__ = ["Model", "finite_difference_grad"]
