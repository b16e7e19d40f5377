"""Differentiable classifiers over a single flat parameter vector.

A model is L dense layers over the widths (m, [hidden], C), with tanh on
every layer but the last and the flat layout [W1, b1, ..., W_L, b_L], W_l
of shape (n_l, n_{l-1}). The default softmax linear classifier is L = 1
(d = C*m + C); setting `hidden` makes L = 2. Loss is mean cross-entropy;
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
        for name, least in (("n_classes", 2), ("n_features", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if self.hidden is not None and self.hidden < 1:
            raise ValueError(f"hidden must be >= 1 or null, got {self.hidden}")

    @property
    def _shapes(self) -> list[tuple[int, int]]:
        """(n_in, n_out) of each layer: [(m, C)], or [(m, h), (h, C)] with a hidden layer."""
        hidden = [] if self.hidden is None else [self.hidden]
        widths = [self.n_features, *hidden, self.n_classes]
        return list(zip(widths, widths[1:]))

    @property
    def dim(self) -> int:
        return sum(n_out * n_in + n_out for n_in, n_out in self._shapes)

    def init_params(self, seed: SeedSpec, scale: float = 0.3) -> np.ndarray:
        return scale * seed.child("init").generator().standard_normal(self.dim)

    def _unpack(self, w: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """(weights, bias) views of each layer of w (d,) or of each row of w (k, d)."""
        lead, layers, start = w.shape[:-1], [], 0
        for n_in, n_out in self._shapes:
            stop = start + n_out * n_in
            layers.append((w[..., start:stop].reshape(*lead, n_out, n_in), w[..., stop:stop + n_out]))
            start = stop + n_out
        return layers

    def logits(self, w: np.ndarray, features: np.ndarray) -> np.ndarray:
        return _forward(self._unpack(w), features)[-1]

    def loss(self, w: np.ndarray, features: np.ndarray, labels: np.ndarray) -> float:
        z = self.logits(w, features)
        z = z - z.max(axis=1, keepdims=True)
        log_norm = np.log(np.exp(z).sum(axis=1))
        return float(np.mean(log_norm - z[np.arange(len(labels)), labels]))

    def grad(self, w: np.ndarray, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Analytic gradient of the mean cross-entropy loss at w."""
        n = features.shape[0]
        layers = self._unpack(w)
        inputs = _forward(layers, features)
        delta = _softmax(inputs.pop())
        delta[np.arange(n), labels] -= 1.0
        delta /= n
        parts = []
        for i in reversed(range(len(layers))):
            parts[:0] = [(delta.T @ inputs[i]).ravel(), delta.sum(axis=0)]
            if i:
                delta = (delta @ layers[i][0]) * (1.0 - inputs[i] * inputs[i])
        return np.concatenate(parts)

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
        layers = self._unpack(ws)
        inputs = [features]
        for i, (weights, bias) in enumerate(layers):
            z = _rows_matmul(inputs[i], weights.swapaxes(1, 2), runs)
            z += bias[:, None, :]
            if i < len(layers) - 1:
                np.tanh(z, out=z)
            inputs.append(z)
        delta = _softmax(inputs.pop())
        _loss_slope(delta, labels, counts)
        parts = []
        for i in reversed(range(len(layers))):
            parts[:0] = [_rows_contract(delta, inputs[i], runs).reshape(k, -1), _rows_sum(delta, runs)]
            if i:
                delta = _rows_matmul(delta, layers[i][0], runs) * (1.0 - inputs[i] * inputs[i])
        return np.concatenate(parts, axis=1)

    def accuracy(self, w: np.ndarray, features: np.ndarray, labels: np.ndarray) -> float:
        return float(np.mean(self.logits(w, features).argmax(axis=1) == labels))


def _forward(layers, features: np.ndarray) -> list[np.ndarray]:
    """The input of each layer, then the logits; tanh on every layer but the last."""
    inputs = [features]
    for i, (weights, bias) in enumerate(layers):
        z = inputs[i] @ weights.T
        z += bias
        if i < len(layers) - 1:
            np.tanh(z, out=z)
        inputs.append(z)
    return inputs


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
