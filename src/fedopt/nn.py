"""Minimal MLP with analytic backprop, cross-entropy loss, and SGD.

All arithmetic is float64. Parameters travel between clients and the
server as flat vectors (layer 0 weights row-major, layer 0 biases,
layer 1 weights, ...).
"""

from __future__ import annotations

import numpy as np


class Mlp:
    """Feed-forward network: ReLU hidden layers, identity output.

    All parameters live in one float64 vector `params` in the canonical
    layout; `weights` and `biases` are tuples of reshaped views of it, so
    writing to `params` changes the model without a copy.
    """

    def __init__(self, layer_dims: list[int], params: np.ndarray | None = None):
        dims = list(layer_dims)
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ValueError(f"bad layer_dims {dims}")
        pairs = list(zip(dims, dims[1:]))
        n = sum((a + 1) * b for a, b in pairs)
        if params is None:
            params = np.zeros(n)
        elif params.dtype != np.float64 or params.shape != (n,):
            raise ValueError(f"need a float64 vector of length {n}, got {params.dtype} {params.shape}")
        weights, biases, off = [], [], 0
        for a, b in pairs:
            weights.append(params[off : off + a * b].reshape(a, b))
            off += a * b
            biases.append(params[off : off + b])
            off += b
        self.layer_dims, self.params = dims, params
        self.weights, self.biases = tuple(weights), tuple(biases)

    def __reduce__(self):
        # copy.deepcopy and pickle rebuild the views over the copied vector.
        return Mlp, (self.layer_dims, self.params)

    @classmethod
    def init_glorot(cls, layer_dims: list[int], rng: np.random.Generator) -> "Mlp":
        """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases."""
        m = cls(layer_dims)
        for w in m.weights:
            limit = np.sqrt(6.0 / sum(w.shape))
            w[...] = rng.uniform(-limit, limit, size=w.shape)
        return m

    @property
    def n_params(self) -> int:
        return self.params.size

    def get_params(self) -> np.ndarray:
        """A copy of the parameters in the canonical layout."""
        return self.params.copy()

    def set_params(self, flat: np.ndarray) -> None:
        """Write `flat` (canonical layout) into the parameters in place."""
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != self.params.shape:
            raise ValueError(f"need {self.params.shape[0]} parameters, got shape {flat.shape}")
        self.params[...] = flat

    def copy(self) -> "Mlp":
        return Mlp(self.layer_dims, self.params.copy())


def forward(model: Mlp, x: np.ndarray, cache: dict | None = None) -> np.ndarray:
    """Forward pass; fills `cache` with per-layer activations if given."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != model.layer_dims[0]:
        raise ValueError(f"input dim {x.shape[1]} != {model.layer_dims[0]}")
    acts = [x]
    h = x
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w + b
        h = z if i == last else np.maximum(z, 0.0)
        acts.append(h)
    if cache is not None:
        cache["acts"] = acts
    return h


def cross_entropy_loss(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy and its gradient w.r.t. logits."""
    logits = np.atleast_2d(logits)
    labels = np.asarray(labels, dtype=np.int64)
    n, c = logits.shape
    if n == 0:
        raise ValueError("empty batch")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"label out of range [0, {c})")
    z = logits - logits.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = -log_probs[np.arange(n), labels].mean()
    d = np.exp(log_probs)
    d[np.arange(n), labels] -= 1.0
    return float(loss), d / n


def backward(model: Mlp, cache: dict, d_logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Backprop `d_logits` through the cached forward pass.

    Returns (flat gradients in the canonical layout, gradient w.r.t. inputs).
    """
    if "acts" not in cache:
        raise ValueError("missing forward cache")
    acts = cache["acts"]
    if len(acts) != len(model.weights) + 1:
        raise ValueError("stale forward cache")
    grads = [None] * (2 * len(model.weights))  # w0, b0, w1, b1, ...: the canonical layout
    delta = np.atleast_2d(d_logits)
    for i in reversed(range(len(model.weights))):
        grads[2 * i] = (acts[i].T @ delta).ravel()
        grads[2 * i + 1] = delta.sum(axis=0)
        delta = delta @ model.weights[i].T
        if i > 0:
            delta = delta * (acts[i] > 0.0)
    return np.concatenate(grads), delta


def sgd_step(params: np.ndarray, grads: np.ndarray, lr: float) -> np.ndarray:
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape:
        raise ValueError("params/grads length mismatch")
    return params - lr * grads
