"""Minimal MLP with analytic backprop, cross-entropy loss, and SGD.

All arithmetic is float64. Parameters travel between clients and the
server as flat vectors (layer 0 weights row-major, layer 0 biases,
layer 1 weights, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Mlp:
    """Feed-forward network: ReLU hidden layers, identity output."""

    layer_dims: list[int]
    weights: list[np.ndarray] = field(default_factory=list)
    biases: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        if len(self.layer_dims) < 2 or any(d < 1 for d in self.layer_dims):
            raise ValueError(f"bad layer_dims {self.layer_dims}")
        if not self.weights:
            self.weights = [
                np.zeros((a, b)) for a, b in zip(self.layer_dims, self.layer_dims[1:])
            ]
            self.biases = [np.zeros(b) for b in self.layer_dims[1:]]

    @classmethod
    def init_glorot(cls, layer_dims: list[int], rng: np.random.Generator) -> "Mlp":
        """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases."""
        m = cls(layer_dims)
        for i, (a, b) in enumerate(zip(layer_dims, layer_dims[1:])):
            limit = np.sqrt(6.0 / (a + b))
            m.weights[i] = rng.uniform(-limit, limit, size=(a, b))
        return m

    @classmethod
    def view_of(cls, layer_dims: list[int], flat: np.ndarray) -> "Mlp":
        """Model whose weights and biases are reshaped views of `flat`.

        `flat` is a float64 vector in the canonical layout; writing to it
        changes the model without a copy.
        """
        dims = list(layer_dims)
        pairs = list(zip(dims, dims[1:]))
        n = sum((a + 1) * b for a, b in pairs)
        if flat.dtype != np.float64 or flat.shape != (n,):
            raise ValueError(f"need a float64 vector of length {n}, got {flat.dtype} {flat.shape}")
        weights, biases, off = [], [], 0
        for a, b in pairs:
            weights.append(flat[off : off + a * b].reshape(a, b))
            off += a * b
            biases.append(flat[off : off + b])
            off += b
        return cls(dims, weights, biases)

    @property
    def n_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def get_params(self) -> np.ndarray:
        """Flatten weights and biases into the canonical layout."""
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts.append(w.ravel())
            parts.append(b.ravel())
        return np.concatenate(parts)

    def set_params(self, flat: np.ndarray) -> None:
        """Load a copy of `flat` (canonical layout) as the weights and biases."""
        m = Mlp.view_of(self.layer_dims, np.array(flat, dtype=np.float64))
        self.weights, self.biases = m.weights, m.biases

    def copy(self) -> "Mlp":
        m = Mlp(list(self.layer_dims))
        m.weights = [w.copy() for w in self.weights]
        m.biases = [b.copy() for b in self.biases]
        return m


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


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


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

    Returns (flat gradients in ParamVector layout, gradient w.r.t. inputs).
    """
    if "acts" not in cache:
        raise ValueError("missing forward cache")
    acts = cache["acts"]
    if len(acts) != len(model.weights) + 1:
        raise ValueError("stale forward cache")
    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    delta = np.atleast_2d(d_logits)
    for i in reversed(range(len(model.weights))):
        grads_w[i] = acts[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        delta = delta @ model.weights[i].T
        if i > 0:
            delta = delta * (acts[i] > 0.0)
    flat = np.concatenate(
        [np.concatenate([w.ravel(), b.ravel()]) for w, b in zip(grads_w, grads_b)]
    )
    return flat, delta


def sgd_step(params: np.ndarray, grads: np.ndarray, lr: float) -> np.ndarray:
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape:
        raise ValueError("params/grads length mismatch")
    return params - lr * grads


def proximal_cross_entropy(
    logits: np.ndarray,
    labels: np.ndarray,
    params: np.ndarray,
    global_params: np.ndarray,
    mu: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Cross-entropy plus (mu/2)*||params - global||^2.

    Returns (loss, dLogits, extra flat gradient term mu*(params - global)).
    """
    params = np.asarray(params, dtype=np.float64)
    global_params = np.asarray(global_params, dtype=np.float64)
    if params.shape != global_params.shape:
        raise ValueError("params/global_params length mismatch")
    loss, d_logits = cross_entropy_loss(logits, labels)
    diff = params - global_params
    loss += 0.5 * mu * float(diff @ diff)
    return loss, d_logits, mu * diff
