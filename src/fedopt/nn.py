"""Minimal MLP with analytic backprop, cross-entropy loss, and SGD.

All arithmetic is float64. Parameters travel between clients and the
server as flat vectors (layer 0 weights row-major, layer 0 biases,
layer 1 weights, ...).

Every function also takes G models at once: (G, P) parameters, (G, m, d)
inputs and (G, m) labels. Slice g computes bit for bit what the 2-D call on
it computes: matmul makes one BLAS call per slice, and each sum runs along
the same axis in the same order. Models with fewer real rows than m pad the
rest: `cross_entropy_grad` gives the padded rows a zero gradient, so in
backprop they add exact zeros along the summed axis.
"""

from __future__ import annotations

import numpy as np


class Mlp:
    """Feed-forward network: ReLU hidden layers, identity output.

    All parameters live in one float64 vector `params` in the canonical
    layout; `weights` and `biases` are tuples of reshaped views of it, so
    writing to `params` changes the model without a copy. A (G, P) `params`
    holds G models: weights are (G, a, b) and biases (G, 1, b) views.
    """

    def __init__(self, layer_dims: list[int], params: np.ndarray | None = None):
        dims = list(layer_dims)
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ValueError(f"bad layer_dims {dims}")
        pairs = list(zip(dims, dims[1:]))
        n = sum((a + 1) * b for a, b in pairs)
        if params is None:
            params = np.zeros(n)
        elif params.dtype != np.float64 or params.ndim not in (1, 2) or params.shape[-1] != n:
            raise ValueError(f"need float64 parameters of length {n}, got {params.dtype} {params.shape}")
        lead = params.shape[:-1]
        weights, biases, off = [], [], 0
        for a, b in pairs:
            weights.append(params[..., off : off + a * b].reshape(*lead, a, b))
            off += a * b
            biases.append(params[..., off : off + b].reshape(*lead, 1, b) if lead
                          else params[off : off + b])
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

    def copy(self) -> "Mlp":
        return Mlp(self.layer_dims, self.params.copy())

    def __getitem__(self, rows) -> "Mlp":
        """The models at `rows` of a stacked Mlp, viewing its parameters; an int drops the axis."""
        view = object.__new__(Mlp)
        view.layer_dims, view.params = self.layer_dims, self.params[rows]
        # From lists: each tuple(generator) would leave a new 2-tuple on CPython's free list.
        view.weights = tuple([w[rows] for w in self.weights])
        view.biases = tuple([b[rows] if view.params.ndim > 1 else b[rows, 0] for b in self.biases])
        return view


def forward(model: Mlp, x: np.ndarray, acts: list | None = None) -> np.ndarray:
    """Forward pass; a given `acts` list is refilled with the input and each layer's output."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[-1] != model.layer_dims[0]:
        raise ValueError(f"input dim {x.shape[-1]} != {model.layer_dims[0]}")
    if acts is None:
        acts = []
    acts[:] = [x]
    h = x
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        h = h @ w  # a new array, so the bias and ReLU can work in place
        h += b
        if i != last:
            np.maximum(h, 0.0, out=h)
        acts.append(h)
    return h


def _row_max(logits: np.ndarray) -> np.ndarray:
    """logits.max(axis=-1, keepdims=True), exactly, by columns: numpy reduces short axes slowly."""
    m = logits[..., :1].copy()
    for j in range(1, logits.shape[-1]):
        np.maximum(m, logits[..., j : j + 1], out=m)
    return m


def cross_entropy_loss(logits: np.ndarray, labels: np.ndarray) -> float | np.ndarray:
    """Mean softmax cross-entropy; for (G, n, c) logits, G per-model means."""
    logits = np.atleast_2d(logits)
    labels = np.asarray(labels, dtype=np.int64)
    n, c = logits.shape[-2:]
    if n == 0:
        raise ValueError("empty batch")
    if np.minimum.reduce(labels, axis=None) < 0 or np.maximum.reduce(labels, axis=None) >= c:
        raise ValueError(f"label out of range [0, {c})")
    z = logits - _row_max(logits)
    log_probs = z - np.log(np.add.reduce(np.exp(z), axis=-1, keepdims=True))
    # Row r of the (rows, c) view picks class labels[r].
    picked = log_probs.reshape(-1, c)[np.arange(labels.size), labels.ravel()].reshape(labels.shape)
    loss = -np.add.reduce(picked, axis=-1) / labels.shape[-1]  # the mean, as numpy's divides it
    return float(loss) if loss.ndim == 0 else loss


def cross_entropy_grad(
    logits: np.ndarray, labels: np.ndarray, n_real: np.ndarray | None = None
) -> np.ndarray:
    """Gradient of the mean softmax cross-entropy w.r.t. logits.

    `n_real`, one real row count per model (a 0-d array for 2-D logits),
    marks each model's rows past that count as padding: the mean is over the
    real rows only, and the padded rows' gradients are exactly 0.0, so they
    add nothing in backprop. Labels are not range-checked: the training data
    was checked at load time.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n, c = logits.shape[-2:]
    z = logits - _row_max(logits)
    z -= np.log(np.add.reduce(np.exp(z), axis=-1, keepdims=True))  # log-probabilities
    d = np.exp(z, out=z)
    d -= labels[..., None] == np.arange(c)  # 1.0 at each row's label; x - 0.0 is x
    if n_real is None:
        d /= n
    else:
        d /= n_real[..., None, None]  # a division, as for n: bit-identical real rows
        d[np.arange(n) >= n_real[..., None]] = 0.0
    return d


def backward(model: Mlp, acts: list[np.ndarray], d_logits: np.ndarray) -> np.ndarray:
    """Backprop `d_logits` through the forward pass that filled `acts`.

    Returns the flat parameter gradients in the canonical layout; the
    gradient w.r.t. the inputs is `input_grad`'s.
    """
    grads = [None] * (2 * len(model.weights))  # w0, b0, w1, b1, ...: the canonical layout
    delta = np.atleast_2d(d_logits)
    lead = delta.shape[:-2]
    for i in reversed(range(len(model.weights))):
        grads[2 * i] = (acts[i].swapaxes(-1, -2) @ delta).reshape(*lead, -1)
        grads[2 * i + 1] = np.add.reduce(delta, axis=-2)
        if i > 0:
            delta = delta @ model.weights[i].swapaxes(-1, -2)
            delta *= acts[i] > 0.0
    return np.concatenate(grads, axis=-1)


def input_grad(model: Mlp, acts: list[np.ndarray], d_logits: np.ndarray) -> np.ndarray:
    """Backprop `d_logits` to the inputs of the forward pass that filled `acts`."""
    delta = np.atleast_2d(d_logits)
    for i in reversed(range(len(model.weights))):
        delta = delta @ model.weights[i].swapaxes(-1, -2)
        if i > 0:
            delta *= acts[i] > 0.0
    return delta


def sgd_step(params: np.ndarray, grads: np.ndarray, lr: float) -> None:
    """params -= lr * grads, in place."""
    if params.shape != grads.shape:
        raise ValueError("params/grads length mismatch")
    params -= lr * grads
