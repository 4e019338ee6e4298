"""Confusion-matrix metrics and the per-class F1 state vector.

The metric functions take one (C, C) confusion matrix or a stack of them
with any leading axes, one matrix per client.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import Mlp, cross_entropy_loss, forward

# Rows per forward pass in `evaluate`: bounds the copy of x[rows] and the
# activations held at once, so peak memory does not grow with the number
# of evaluated rows.
EVAL_CHUNK = 512


@dataclass
class StateVector:
    f1_per_class: np.ndarray
    round: int = 0

    def as_array(self) -> np.ndarray:
        return np.asarray(self.f1_per_class, dtype=np.float64)


def confusion(
    preds: np.ndarray,
    truth: np.ndarray,
    n_classes: int,
    groups: np.ndarray | None = None,
    n_groups: int = 1,
) -> np.ndarray:
    """counts[t][p] = number of samples with true class t predicted as p.

    With `groups` (one index in [0, n_groups) per sample), returns a
    (n_groups, C, C) stack holding one matrix per group.
    """
    preds = np.asarray(preds, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if preds.shape != truth.shape:
        raise ValueError("preds/truth length mismatch")
    for v in (preds, truth):
        if v.size and (v.min() < 0 or v.max() >= n_classes):
            raise ValueError(f"class index out of range [0, {n_classes})")
    cells = truth * n_classes + preds
    shape = (n_classes, n_classes)
    if groups is not None:
        cells = cells + np.asarray(groups, dtype=np.int64) * (n_classes * n_classes)
        shape = (n_groups, *shape)
    return np.bincount(cells, minlength=int(np.prod(shape))).reshape(shape)


def class_prf1(cm: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-class precision, recall, F1, shaped (..., C); any 0/0 is 0."""
    tp = np.diagonal(cm, axis1=-2, axis2=-1).astype(np.float64)
    fp = cm.sum(axis=-2) - tp
    fn = cm.sum(axis=-1) - tp
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
        r = np.where(tp + fn > 0, tp / (tp + fn), 0.0)
        f1 = np.where(p + r > 0, 2 * p * r / (p + r), 0.0)
    return p, r, f1


def accuracy(cm: np.ndarray) -> float | np.ndarray:
    """Share of correct predictions, 0.0 for an empty matrix.

    A float for one matrix, an array of shape (...) for a stack.
    """
    total = cm.sum(axis=(-2, -1))
    acc = np.divide(np.trace(cm, axis1=-2, axis2=-1), total,
                    out=np.zeros(np.shape(total)), where=total > 0)
    return float(acc) if cm.ndim == 2 else acc


def evaluate(
    model: Mlp,
    x: np.ndarray,
    y: np.ndarray,
    rows: np.ndarray | None = None,
    groups: np.ndarray | None = None,
    n_groups: int = 1,
) -> np.ndarray:
    """Confusion matrix of the model's argmax predictions on x[rows].

    `rows` defaults to all of x; `y` holds one label per evaluated row.
    The forward pass runs EVAL_CHUNK rows at a time. `groups` and
    `n_groups` split the counts into a stack as in `confusion`.
    """
    n = len(x) if rows is None else len(rows)
    if n != len(y):
        raise ValueError("x/y length mismatch")
    preds = np.empty(n, dtype=np.int64)
    for i in range(0, n, EVAL_CHUNK):
        chunk = slice(i, i + EVAL_CHUNK)
        preds[chunk] = forward(model, x[chunk] if rows is None else x[rows[chunk]]).argmax(axis=1)
    return confusion(preds, y, model.layer_dims[-1], groups, n_groups)


def compute_state(
    params: np.ndarray, arch: list[int], x: np.ndarray, y: np.ndarray, round_t: int = 0
) -> tuple[StateVector, float]:
    """Per-class F1 and mean cross-entropy of the model on a client's
    local training set, from one forward pass."""
    if len(y) == 0:
        raise ValueError("empty dataset")
    logits = forward(Mlp(arch, params), x)
    loss, _ = cross_entropy_loss(logits, y)
    _, _, f1 = class_prf1(confusion(logits.argmax(axis=1), y, arch[-1]))
    return StateVector(f1, round_t), loss
