"""Synthetic data, Dirichlet non-IID partitioning, and action-driven subsets."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np


@dataclass
class LabeledDataset:
    features: np.ndarray  # (N, d)
    labels: np.ndarray    # (N,) ints in [0, C)
    n_classes: int

    def __post_init__(self):
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("feature/label count mismatch")


@dataclass
class ClientPartition:
    client_id: int
    n_classes: int
    train_indices_by_class: list[np.ndarray] = field(default_factory=list)
    val_indices: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    @property
    def train_size(self) -> int:
        return sum(len(ix) for ix in self.train_indices_by_class)

    @property
    def class_counts(self) -> np.ndarray:
        return np.array([len(ix) for ix in self.train_indices_by_class], dtype=np.int64)

    def all_train_indices(self) -> np.ndarray:
        return _concat(self.train_indices_by_class)


def _concat(index_lists: list[np.ndarray]) -> np.ndarray:
    return np.concatenate([*index_lists, np.empty(0, dtype=np.int64)])


def generate_synthetic(
    n_classes: int, n_per_class: int, dim: int, spread: float, seed: int
) -> LabeledDataset:
    """Gaussian blobs: one seeded random center per class, isotropic noise."""
    if n_classes < 2 or n_per_class < 1 or dim < 1:
        raise ValueError("need n_classes >= 2, n_per_class >= 1, dim >= 1")
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 2.0, size=(n_classes, dim))
    features = np.concatenate(
        [centers[c] + spread * rng.standard_normal((n_per_class, dim)) for c in range(n_classes)]
    )
    labels = np.repeat(np.arange(n_classes), n_per_class)
    return LabeledDataset(features, labels, n_classes)


def load_csv(path: str, n_classes: int | None = None) -> LabeledDataset:
    """Header-free numeric CSV, one sample per row, integer label last.

    A file with no rows, or a label that is not a non-negative integer,
    raises ValueError naming the path and the first bad row.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
        raw = np.loadtxt(path, delimiter=",", ndmin=2)
    if raw.size == 0:
        raise ValueError(f"{path}: no data rows")
    col = raw[:, -1]
    bad = np.flatnonzero(~np.isfinite(col) | (col < 0) | (col != np.floor(col)))
    if len(bad):
        raise ValueError(f"{path}: data row {bad[0] + 1}: label {float(col[bad[0]])} "
                         "is not a non-negative integer")
    labels = col.astype(np.int64)
    if n_classes is None:
        n_classes = int(labels.max()) + 1
    return LabeledDataset(raw[:, :-1], labels, n_classes)


def dirichlet_partition(
    ds: LabeledDataset, n_clients: int, alpha: float, seed: int
) -> list[ClientPartition]:
    """Per-class proportions p ~ Dirichlet(alpha * 1_K); every sample assigned once.

    Rounding remainders go to the client with the largest proportion.
    Returned partitions are pre-split: all indices sit in the train lists.
    """
    if n_clients < 1 or alpha <= 0:
        raise ValueError("need n_clients >= 1 and alpha > 0")
    rng = np.random.default_rng(seed)
    parts = [ClientPartition(k, ds.n_classes, [np.empty(0, dtype=np.int64) for _ in range(ds.n_classes)])
             for k in range(n_clients)]
    for c in range(ds.n_classes):
        idx = np.flatnonzero(ds.labels == c)
        rng.shuffle(idx)
        p = rng.dirichlet(np.full(n_clients, alpha))
        counts = np.floor(p * len(idx)).astype(np.int64)
        counts[np.argmax(p)] += len(idx) - counts.sum()
        off = 0
        for k in range(n_clients):
            parts[k].train_indices_by_class[c] = np.sort(idx[off : off + counts[k]])
            off += counts[k]
    return parts


def train_val_split(p: ClientPartition, ratio: float, seed: int) -> ClientPartition:
    """Per-class shuffled split; classes with a single sample keep it in train."""
    if not (0.0 < ratio < 1.0):
        raise ValueError(f"ratio {ratio} outside (0, 1)")
    rng = np.random.default_rng(seed)
    train_by_class = []
    val_parts = []
    for idx in p.train_indices_by_class:
        idx = idx.copy()
        rng.shuffle(idx)
        n_train = max(1, round(ratio * len(idx))) if len(idx) else 0
        train_by_class.append(np.sort(idx[:n_train]))
        val_parts.append(idx[n_train:])
    val = np.sort(np.concatenate(val_parts)) if val_parts else np.empty(0, dtype=np.int64)
    return ClientPartition(p.client_id, p.n_classes, train_by_class, val)


def action_partition(p: ClientPartition, fractions: np.ndarray, seed: int) -> np.ndarray:
    """Per class, keep floor(fraction * count) uniformly sampled indices.

    Nonzero fractions on nonempty classes keep at least one sample.
    A fraction of exactly 1.0 keeps the class list unchanged. Returns the
    kept indices, class by class, each class's in ascending order.
    """
    fractions = np.asarray(fractions, dtype=np.float64)
    if len(fractions) != p.n_classes:
        raise ValueError("fractions length != class count")
    if np.any(fractions <= 0.0) or np.any(fractions > 1.0):
        raise ValueError(f"fractions outside (0, 1]: {fractions}")
    rng = np.random.default_rng(seed)
    kept = []
    for frac, idx in zip(fractions, p.train_indices_by_class):
        if len(idx) == 0 or frac >= 1.0:
            kept.append(idx)
        else:
            n = max(1, int(np.floor(frac * len(idx))))
            kept.append(np.sort(rng.choice(idx, size=n, replace=False)))
    return _concat(kept)
