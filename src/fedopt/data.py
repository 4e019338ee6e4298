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
    # Class by class in place: the draws and the arithmetic of
    # centers[c] + spread * noise, without a temporary per class.
    features = np.empty((n_classes * n_per_class, dim))
    for c, block in enumerate(np.split(features, n_classes)):
        rng.standard_normal(out=block)
        np.multiply(spread, block, out=block)
        np.add(centers[c], block, out=block)
    labels = np.repeat(np.arange(n_classes), n_per_class)
    return LabeledDataset(features, labels, n_classes)


def load_csv(path: str) -> LabeledDataset:
    """Header-free numeric CSV, one sample per row, integer label last.

    A file numpy cannot parse, with no rows or no feature column, a
    non-finite feature, or a label that is not a non-negative integer raises
    ValueError naming the path (and the first bad row or ragged row); so does
    a file whose labels hold fewer than two classes.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
        try:
            raw = np.loadtxt(path, delimiter=",", ndmin=2, encoding="utf-8")
        except ValueError as exc:  # a header row, a word, a ragged row
            # Data rows are the lines loadtxt reads: not blank once comments are cut.
            with open(path, encoding="utf-8", errors="replace") as fh:
                cols = [r.count(",") + 1 for line in fh if (r := line.split("#")[0].strip())]
            bad = [i for i, c in enumerate(cols) if c != cols[0]]
            if bad:
                exc = f"data row {bad[0] + 1} has {cols[bad[0]]} columns, expected {cols[0]}"
            raise ValueError(f"{path}: {exc}") from None
    if raw.size == 0:
        raise ValueError(f"{path}: no data rows")
    if raw.shape[1] < 2:
        raise ValueError(f"{path}: no feature column, only a label per row")
    col = raw[:, -1]
    bad_feature = ~np.isfinite(raw[:, :-1]).all(axis=1)
    bad = np.flatnonzero(bad_feature | ~np.isfinite(col) | (col < 0) | (col != np.floor(col)))
    if len(bad):
        i = bad[0]
        what = ("non-finite feature" if bad_feature[i]
                else f"label {float(col[i])} is not a non-negative integer")
        raise ValueError(f"{path}: data row {i + 1}: {what}")
    labels = col.astype(np.int64)
    if len(np.unique(labels)) < 2:
        raise ValueError(f"{path}: labels hold fewer than two classes")
    return LabeledDataset(raw[:, :-1], labels, int(labels.max()) + 1)


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


def action_partition(p: ClientPartition, fractions: np.ndarray,
                     seed: int | np.random.Generator) -> np.ndarray:
    """Per class, keep floor(fraction * count) uniformly sampled indices, drawn from
    `default_rng(seed)`: `seed` is an int or the Generator itself.

    Nonzero fractions on nonempty classes keep at least one sample.
    A fraction of exactly 1.0 keeps the class list unchanged. Returns the
    kept indices, class by class, each class's in ascending order.
    """
    fractions = np.asarray(fractions, dtype=np.float64)
    if len(fractions) != p.n_classes:
        raise ValueError("fractions length != class count")
    if not np.logical_and.reduce((fractions > 0.0) & (fractions <= 1.0)):  # NaN fails too
        raise ValueError(f"fractions outside (0, 1]: {fractions}")
    rng = np.random.default_rng(seed)
    kept = []
    for frac, idx in zip(fractions.tolist(), p.train_indices_by_class):
        if len(idx) == 0 or frac >= 1.0:
            kept.append(idx)
        else:
            n = max(1, int(frac * len(idx)))  # the floor: the product is positive
            # Positions: the draws of rng.choice(idx, n, replace=False), without its idx handling.
            kept.append(np.sort(idx[rng.choice(len(idx), n, replace=False)]))
    return _concat(kept)
