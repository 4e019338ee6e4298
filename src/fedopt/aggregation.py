"""Server-side parameter aggregation strategies.

The server sees only (params, sample count) pairs; raw data never crosses
this boundary. FedProx shares fed_avg on the server side -- its proximal
term lives in client training.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

STRATEGIES = ("fedavg", "fedavgm", "fedmedian", "fedprox", "fedcda")


@dataclass
class ClientUpdate:
    client_id: int
    params: np.ndarray
    n_samples: int


@dataclass
class ServerState:
    global_params: np.ndarray
    momentum_buffer: np.ndarray | None = None
    model_cache: dict[int, deque] = field(default_factory=dict)


def _stack(updates: list[ClientUpdate]) -> np.ndarray:
    if not updates:
        raise ValueError("no client updates")
    return np.stack([u.params for u in updates])  # unequal lengths raise ValueError


def fed_avg(updates: list[ClientUpdate]) -> np.ndarray:
    """Sample-size-weighted mean of client parameters."""
    return _weighted_mean(_stack(updates), [u.n_samples for u in updates])


def _weighted_mean(mat: np.ndarray, n_samples: list[int]) -> np.ndarray:
    w = np.array(n_samples, dtype=np.float64)
    return (w[:, None] / w.sum() * mat).sum(axis=0)


def fed_avg_m(
    updates: list[ClientUpdate], state: ServerState, beta: float, server_lr: float
) -> np.ndarray:
    """Server momentum on the pseudo-gradient global - fed_avg(updates)."""
    delta = state.global_params - fed_avg(updates)
    if state.momentum_buffer is None:
        state.momentum_buffer = np.zeros_like(state.global_params)
    state.momentum_buffer = beta * state.momentum_buffer + delta
    return state.global_params - server_lr * state.momentum_buffer


def fed_median(updates: list[ClientUpdate]) -> np.ndarray:
    """Coordinate-wise median; even counts take the mean of the middle two."""
    return np.median(_stack(updates), axis=0)


def fed_cda_lite(updates: list[ClientUpdate], state: ServerState, m: int) -> np.ndarray:
    """Divergence-minimizing aggregation over each client's recent models.

    For every client, pick whichever of its <= m cached models or current
    update is closest (L2) to the current global, then fed_avg the picks.
    The cache keeps each update's own array, not a copy, so no caller may
    change an update's params in place.
    """
    if not updates:
        raise ValueError("no client updates")
    caches = [state.model_cache.setdefault(u.client_id, deque(maxlen=m)) for u in updates]
    candidates = [p for u, cache in zip(updates, caches) for p in (*cache, u.params)]
    d = np.stack(candidates)  # unequal lengths raise ValueError
    d -= state.global_params
    # Row k: client k's distances padded with inf, so its argmin is client k's own, NaN first.
    counts = np.array([len(cache) + 1 for cache in caches])
    real = np.arange(counts.max()) < counts[:, None]
    table = np.full(real.shape, np.inf)
    # Each stacked 1x1 product is np.dot(r, r) bit for bit, so its sqrt is
    # np.linalg.norm(r); einsum and (d * d).sum can round differently.
    table[real] = np.sqrt(np.matmul(d[:, None, :], d[:, :, None]).ravel())
    picks = (np.cumsum(counts) - counts + table.argmin(axis=1)).tolist()
    for u, cache in zip(updates, caches):
        cache.append(u.params)
    return _weighted_mean(np.stack([candidates[i] for i in picks]), [u.n_samples for u in updates])


def aggregate(
    strategy: str,
    updates: list[ClientUpdate],
    state: ServerState,
    *,
    beta: float = 0.9,
    server_lr: float = 1.0,
    cda_depth: int = 3,
) -> np.ndarray:
    """Apply the named strategy and advance the server state."""
    updates = sorted(updates, key=lambda u: u.client_id)
    if strategy in ("fedavg", "fedprox"):
        new = fed_avg(updates)
    elif strategy == "fedavgm":
        new = fed_avg_m(updates, state, beta, server_lr)
    elif strategy == "fedmedian":
        new = fed_median(updates)
    elif strategy == "fedcda":
        new = fed_cda_lite(updates, state, cda_depth)
    else:
        raise ValueError(f"unknown aggregation strategy {strategy!r}")
    state.global_params = new
    return new
