"""Piecewise reward with exponential loss-curve estimation.

The loss trajectory is modeled as L(t) = -u * exp(-v * t); positive
losses force u < 0. Before the warm-up round the reward compares the
aggregated-model loss against the measured local loss, afterwards
against the fitted estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

try:  # the gufunc np.linalg.lstsq wraps (LAPACK dgelsd); numpy 1.x has none named lstsq
    from numpy.linalg._umath_linalg import lstsq as _dgelsd
except ImportError:
    _dgelsd = None


@dataclass
class ExpFit:
    u: float = 0.0
    v: float = 0.0
    fit_valid: bool = False


@dataclass
class RewardConfig:
    tau: int = 10
    lam: float = 0.25

    def validate(self) -> None:
        if self.tau < 1:
            raise ValueError("need reward.tau >= 1")


@dataclass
class LossHistory:
    rounds: list[int] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)

    def append(self, t: int, loss: float) -> None:
        if self.rounds and t <= self.rounds[-1]:
            raise ValueError("rounds must be strictly increasing")
        self.rounds.append(t)
        self.losses.append(loss)

    def __len__(self) -> int:
        return len(self.rounds)


def _solve_gufunc(a: np.ndarray, rhs: np.ndarray, rcond: float) -> list[float]:
    """`np.linalg.lstsq(a, rhs, rcond)[0]` bit for bit, without the wrapper that is about
    half of a 2-column solve; NaN where dgelsd fails, which the wrapper raises as LinAlgError."""
    return _dgelsd(a, rhs, rcond)[0].ravel().tolist()


def _solve_wrapped(a: np.ndarray, rhs: np.ndarray, rcond: float) -> list[float]:
    try:
        return np.linalg.lstsq(a, rhs, rcond=rcond)[0].ravel().tolist()
    except np.linalg.LinAlgError:
        return [np.nan] * a.shape[1]


_solve = _solve_wrapped if _dgelsd is None else _solve_gufunc


def fit_exponential(h: LossHistory, max_iter: int = 50) -> ExpFit:
    """Least-squares fit of L(t) = -u*exp(-v*t).

    Log-domain linear regression seeds |u| and v, then Gauss-Newton
    refines both. Mixed-sign or degenerate histories are flagged invalid.
    """
    if len(h) < 3:
        raise ValueError("need at least 3 history points")
    t = np.asarray(h.rounds, dtype=np.float64)
    y = np.asarray(h.losses, dtype=np.float64)
    sign = -1.0 if np.all(y > 0) else 1.0
    if not np.all(sign * y < 0):  # mixed signs, a zero or a NaN
        return ExpFit(fit_valid=False)
    # Rows 0-1 of one buffer hold the design matrix's, then the Jacobian's columns,
    # row 2 the right-hand side; in-place fills keep each plain expression's grouping,
    # so the iterates are the same bit for bit. A failed solve's NaN fails a finiteness test.
    a0, a1, b = buf = np.array([np.ones_like(t), -t, np.log(np.abs(y))])
    a, rhs = buf[:2].T, b[:, None]
    rcond = np.finfo(np.float64).eps * len(t)  # lstsq's rcond=None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        c0, v = _solve(a, rhs, rcond)
        u = sign * float(np.exp(c0))
        for _ in range(max_iter):
            e = np.exp(np.multiply(-v, t, out=a0), out=a0)
            np.multiply(np.multiply(u, t, out=a1), e, out=a1)
            np.add(np.multiply(u, e, out=b), y, out=b)  # minus the residual -u*e - y
            np.negative(e, out=a0)
            if not np.isfinite(buf).all():  # an overflowed iterate cannot recover
                return ExpFit(fit_valid=False)
            du, dv = _solve(a, rhs, rcond)
            u, v = u + du, v + dv
            if abs(du) < 1e-12 and abs(dv) < 1e-12:
                break
        if not np.isfinite(np.linalg.norm(-u * np.exp(-v * t) - y)):  # the final fit overflowed
            return ExpFit(fit_valid=False)
    return ExpFit(u, v, True)


def estimate_loss(f: ExpFit, t: float) -> float:
    if not f.fit_valid:
        raise ValueError("invalid exponential fit")
    return -f.u * np.exp(-f.v * t)


DIV_GUARD = 1e-3  # least |mu_a - lambda| divided by: the paper's reward has no guard


def compute_reward(l_agg: float, l_ref: float, mu_a: float, cfg: RewardConfig) -> float:
    """Relative loss improvement scaled by 1/(mean action - lambda).

    `l_ref` is the measured local loss before round tau and the fitted
    estimate afterwards; the caller picks it. DIV_GUARD keeps the
    denominator away from zero.
    """
    if l_ref <= 0:
        raise ValueError(f"reference loss must be positive, got {l_ref}")
    denom = mu_a - cfg.lam
    if abs(denom) < DIV_GUARD:
        denom = DIV_GUARD if denom >= 0 else -DIV_GUARD
    return ((l_agg - l_ref) / l_ref) * (1.0 / denom)
