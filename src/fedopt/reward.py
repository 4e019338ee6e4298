"""Piecewise reward with exponential loss-curve estimation.

The loss trajectory is modeled as L(t) = -u * exp(-v * t); positive
losses force u < 0. Before the warm-up round the reward compares the
aggregated-model loss against the measured local loss, afterwards
against the fitted estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class ExpFit:
    u: float = 0.0
    v: float = 0.0
    fit_valid: bool = False
    residual: float = float("inf")


@dataclass
class RewardConfig:
    tau: int = 10
    lam: float = 0.25
    div_guard: float = 1e-3

    def __post_init__(self):
        if self.tau < 1 or self.div_guard <= 0:
            raise ValueError("need tau >= 1 and div_guard > 0")


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


def fit_exponential(h: LossHistory, max_iter: int = 50) -> ExpFit:
    """Least-squares fit of L(t) = -u*exp(-v*t).

    Log-domain linear regression seeds |u| and v, then Gauss-Newton
    refines both. Mixed-sign or degenerate histories are flagged invalid.
    """
    if len(h) < 3:
        raise ValueError("need at least 3 history points")
    t = np.asarray(h.rounds, dtype=np.float64)
    y = np.asarray(h.losses, dtype=np.float64)
    if np.all(y > 0):
        sign = -1.0
    elif np.all(y < 0):
        sign = 1.0
    else:
        return ExpFit(fit_valid=False)
    logy = np.log(np.abs(y))
    design = np.column_stack([np.ones_like(t), -t])
    coef, *_ = np.linalg.lstsq(design, logy, rcond=None)
    u = sign * np.exp(coef[0])
    v = coef[1]
    for _ in range(max_iter):
        # An iterate that overflows cannot recover: stop before lstsq sees it.
        with np.errstate(over="ignore", invalid="ignore"):
            e = np.exp(-v * t)
            r = -u * e - y
            jac = np.column_stack([-e, u * t * e])
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(jac))):
            return ExpFit(fit_valid=False)
        try:
            step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        except np.linalg.LinAlgError:
            return ExpFit(fit_valid=False)
        u += step[0]
        v += step[1]
        if np.max(np.abs(step)) < 1e-12:
            break
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(np.linalg.norm(-u * np.exp(-v * t) - y))
    if not np.isfinite(residual):
        return ExpFit(fit_valid=False)
    return ExpFit(float(u), float(v), True, residual)


def estimate_loss(f: ExpFit, t: float) -> float:
    if not f.fit_valid:
        raise ValueError("invalid exponential fit")
    return -f.u * np.exp(-f.v * t)


def compute_reward(
    l_agg: float, l_ref: float, mu_a: float, cfg: RewardConfig, t: int
) -> float:
    """Relative loss improvement scaled by 1/(mean action - lambda).

    `l_ref` is the measured local loss before round tau and the fitted
    estimate afterwards; the caller picks it. A small guard keeps the
    denominator away from zero.
    """
    if l_ref <= 0:
        raise ValueError(f"reference loss must be positive, got {l_ref}")
    denom = mu_a - cfg.lam
    if abs(denom) < cfg.div_guard:
        denom = cfg.div_guard if denom >= 0 else -cfg.div_guard
    return ((l_agg - l_ref) / l_ref) * (1.0 / denom)
