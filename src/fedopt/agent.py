"""DDPG agent selecting per-class data fractions.

The actor maps the per-class F1 state to an action in [b_l, b_u]^C via a
scaled sigmoid; the critic scores (state, action) pairs. Two exploration
transforms turn raw actions into usable data fractions: L1-normalization
against per-class availability, and reweighting by F1 decline over a
look-back window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import StateVector
from .nn import Mlp, backward, forward, sgd_step

ACTION_STRATEGIES = ("normalized", "weighted_metric", "full")


@dataclass
class Transition:
    state: np.ndarray
    action: np.ndarray
    reward: float
    next_state: np.ndarray
    terminal: bool = False


@dataclass
class AgentConfig:
    gamma: float = 0.99
    actor_lr: float = 1e-3
    critic_lr: float = 1e-3
    soft_update_tau: float = 0.005
    epsilon_start: float = 1.0
    epsilon_end: float = 0.1
    epsilon_decay: float | None = None  # per round; None -> (start-end)/(T/2)
    eta: int = 5
    b_l: float = 0.1
    b_u: float = 1.0
    buffer_capacity: int = 10_000
    batch_size: int = 32
    n_step: int = 1
    hidden: int = 32

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if not (0.0 < self.b_l <= self.b_u <= 1.0):
            raise ValueError("need 0 < agent.b_l <= agent.b_u <= 1")
        if self.eta < 1 or self.n_step < 1:
            raise ValueError("need agent.eta >= 1 and agent.n_step >= 1")
        if self.batch_size < 1 or self.hidden < 1:
            raise ValueError("need agent.batch_size >= 1 and agent.hidden >= 1")
        # A smaller FIFO never holds a minibatch, so the agent would never learn.
        if self.buffer_capacity < self.batch_size:
            raise ValueError("agent.buffer_capacity must be >= agent.batch_size")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError("agent.gamma outside (0, 1)")
        if not (0.0 < self.soft_update_tau <= 1.0):
            raise ValueError("agent.soft_update_tau outside (0, 1]")

    def epsilon_at(self, t: int, horizon: int) -> float:
        decay = self.epsilon_decay
        if decay is None:
            decay = (self.epsilon_start - self.epsilon_end) / max(1, horizon // 2)
        return max(self.epsilon_end, self.epsilon_start - decay * t)


class ReplayBuffer:
    """Bounded FIFO store of transitions in trajectory order."""

    def __init__(self, capacity: int, seed: int = 0):
        self.capacity = capacity
        self._items: list[Transition] = []
        self._rng = np.random.default_rng(seed)

    def push(self, tr: Transition) -> None:
        self._items.append(tr)
        if len(self._items) > self.capacity:
            self._items.pop(0)

    def __len__(self) -> int:
        return len(self._items)

    def sample_slices(self, batch_size: int, n_step: int, gamma: float):
        """Sample up to `batch_size` distinct starts without replacement.

        Each start i covers the transitions i, i+1, ... up to `n_step` of
        them, stopping after a terminal one or at the newest. Returns the
        stacked arrays (states, actions, returns, boot_states, terminal,
        steps): the start's state and action, the gamma-discounted reward
        sum, the last covered transition's next state and terminal flag,
        and the number of transitions covered.
        """
        if not self._items:
            raise ValueError("empty replay buffer")
        n = len(self._items)
        starts = self._rng.choice(n, size=min(batch_size, n), replace=False)
        returns, boots, terminal, steps = [], [], [], []
        for i in starts:
            g, k, last = 0.0, 0, self._items[i]
            for last in self._items[i : i + n_step]:
                g += gamma**k * last.reward
                k += 1
                if last.terminal:
                    break
            returns.append(g)
            boots.append(last.next_state)
            terminal.append(last.terminal)
            steps.append(k)
        return (
            np.stack([self._items[i].state for i in starts]),
            np.stack([self._items[i].action for i in starts]),
            np.array(returns),
            np.stack(boots),
            np.array(terminal, dtype=np.float64),
            np.array(steps, dtype=np.float64),
        )


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


class ActorCritic:
    """Actor (C -> C, scaled sigmoid output) and critic (2C -> 1) with targets."""

    def __init__(self, n_classes: int, cfg: AgentConfig, rng: np.random.Generator):
        self.n_classes = n_classes
        self.cfg = cfg
        h = cfg.hidden
        self.actor = Mlp.init_glorot([n_classes, h, n_classes], rng)
        self.critic = Mlp.init_glorot([2 * n_classes, h, 1], rng)
        self.actor_target = self.actor.copy()
        self.critic_target = self.critic.copy()

    def _act(self, actor: Mlp, states: np.ndarray) -> np.ndarray:
        return self.cfg.b_l + (self.cfg.b_u - self.cfg.b_l) * _sigmoid(forward(actor, states))


def policy_action(ac: ActorCritic, s: StateVector) -> np.ndarray:
    """Deterministic actor output, every coordinate in [b_l, b_u]."""
    state = s.as_array()
    if state.shape != (ac.n_classes,):
        raise ValueError(f"state dim {state.shape} != {ac.n_classes}")
    return ac._act(ac.actor, state[None, :])[0]


def normalized_action(
    a: np.ndarray, class_counts: np.ndarray, total: int
) -> np.ndarray:
    """L1-normalize, scale to sample counts, clamp to availability.

    Returns per-class fractions; empty classes get fraction 1.
    """
    a = np.asarray(a, dtype=np.float64)
    counts = np.asarray(class_counts, dtype=np.float64)
    norm = np.abs(a).sum()
    if norm == 0:
        raise ValueError("cannot normalize an all-zero action")
    raw_counts = (a / norm) * total
    clamped = np.minimum(raw_counts, counts)
    return np.where(counts > 0, clamped / np.maximum(counts, 1.0), 1.0)


def weighted_metric_action(
    a: np.ndarray, f1_now: StateVector, f1_lookback: StateVector
) -> np.ndarray:
    """Upweight classes whose F1 dropped over the look-back window.

    Weights 1+|dF1| for declining classes (else 1) are L1-normalized then
    rescaled by C so the mean factor is 1 before multiplying the action.
    """
    a = np.asarray(a, dtype=np.float64)
    now = f1_now.as_array()
    back = f1_lookback.as_array()
    if a.shape != now.shape or now.shape != back.shape:
        raise ValueError("action/state dimension mismatch")
    delta = now - back
    weights = np.where(delta < 0, 1.0 + np.abs(delta), 1.0)
    factors = weights / weights.sum() * len(weights)
    return np.clip(a * factors, np.finfo(float).tiny, 1.0)


def epsilon_greedy_select(
    explore: np.ndarray, greedy: np.ndarray, epsilon: float, rng: np.random.Generator
) -> np.ndarray:
    """`explore` with probability epsilon, else the actor's `greedy` action."""
    if rng.random() < epsilon:
        return np.asarray(explore, dtype=np.float64)
    return greedy


def critic_update(ac: ActorCritic, batch: tuple, cfg: AgentConfig) -> float:
    """One MSE step toward the n-step bootstrapped target; returns pre-step loss.

    `batch` is the tuple returned by `ReplayBuffer.sample_slices`.
    """
    states, actions, returns, boot_states, terminal, steps = batch
    if len(states) == 0:
        raise ValueError("empty batch")
    next_a = ac._act(ac.actor_target, boot_states)
    q_next = forward(ac.critic_target, np.hstack([boot_states, next_a]))[:, 0]
    target = returns + (cfg.gamma**steps) * (1.0 - terminal) * q_next
    cache: dict = {}
    q = forward(ac.critic, np.hstack([states, actions]), cache)[:, 0]
    err = q - target
    loss = float(np.mean(err**2))
    d_out = (2.0 * err / len(err))[:, None]
    grads, _ = backward(ac.critic, cache, d_out)
    ac.critic.params[...] = sgd_step(ac.critic.params, grads, cfg.critic_lr)
    return loss


# perfbench/spans.py wraps this name too (by attribute), so it stays as an alias.
critic_update_nstep = critic_update


def actor_update(ac: ActorCritic, states: np.ndarray, cfg: AgentConfig) -> float:
    """One ascent step on mean Q(s, actor(s)) over `states`; critic stays frozen."""
    if len(states) == 0:
        raise ValueError("empty batch")
    actor_cache: dict = {}
    raw = forward(ac.actor, states, actor_cache)
    sig = _sigmoid(raw)
    acts = ac.cfg.b_l + (ac.cfg.b_u - ac.cfg.b_l) * sig
    critic_cache: dict = {}
    q = forward(ac.critic, np.hstack([states, acts]), critic_cache)[:, 0]
    objective = float(np.mean(q))
    d_q = np.full((len(states), 1), 1.0 / len(states))
    _, d_in = backward(ac.critic, critic_cache, d_q)
    d_action = d_in[:, ac.n_classes :]
    d_raw = d_action * (ac.cfg.b_u - ac.cfg.b_l) * sig * (1.0 - sig)
    grads, _ = backward(ac.actor, actor_cache, d_raw)
    # gradient ascent on the objective
    ac.actor.params[...] = sgd_step(ac.actor.params, grads, -cfg.actor_lr)
    return objective


def soft_update(ac: ActorCritic, tau: float) -> None:
    """target <- tau*online + (1-tau)*target for both networks, in place."""
    if not (0.0 < tau <= 1.0):
        raise ValueError("tau outside (0, 1]")
    for online, target in ((ac.actor, ac.actor_target), (ac.critic, ac.critic_target)):
        target.params[...] = tau * online.params + (1.0 - tau) * target.params
