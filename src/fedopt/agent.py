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
        if not (0.0 <= self.epsilon_end <= self.epsilon_start <= 1.0):
            raise ValueError("need 0 <= agent.epsilon_end <= agent.epsilon_start <= 1")
        # Zero rates are allowed: they freeze the agent (an ablation).
        if not (self.actor_lr >= 0.0 and self.critic_lr >= 0.0):
            raise ValueError("need agent.actor_lr >= 0 and agent.critic_lr >= 0")

    def epsilon_at(self, t: int, horizon: int) -> float:
        decay = self.epsilon_decay
        if decay is None:
            decay = (self.epsilon_start - self.epsilon_end) / max(1, horizon // 2)
        return max(self.epsilon_end, self.epsilon_start - decay * t)


class ReplayBuffer:
    """Bounded FIFO store of transitions in trajectory order, kept in ring
    arrays: the p-th push goes to slot p % capacity."""

    def __init__(self, capacity: int, dim: int, seed: int = 0):
        self.capacity = capacity
        self._states = np.empty((capacity, dim))
        self._actions = np.empty((capacity, dim))
        self._rewards = np.empty(capacity)
        self._next_states = np.empty((capacity, dim))
        self._terminals = np.empty(capacity, dtype=bool)
        self._pushes = 0
        self._rng = np.random.default_rng(seed)

    def push(self, state, action, reward: float, next_state, terminal: bool) -> None:
        slot = self._pushes % self.capacity
        self._states[slot], self._actions[slot], self._rewards[slot] = state, action, reward
        self._next_states[slot], self._terminals[slot] = next_state, terminal
        self._pushes += 1

    def __len__(self) -> int:
        return min(self._pushes, self.capacity)

    def sample_slices(self, batch_size: int, n_step: int, gamma: float):
        """Sample up to `batch_size` distinct starts without replacement.

        Each start i covers the transitions i, i+1, ... up to `n_step` of
        them, stopping after a terminal one or at the newest. Returns the
        stacked arrays (states, actions, returns, boot_states, terminal,
        steps): the start's state and action, the gamma-discounted reward
        sum, the last covered transition's next state and terminal flag,
        and the number of transitions covered.
        """
        n = len(self)
        if n == 0:
            raise ValueError("empty replay buffer")
        starts = self._rng.choice(n, size=min(batch_size, n), replace=False)
        oldest = self._pushes - n
        first = (oldest + starts) % self.capacity
        returns, steps, last = np.zeros(len(starts)), np.zeros(len(starts)), first
        alive = np.ones(len(starts), dtype=bool)
        # One pass per window offset; adding term by term keeps the sum's order.
        for k in range(n_step):
            alive &= starts + k < n
            slot = (oldest + np.minimum(starts + k, n - 1)) % self.capacity
            returns = np.where(alive, returns + gamma**k * self._rewards[slot], returns)
            last = np.where(alive, slot, last)
            steps += alive
            alive &= ~self._terminals[slot]
        return (self._states[first], self._actions[first], returns, self._next_states[last],
                self._terminals[last].astype(np.float64), steps)


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
