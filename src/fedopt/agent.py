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

from .nn import Mlp, backward, forward, input_grad, sgd_step

ACTION_STRATEGIES = ("normalized", "weighted_metric", "full")


@dataclass
class AgentConfig:
    gamma: float = 0.99
    actor_lr: float = 1e-3
    critic_lr: float = 1e-3
    soft_update_tau: float = 0.005
    epsilon_start: float = 1.0
    epsilon_end: float = 0.1
    eta: int = 5
    b_l: float = 0.1
    b_u: float = 1.0
    batch_size: int = 32
    hidden: int = 32

    def validate(self) -> None:
        if not (0.0 < self.b_l <= self.b_u <= 1.0):
            raise ValueError("need 0 < agent.b_l <= agent.b_u <= 1")
        if self.eta < 1:
            raise ValueError("need agent.eta >= 1")
        if self.batch_size < 1 or self.hidden < 1:
            raise ValueError("need agent.batch_size >= 1 and agent.hidden >= 1")
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
        """Epsilon in round t of a `horizon`-round run: linear from epsilon_start at
        round 0 to epsilon_end at round horizon // 2 (round 1 if that is 0), then flat."""
        decay = (self.epsilon_start - self.epsilon_end) / max(1, horizon // 2)
        return max(self.epsilon_end, self.epsilon_start - decay * t)


class ReplayBuffer:
    """Append-only store of up to `capacity` transitions in push order: the
    p-th push goes to slot p."""

    def __init__(self, capacity: int, dim: int, seed: int = 0):
        self._states = np.empty((capacity, dim))
        self._actions = np.empty((capacity, dim))
        self._rewards = np.empty(capacity)
        self._next_states = np.empty((capacity, dim))
        self._pushes = 0
        self._rng = np.random.default_rng(seed)

    def push(self, state, action, reward: float, next_state) -> None:
        p = self._pushes
        self._states[p], self._actions[p], self._rewards[p] = state, action, reward
        self._next_states[p] = next_state
        self._pushes += 1

    def __len__(self) -> int:
        return self._pushes

    def sample(self, batch_size: int):
        """Up to `batch_size` distinct transitions, drawn without replacement, as the
        stacked arrays (states, actions, rewards, next_states)."""
        n = len(self)
        if n == 0:
            raise ValueError("empty replay buffer")
        picks = self._rng.choice(n, size=min(batch_size, n), replace=False)
        return (self._states[picks], self._actions[picks], self._rewards[picks],
                self._next_states[picks])


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


def policy_action(ac: ActorCritic, state: np.ndarray) -> np.ndarray:
    """Deterministic actor output for a per-class F1 state, every coordinate in [b_l, b_u]."""
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
    a: np.ndarray, f1_now: np.ndarray, f1_lookback: np.ndarray
) -> np.ndarray:
    """Upweight classes whose F1 dropped over the look-back window.

    Weights 1+|dF1| for declining classes (else 1) are L1-normalized then
    rescaled by C so the mean factor is 1 before multiplying the action.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.shape != f1_now.shape or f1_now.shape != f1_lookback.shape:
        raise ValueError("action/state dimension mismatch")
    delta = f1_now - f1_lookback
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


def critic_update(ac: ActorCritic, batch: tuple) -> float:
    """One MSE step toward the one-step bootstrapped target; returns pre-step loss.

    `batch` is the tuple returned by `ReplayBuffer.sample`.
    """
    states, actions, rewards, next_states = batch
    if len(states) == 0:
        raise ValueError("empty batch")
    next_a = ac._act(ac.actor_target, next_states)
    q_next = forward(ac.critic_target, np.hstack([next_states, next_a]))[:, 0]
    target = rewards + ac.cfg.gamma * q_next
    acts: list = []
    q = forward(ac.critic, np.hstack([states, actions]), acts)[:, 0]
    err = q - target
    loss = float(np.mean(err**2))
    d_out = (2.0 * err / len(err))[:, None]
    grads = backward(ac.critic, acts, d_out)
    sgd_step(ac.critic.params, grads, ac.cfg.critic_lr)
    return loss


# perfbench/spans.py wraps this name too (by attribute), so it stays as an alias.
critic_update_nstep = critic_update


def actor_update(ac: ActorCritic, states: np.ndarray) -> float:
    """One ascent step on mean Q(s, actor(s)) over `states`; critic stays frozen."""
    if len(states) == 0:
        raise ValueError("empty batch")
    actor_acts: list = []
    raw = forward(ac.actor, states, actor_acts)
    sig = _sigmoid(raw)
    acts = ac.cfg.b_l + (ac.cfg.b_u - ac.cfg.b_l) * sig
    critic_acts: list = []
    q = forward(ac.critic, np.hstack([states, acts]), critic_acts)[:, 0]
    objective = float(np.mean(q))
    d_q = np.full((len(states), 1), 1.0 / len(states))
    d_in = input_grad(ac.critic, critic_acts, d_q)
    d_action = d_in[:, ac.n_classes :]
    d_raw = d_action * (ac.cfg.b_u - ac.cfg.b_l) * sig * (1.0 - sig)
    grads = backward(ac.actor, actor_acts, d_raw)
    # gradient ascent on the objective
    sgd_step(ac.actor.params, grads, -ac.cfg.actor_lr)
    return objective


def soft_update(ac: ActorCritic) -> None:
    """target <- tau*online + (1-tau)*target for both networks, in place,
    with tau = agent.soft_update_tau."""
    tau = ac.cfg.soft_update_tau
    for online, target in ((ac.actor, ac.actor_target), (ac.critic, ac.critic_target)):
        target.params[...] = tau * online.params + (1.0 - tau) * target.params
