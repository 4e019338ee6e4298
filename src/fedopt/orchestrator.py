"""Federated round loop, client training, post-FL fine-tuning, and the
performance-bound calculator.

One client ("optimized") chooses per-class training-data fractions through
a DDPG agent each round; every other ("naive") client trains on its full
local train split. All randomness flows from named seed streams so equal
configs replay bit-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import agent as agent_mod
from . import data as data_mod
from .aggregation import ClientUpdate, ServerState, STRATEGIES, aggregate
from .agent import ACTION_STRATEGIES, ActorCritic, AgentConfig, ReplayBuffer
from .metrics import StateVector, accuracy, class_prf1, compute_state, evaluate
from .nn import Mlp, backward, cross_entropy_loss, forward, sgd_step
from .reward import LossHistory, RewardConfig, compute_reward, estimate_loss, fit_exponential


@dataclass
class ExperimentConfig:
    n_clients: int = 8
    c_ratio: float = 1.0
    rounds: int = 100
    local_epochs: int = 1
    batch_size: int = 32
    lr: float = 0.05
    optimized_client: int | None = 0  # None -> naive-all ablation
    aggregation: str = "fedavg"
    action_strategy: str = "normalized"
    dirichlet_alpha: float = 0.5
    split_ratio: float = 0.8
    seed_data: int = 0
    seed_init: int = 1
    seed_agent: int = 2
    seed_sampling: int = 3
    hidden_dims: list[int] = field(default_factory=lambda: [32])
    n_classes: int = 4
    n_per_class: int = 400
    feature_dim: int = 16
    spread: float = 5.0
    dataset_csv: str | None = None
    finetune_patience: int = 10
    finetune_max_epochs: int = 200
    prox_mu: float = 0.01
    fedavgm_beta: float = 0.9
    fedavgm_server_lr: float = 1.0
    cda_depth: int = 3
    agent: AgentConfig = field(default_factory=AgentConfig)
    reward: RewardConfig = field(default_factory=RewardConfig)

    def validate(self) -> None:
        """The one check of a whole config; raises ValueError naming the key."""
        if not (0.0 < self.c_ratio <= 1.0):
            raise ValueError("c_ratio outside (0, 1]")
        if self.n_clients < 1 or self.rounds < 1 or self.local_epochs < 1:
            raise ValueError("need n_clients, rounds, local_epochs >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError("lr must be finite and > 0")
        if not (0.0 < self.split_ratio < 1.0):
            raise ValueError("split_ratio outside (0, 1)")
        if any(d < 1 for d in self.hidden_dims):
            raise ValueError("hidden_dims must all be >= 1")
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if self.n_per_class < 1 or self.feature_dim < 1:
            raise ValueError("need n_per_class >= 1 and feature_dim >= 1")
        if not self.dirichlet_alpha > 0.0:
            raise ValueError("dirichlet_alpha must be > 0")
        if not self.spread > 0.0:
            raise ValueError("spread must be > 0")
        if not self.prox_mu >= 0.0:
            raise ValueError("prox_mu must be >= 0")
        if not (0.0 <= self.fedavgm_beta < 1.0):
            raise ValueError("fedavgm_beta outside [0, 1)")
        if not self.fedavgm_server_lr > 0.0:
            raise ValueError("fedavgm_server_lr must be > 0")
        if self.cda_depth < 0:
            raise ValueError("cda_depth must be >= 0")
        for key in ("seed_data", "seed_init", "seed_agent", "seed_sampling"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be >= 0")
        if self.aggregation not in STRATEGIES:
            raise ValueError(f"aggregation must be one of {STRATEGIES}")
        if self.action_strategy not in ACTION_STRATEGIES:
            raise ValueError(f"action_strategy must be one of {ACTION_STRATEGIES}")
        if self.optimized_client is not None and not (
            0 <= self.optimized_client < self.n_clients
        ):
            raise ValueError("optimized_client out of range")
        self.agent.validate()
        self.reward.validate()


@dataclass
class RoundRecord:
    round: int
    sampled: list[int]
    client_metrics: list[dict]
    optimized: dict | None
    aggregation: str

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class RunResult:
    final_global: np.ndarray
    client_params: dict[int, np.ndarray]
    rounds: list[RoundRecord]
    finetune_trace: list[dict]
    finetuned_params: np.ndarray | None
    arch: list[int]


def sample_clients(n_clients: int, c_ratio: float, rng: np.random.Generator) -> list[int]:
    size = math.ceil(c_ratio * n_clients)
    return sorted(rng.choice(n_clients, size=size, replace=False).tolist())


def compute_performance_bound(
    z_full: np.ndarray, z_selected: np.ndarray
) -> tuple[float, float, float]:
    """Circle-area performance totals and their gap.

    Returns (full-data total, selected total, gap Omega).
    """
    big = np.asarray(z_full, dtype=np.float64)
    small = np.asarray(z_selected, dtype=np.float64)
    if big.shape != small.shape:
        raise ValueError("radius vector length mismatch")
    if np.any(small > big) or np.any(small < 0) or np.any(big > 1):
        raise ValueError("need 0 <= z_c <= Z_c <= 1")
    p_full = math.pi * float(np.sum(big**2))
    p_sel = math.pi * float(np.sum(small**2))
    return p_full, p_sel, math.pi * float(np.sum(big**2 - small**2))


def _require_finite(where: str, **values) -> None:
    """Stop a diverged run: every value must be finite."""
    for name, value in values.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{where}: non-finite {name} (diverged)")


def _derived_seed(*keys: int) -> int:
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for i in range(0, n, batch_size):
        yield order[i : i + batch_size]


def client_local_train(
    arch: list[int],
    w_init: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    epochs: int,
    batch_size: int,
    lr: float,
    rng: np.random.Generator,
    prox_mu: float = 0.0,
    w_global: np.ndarray | None = None,
) -> np.ndarray:
    """Mini-batch SGD from w_init; optional proximal pull toward w_global."""
    if len(y) == 0:
        raise ValueError("empty training subset")
    params = np.array(w_init, dtype=np.float64)
    model = Mlp(arch, params)
    for _ in range(epochs):
        for batch in _batches(len(y), batch_size, rng):
            cache: dict = {}
            logits = forward(model, x[batch], cache)
            _, d_logits = cross_entropy_loss(logits, y[batch])
            grads, _ = backward(model, cache, d_logits)
            if prox_mu > 0.0 and w_global is not None:
                grads = grads + prox_mu * (params - w_global)
            params[...] = sgd_step(params, grads, lr)
    return params


def _train_client(cfg: ExperimentConfig, arch: list[int], w_global: np.ndarray,
                  x: np.ndarray, y: np.ndarray, t: int, k: int) -> np.ndarray:
    """Client k's local training in round t from the global model; stops a diverged run."""
    train_rng = np.random.default_rng(_derived_seed(cfg.seed_data, 29, t, k))
    prox = cfg.prox_mu if cfg.aggregation == "fedprox" else 0.0
    w_k = client_local_train(arch, w_global, x, y, cfg.local_epochs, cfg.batch_size, cfg.lr,
                             train_rng, prox, w_global)
    _require_finite(f"round {t}: client {k}", parameters=w_k)
    return w_k


def dataset_loss(arch: list[int], params: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    loss, _ = cross_entropy_loss(forward(Mlp(arch, params), x), y)
    return loss


def post_fl_finetune(
    arch: list[int],
    w_start: np.ndarray,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    batch_size: int,
    lr: float,
    patience: int,
    max_epochs: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, list[dict]]:
    """Full-dataset epochs until validation accuracy stops improving.

    Returns the best-validation parameters and a per-epoch trace.
    """
    if len(y_train) == 0 or len(y_val) == 0:
        raise ValueError("empty fine-tune split")
    params = w_start.copy()
    best_params, best_acc = params, -1.0
    stale = 0
    trace = []
    for epoch in range(1, max_epochs + 1):
        params = client_local_train(arch, params, x_train, y_train, 1, batch_size, lr, rng)
        _require_finite(f"fine-tune epoch {epoch}", parameters=params)
        acc = accuracy(evaluate(Mlp(arch, params), x_val, y_val))
        trace.append({"epoch": epoch, "val_accuracy": acc})
        if acc > best_acc + 1e-4:
            best_acc, best_params, stale = acc, params, 0
        else:
            stale += 1
        if stale >= patience:
            break
    return best_params, trace


class _OptimizedClient:
    """Per-round RL pipeline owned by the optimized client."""

    def __init__(self, cfg: ExperimentConfig, arch: list[int]):
        self.cfg = cfg
        self.arch = arch
        rng = np.random.default_rng(cfg.seed_agent)
        self.ac = ActorCritic(arch[-1], cfg.agent, rng)
        # A run pushes at most one transition a round, so a larger ring stays empty.
        self.buffer = ReplayBuffer(min(cfg.agent.buffer_capacity, cfg.rounds), arch[-1],
                                   _derived_seed(cfg.seed_agent, 1))
        self.rng = np.random.default_rng(_derived_seed(cfg.seed_agent, 2))
        self.history = LossHistory()
        self.state_log: dict[int, StateVector] = {}
        self.pending: tuple[np.ndarray, np.ndarray, float] | None = None

    def _complete_pending(self, next_state: StateVector, terminal: bool = False) -> None:
        if self.pending is None:
            return
        s, a, r = self.pending
        self.buffer.push(s, a, r, next_state.as_array(), terminal)
        self.pending = None
        self._learn()

    def _learn(self) -> None:
        cfg = self.cfg.agent
        if len(self.buffer) < cfg.batch_size:
            return
        batch = self.buffer.sample_slices(cfg.batch_size, cfg.n_step, cfg.gamma)
        agent_mod.critic_update(self.ac, batch, cfg)
        agent_mod.actor_update(self.ac, batch[0], cfg)
        agent_mod.soft_update(self.ac, cfg.soft_update_tau)

    def _explore_action(self, raw: np.ndarray, state: StateVector, part, t: int) -> np.ndarray:
        if self.cfg.action_strategy == "normalized":
            return agent_mod.normalized_action(raw, part.class_counts, part.train_size)
        lookback_t = max(0, t - self.cfg.agent.eta)
        candidates = [r for r in self.state_log if r <= lookback_t]
        back = self.state_log[max(candidates)] if candidates else state
        return agent_mod.weighted_metric_action(raw, state, back)

    def round(self, w_global, part, x, y, t: int):
        """Full optimized-client round; returns (params, record fragment)."""
        cfg = self.cfg
        arch = self.arch
        idx = part.all_train_indices()
        xt, yt = x[idx], y[idx]
        state, l_agg = compute_state(w_global, arch, xt, yt)
        self._complete_pending(state)
        self.state_log[t] = state

        if cfg.action_strategy == "full":
            fractions = np.ones(part.n_classes)
        else:
            raw = agent_mod.policy_action(self.ac, state)
            explore = self._explore_action(raw, state, part, t)
            eps = cfg.agent.epsilon_at(t, cfg.rounds)
            fractions = agent_mod.epsilon_greedy_select(explore, raw, eps, self.rng)
        where = f"round {t}: client {part.client_id}"
        _require_finite(where, fractions=fractions)

        sel = data_mod.action_partition(part, fractions, _derived_seed(cfg.seed_data, 41, t))
        w_new = _train_client(cfg, arch, w_global, x[sel], y[sel], t, part.client_id)
        l_local = dataset_loss(arch, w_new, xt, yt)

        l_est = None
        l_ref = max(l_local, 1e-12)
        if t >= cfg.reward.tau and len(self.history) >= 3:
            fit = fit_exponential(self.history)
            if fit.fit_valid:
                est = estimate_loss(fit, t)
                if est > 0:
                    l_est = est
                    l_ref = est
        mu_a = float(np.mean(fractions))
        r = compute_reward(l_agg, l_ref, mu_a, cfg.reward, t)
        _require_finite(where, l_agg=l_agg, l_local=l_local, l_ref=l_ref, reward=r)
        self.history.append(t, l_local)
        self.pending = (state.as_array(), fractions, r)

        fragment = {
            "client": int(part.client_id),
            "state": state.as_array().tolist(),
            "fractions": fractions.tolist(),
            "samples_used": int(len(sel)),
            "train_size": int(part.train_size),
            "reward": r,
            "l_agg": l_agg,
            "l_local": l_local,
            "l_est": l_est,
        }
        return w_new, fragment

    def finish(self, w_global, part, x, y) -> None:
        idx = part.all_train_indices()
        state, _ = compute_state(w_global, self.arch, x[idx], y[idx])
        self._complete_pending(state, terminal=True)


def run_federated(cfg: ExperimentConfig) -> RunResult:
    """Execute the full FL simulation plus post-FL fine-tuning."""
    cfg.validate()
    if cfg.dataset_csv:
        ds = data_mod.load_csv(cfg.dataset_csv)
    else:
        ds = data_mod.generate_synthetic(
            cfg.n_classes, cfg.n_per_class, cfg.feature_dim, cfg.spread, cfg.seed_data
        )
    raw_parts = data_mod.dirichlet_partition(ds, cfg.n_clients, cfg.dirichlet_alpha, cfg.seed_data)
    parts = [
        data_mod.train_val_split(p, cfg.split_ratio, _derived_seed(cfg.seed_data, 17, p.client_id))
        for p in raw_parts
    ]
    arch = [ds.features.shape[1], *cfg.hidden_dims, ds.n_classes]
    init_rng = np.random.default_rng(cfg.seed_init)
    global_params = Mlp.init_glorot(arch, init_rng).params
    server = ServerState(global_params)
    rng_sampling = np.random.default_rng(cfg.seed_sampling)

    opt = None
    if cfg.optimized_client is not None:
        # Its state needs training rows and its fine-tune validation rows.
        part = parts[cfg.optimized_client]
        if part.train_size == 0 or len(part.val_indices) == 0:
            split = "training" if part.train_size == 0 else "validation"
            raise ValueError(f"client {part.client_id}: the optimized client has no {split} rows")
        opt = _OptimizedClient(cfg, arch)

    x, y = ds.features, ds.labels
    # Per-round evaluation covers every client with validation rows at once:
    # their rows back to back, and each row's slot in `val_parts`.
    val_parts = [p for p in parts if len(p.val_indices)]
    if not val_parts:
        names = ", ".join(f"client {p.client_id}" for p in parts)
        raise ValueError(f"no client has validation rows to evaluate ({names})")
    val_rows = np.concatenate([p.val_indices for p in val_parts])
    val_slots = np.repeat(np.arange(len(val_parts)), [len(p.val_indices) for p in val_parts])
    val_y = y[val_rows]
    records: list[RoundRecord] = []
    client_params: dict[int, np.ndarray] = {}

    for t in range(cfg.rounds):
        sampled = sample_clients(cfg.n_clients, cfg.c_ratio, rng_sampling)
        updates = []
        opt_fragment = None
        for k in sampled:
            part = parts[k]
            if part.train_size == 0:
                continue
            if opt is not None and k == cfg.optimized_client:
                w_k, opt_fragment = opt.round(server.global_params, part, x, y, t)
                n_used = opt_fragment["samples_used"]
            else:
                idx = part.all_train_indices()
                w_k = _train_client(cfg, arch, server.global_params, x[idx], y[idx], t, k)
                n_used = len(idx)
            client_params[k] = w_k
            updates.append(ClientUpdate(k, w_k, n_used))
        aggregate(
            cfg.aggregation, updates, server,
            beta=cfg.fedavgm_beta, server_lr=cfg.fedavgm_server_lr, cda_depth=cfg.cda_depth,
        )
        _require_finite(f"round {t}: server", parameters=server.global_params)

        cms = evaluate(Mlp(arch, server.global_params), x, val_y, val_rows, val_slots,
                       len(val_parts))
        p, r, f1 = (m.mean(axis=-1) for m in class_prf1(cms))
        client_metrics = [
            {
                "client": part.client_id,
                "accuracy": float(acc_g),
                "precision": float(p_g),
                "recall": float(r_g),
                "f1": float(f1_g),
            }
            for part, acc_g, p_g, r_g, f1_g in zip(val_parts, accuracy(cms), p, r, f1)
        ]
        records.append(RoundRecord(t, sampled, client_metrics, opt_fragment, cfg.aggregation))

    finetune_trace: list[dict] = []
    finetuned = None
    if opt is not None:
        part = parts[cfg.optimized_client]
        opt.finish(server.global_params, part, x, y)
        idx = part.all_train_indices()
        ft_rng = np.random.default_rng(_derived_seed(cfg.seed_data, 53))
        finetuned, finetune_trace = post_fl_finetune(
            arch, server.global_params, x[idx], y[idx],
            x[part.val_indices], y[part.val_indices],
            cfg.batch_size, cfg.lr, cfg.finetune_patience, cfg.finetune_max_epochs, ft_rng,
        )
    return RunResult(server.global_params, client_params, records, finetune_trace, finetuned, arch)
