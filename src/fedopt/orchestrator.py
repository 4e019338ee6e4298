"""Federated round loop, client training, post-FL fine-tuning, and the
performance-bound calculator.

One client ("optimized") chooses per-class training-data fractions through
a DDPG agent each round; every other ("naive") client trains on its full
local train split. All randomness flows from four streams of `seed` (data,
init, agent, sampling: seed + 0..3), so equal configs replay bit-identically.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import agent as agent_mod
from . import data as data_mod
from .aggregation import ClientUpdate, ServerState, STRATEGIES, aggregate
from .agent import ACTION_STRATEGIES, ActorCritic, AgentConfig, ReplayBuffer
from .metrics import accuracy, class_prf1, compute_state, evaluate
from .nn import Mlp, backward, cross_entropy_grad, cross_entropy_loss, forward, sgd_step
from .reward import LossHistory, RewardConfig, compute_reward, estimate_loss, fit_exponential

# A fitted reference loss at or below this share of the measured local loss
# is a fit decaying toward 0; as the reward's denominator it would let the
# reward grow without bound, so the measured loss is the reference instead.
FIT_FLOOR = 1e-3


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
    seed: int = 0  # data stream seed, init seed + 1, agent seed + 2, sampling seed + 3
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
        if self.finetune_patience < 1 or self.finetune_max_epochs < 0:
            raise ValueError("need finetune_patience >= 1 and finetune_max_epochs >= 0")
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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
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


# The scores of one client in one round, in the order of the last axis of
# RunResult.metrics.
METRICS = ("accuracy", "precision", "recall", "f1")


@dataclass
class RoundRecord:
    round: int
    sampled: list[int]
    metrics: np.ndarray  # (len(evaluated), len(METRICS)): this round's row of RunResult.metrics
    evaluated: list[int]  # the ids of the clients with validation rows
    optimized: dict | None
    aggregation: str

    def __eq__(self, other):  # the generated == would raise on the metrics array
        return isinstance(other, RoundRecord) and np.array_equal(self.metrics, other.metrics) and (
            {**vars(self), "metrics": None} == {**vars(other), "metrics": None})

    @property
    def client_metrics(self) -> list[dict]:
        """One dict per evaluated client, its id and METRICS, as rounds.jsonl holds them."""
        return [{"client": k, "accuracy": a, "precision": p, "recall": r, "f1": f1}
                for k, (a, p, r, f1) in zip(self.evaluated, self.metrics.tolist())]


@dataclass
class RunResult:
    final_global: np.ndarray
    client_params: dict[int, np.ndarray]
    rounds: list[RoundRecord]
    metrics: np.ndarray  # (rounds, len(evaluated), len(METRICS)) float64
    evaluated: list[int]  # the ids of the clients with validation rows
    finetune_trace: list[dict]


def sample_clients(n_clients: int, c_ratio: float, rng: np.random.Generator) -> list[int]:
    # ceil(c_ratio * n_clients) in integers on the decimal ratio as written
    # (its shortest repr): the float product 0.07 * 100 is 7.000000000000001.
    # Not Fraction: importing fractions (and decimal) adds about 0.35 MB to
    # the peak RSS and 5 ms to the start of every run.
    mantissa, _, exp = repr(float(c_ratio)).partition("e")
    whole, _, frac = mantissa.partition(".")
    size = -(-int(whole + frac) * n_clients // 10 ** (len(frac) - int(exp or 0)))
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
    if not np.all((0 <= small) & (small <= big) & (big <= 1)):  # NaN fails too
        raise ValueError("need 0 <= z_c <= Z_c <= 1")
    p_full = math.pi * float(np.sum(big**2))
    p_sel = math.pi * float(np.sum(small**2))
    return p_full, p_sel, math.pi * float(np.sum(big**2 - small**2))


def _require_finite(where: str, **values) -> None:
    """Stop a diverged run: every value must be finite."""
    for name, value in values.items():
        if not (math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all()):
            raise ValueError(f"{where}: non-finite {name} (diverged)")


def _derived_seed(*keys: int) -> int:
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), fixed by NEP 19's
# stream policy. The hash constants step as Python ints mod 2**32 and meet
# only uint32 arrays: numpy warns when a uint32 scalar product overflows,
# never when an array's does.
_POOL_SIZE = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
# At most this many (round, client) batch-order streams are derived at once.
_STREAM_BLOCK = 4096


def _seed_words(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """`SeedSequence(list(column)).generate_state(n_words)` of every column at once.

    `entropy` is an (L, N) uint32 array, L >= 1; returns an (n_words, N) uint32 array.
    """
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & 0xFFFFFFFF
        value = value * np.uint32(hash_const)
        return value ^ (value >> _SHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        value = _MIX_MULT_L * x - _MIX_MULT_R * y
        return value ^ (value >> _SHIFT)

    words = list(entropy)
    words += [np.zeros_like(words[0])] * (_POOL_SIZE - len(words))
    pool = [hashmix(w) for w in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(w))
    out = np.empty((n_words, entropy.shape[1]), dtype=np.uint32)
    hash_const = _INIT_B
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & 0xFFFFFFFF
        value *= np.uint32(hash_const)
        out[i] = value ^ (value >> _SHIFT)
    return out


class _StateWords(np.random.bit_generator.ISeedSequence):
    """Hands a bit generator the state words a SeedSequence would have generated."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _batch_order_states(seed: int, t: np.ndarray, k: np.ndarray) -> np.ndarray:
    """PCG64's seed words of `default_rng(_derived_seed(seed, 29, t[i], k[i]))` for each i.

    `t` and `k` are equal-length uint32 arrays; returns a (len(t), 4) uint64
    array. SeedSequence reads `seed` as little-endian 32-bit words, one word for 0.
    """
    seed_words = [seed >> s & 0xFFFFFFFF for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy = np.empty((len(seed_words) + 3, len(t)), dtype=np.uint32)
    entropy[: len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
    entropy[-3] = 29
    entropy[-2] = t
    entropy[-1] = k
    derived = _seed_words(entropy, 1)  # each key's _derived_seed
    # PCG64 asks its seed sequence for 4 uint64: 8 words read as little-endian pairs.
    return np.ascontiguousarray(_seed_words(derived, 8).T, dtype="<u4").view("<u8").astype(
        np.uint64)


def _sampled_rounds(cfg: ExperimentConfig, rng_sampling: np.random.Generator):
    """Yields each round's (t, sampled clients, their batch-order generators by id).

    Rounds are sampled, and their streams derived, a block of rounds at a
    time; `rng_sampling` feeds nothing else, so every draw is as if per round.
    """
    per_block = max(1, _STREAM_BLOCK // cfg.n_clients)  # n_clients bounds a round's sample
    for t0 in range(0, cfg.rounds, per_block):
        block = [sample_clients(cfg.n_clients, cfg.c_ratio, rng_sampling)
                 for _ in range(t0, min(cfg.rounds, t0 + per_block))]
        rounds = np.repeat(np.arange(t0, t0 + len(block), dtype=np.uint32), list(map(len, block)))
        clients = np.fromiter(itertools.chain.from_iterable(block), dtype=np.uint32)
        states = iter(_batch_order_states(cfg.seed, rounds, clients))
        for t, sampled in enumerate(block, t0):
            yield t, sampled, {k: np.random.Generator(np.random.PCG64(_StateWords(next(states))))
                               for k in sampled}


def client_local_train(
    arch: list[int],
    w_init: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    epochs: int,
    batch_size: int,
    lr: float,
    rngs: list[np.random.Generator],
    sizes: list[int],
    prox_mu: float = 0.0,
    w_global: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Mini-batch SGD from w_init for K clients in lockstep; returns one new vector each.

    `x` and `y` hold the clients' rows back to back, `sizes[c]` rows for client
    c, who draws one permutation of its rows per epoch from `rngs[c]`. At each
    batch offset the clients with 2 or more rows left take one stacked step on
    exactly `batch_size` rows, padded with rows of zero gradient; those with 1
    row left take a second, unpadded one. Each client ends bit-identical to
    serial SGD padded the same way, and to unpadded serial SGD on OpenBLAS's
    SkylakeX kernel (a few ulps off on others). An optional proximal term
    pulls toward w_global.
    """
    if len(sizes) == 0 or min(sizes) < 1:
        raise ValueError("empty training subset")
    if sum(sizes) != len(y) or len(rngs) != len(sizes):
        raise ValueError(f"sizes {sizes} need {sum(sizes)} rows and {len(sizes)} rngs")
    order = sorted(range(len(sizes)), key=lambda k: -sizes[k])  # stable: largest first
    starts = list(itertools.accumulate(sizes, initial=0))
    n = [sizes[k] for k in order]
    stack = np.repeat(np.asarray(w_init, dtype=np.float64)[None], len(n), axis=0)
    # At each offset the clients with 2 or more rows left are a prefix of this
    # order and those with 1 row left come next, so each step trains one
    # contiguous slice of the stack. A client's own steps stay in order.
    models: dict[tuple[int, int], Mlp] = {}
    steps = []  # (model, its rows of the stack, batch offset, width, real rows or None)
    for i in range(0, n[0], batch_size):
        real = [min(batch_size, v - i) for v in n if v > i]
        padded = sum(m > 1 for m in real)
        for a, b, width in ((0, padded, batch_size), (padded, len(real), 1)):
            if a == b:
                continue
            rows = a if b - a == 1 else slice(a, b)  # a step of one client drops the client axis
            if (a, b) not in models:
                models[a, b] = Mlp(arch, stack[rows])
            counts = np.array(real[rows]) if min(real[a:b]) < width else None
            steps.append((models[a, b], rows, i, width, counts))
    # Row c holds client order[c]'s permuted rows of x; the zeros past its first
    # n[c] pad its last batch with row 0 of x.
    perm = np.zeros((len(n), -(-n[0] // batch_size) * batch_size), dtype=np.intp)
    acts: list = []  # each step's forward pass refills it
    # A diverging client overflows to inf and NaN here; the caller's finite
    # check reports it, so numpy's warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(epochs):
            for c, k in enumerate(order):
                np.add(starts[k], rngs[k].permutation(n[c]), out=perm[c, : n[c]])
            for model, rows, i, width, counts in steps:
                batch = perm[rows, i : i + width]
                logits = forward(model, x[batch], acts)
                grads = backward(model, acts, cross_entropy_grad(logits, y[batch], counts))
                if prox_mu > 0.0 and w_global is not None:
                    grads += prox_mu * (model.params - w_global)
                sgd_step(model.params, grads, lr)
    return [stack[c].copy() for c in np.argsort(order)]


def dataset_loss(arch: list[int], params: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    return cross_entropy_loss(forward(Mlp(arch, params), x), y)


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
        (params,) = client_local_train(arch, params, x_train, y_train, 1, batch_size, lr, [rng],
                                       [len(y_train)])
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
    """The optimized client end to end: RL rounds, terminal transition, fine-tune."""

    def __init__(self, cfg: ExperimentConfig, arch: list[int], part, x: np.ndarray, y: np.ndarray):
        # Its state needs training rows and its fine-tune validation rows.
        if part.train_size == 0 or len(part.val_indices) == 0:
            split = "training" if part.train_size == 0 else "validation"
            raise ValueError(f"client {part.client_id}: the optimized client has no {split} rows")
        self.cfg, self.arch, self.part, self.x, self.y = cfg, arch, part, x, y
        idx = part.all_train_indices()
        self.xt, self.yt = x[idx], y[idx]
        self.ac = ActorCritic(arch[-1], cfg.agent, np.random.default_rng(cfg.seed + 2))
        # A run pushes at most one transition a round.
        self.buffer = ReplayBuffer(cfg.rounds, arch[-1], _derived_seed(cfg.seed + 2, 1))
        self.rng = np.random.default_rng(_derived_seed(cfg.seed + 2, 2))
        self.history = LossHistory()
        self.states: list[np.ndarray] = []  # the state of each round in history.rounds
        self.pending: tuple[np.ndarray, np.ndarray, float] | None = None
        self.picked: tuple | None = None  # round's (t, state, l_agg, fractions, rows) for end_round

    def _complete_pending(self, next_state: np.ndarray, terminal: bool = False) -> None:
        if self.pending is None:
            return
        self.buffer.push(*self.pending, next_state, terminal)
        self.pending = None
        self._learn()

    def _learn(self) -> None:
        cfg = self.cfg.agent
        if len(self.buffer) < cfg.batch_size:
            return
        batch = self.buffer.sample(cfg.batch_size)
        agent_mod.critic_update(self.ac, batch)
        agent_mod.actor_update(self.ac, batch[0])
        agent_mod.soft_update(self.ac)

    def _explore_action(self, raw: np.ndarray, state: np.ndarray, t: int) -> np.ndarray:
        if self.cfg.action_strategy == "normalized":
            return agent_mod.normalized_action(raw, self.part.class_counts, self.part.train_size)
        # The latest earlier round at or before t - eta; none yet -> this round's state.
        i = bisect.bisect_right(self.history.rounds, max(0, t - self.cfg.agent.eta))
        return agent_mod.weighted_metric_action(raw, state, self.states[i - 1] if i else state)

    def round(self, w_global: np.ndarray, t: int) -> np.ndarray:
        """Pick round t's per-class fractions; returns the training rows they select."""
        cfg, part = self.cfg, self.part
        state, l_agg = compute_state(w_global, self.arch, self.xt, self.yt)
        self._complete_pending(state)

        if cfg.action_strategy == "full":
            fractions = np.ones(part.n_classes)
        else:
            raw = agent_mod.policy_action(self.ac, state)
            explore = self._explore_action(raw, state, t)
            eps = cfg.agent.epsilon_at(t, cfg.rounds)
            fractions = agent_mod.epsilon_greedy_select(explore, raw, eps, self.rng)
        _require_finite(f"round {t}: client {part.client_id}", fractions=fractions)

        sel = data_mod.action_partition(part, fractions, _derived_seed(cfg.seed, 41, t))
        self.picked = (t, state, l_agg, fractions, len(sel))
        return sel

    def end_round(self, w_new: np.ndarray) -> dict:
        """Score the round begun by `round` from its trained params; returns the record fragment.

        From round reward.tau on, the reward's reference loss is the fit's
        estimate for round t if the fit is valid and the estimate exceeds
        FIT_FLOOR * l_local; otherwise it is the measured l_local.
        """
        cfg, part = self.cfg, self.part
        t, state, l_agg, fractions, n_used = self.picked
        l_local = dataset_loss(self.arch, w_new, self.xt, self.yt)

        l_est = None
        l_ref = max(l_local, 1e-12)
        if t >= cfg.reward.tau and len(self.history) >= 3:
            fit = fit_exponential(self.history)
            if fit.fit_valid:
                est = estimate_loss(fit, t)
                if est > FIT_FLOOR * l_local:
                    l_est = l_ref = est
        mu_a = float(np.mean(fractions))
        r = compute_reward(l_agg, l_ref, mu_a, cfg.reward)
        _require_finite(f"round {t}: client {part.client_id}", l_agg=l_agg, l_local=l_local,
                        l_ref=l_ref, reward=r)
        self.history.append(t, l_local)
        self.states.append(state)
        self.pending = (state, fractions, r)

        return {
            "client": int(part.client_id),
            "state": state.tolist(),
            "fractions": fractions.tolist(),
            "samples_used": n_used,
            "train_size": int(part.train_size),
            "reward": r,
            "l_agg": l_agg,
            "l_local": l_local,
            "l_est": l_est,
        }

    def finish(self, w_global: np.ndarray) -> tuple[np.ndarray, list[dict]]:
        """Push the terminal transition; returns post_fl_finetune's (params, trace)."""
        cfg, val = self.cfg, self.part.val_indices
        state, _ = compute_state(w_global, self.arch, self.xt, self.yt)
        self._complete_pending(state, terminal=True)
        return post_fl_finetune(
            self.arch, w_global, self.xt, self.yt, self.x[val], self.y[val], cfg.batch_size,
            cfg.lr, cfg.finetune_patience, cfg.finetune_max_epochs,
            np.random.default_rng(_derived_seed(cfg.seed, 53)))


def run_federated(cfg: ExperimentConfig) -> RunResult:
    """Execute the full FL simulation plus post-FL fine-tuning.

    Each round stops a diverged run at the first of these checks to fail: the
    optimized client's fractions, before training; every sampled client's
    parameters, in sampled order; the optimized client's losses and reward.
    """
    cfg.validate()
    if cfg.dataset_csv:
        ds = data_mod.load_csv(cfg.dataset_csv)
    else:
        ds = data_mod.generate_synthetic(
            cfg.n_classes, cfg.n_per_class, cfg.feature_dim, cfg.spread, cfg.seed
        )
    raw_parts = data_mod.dirichlet_partition(ds, cfg.n_clients, cfg.dirichlet_alpha, cfg.seed)
    parts = [
        data_mod.train_val_split(p, cfg.split_ratio, _derived_seed(cfg.seed, 17, p.client_id))
        for p in raw_parts
    ]
    arch = [ds.features.shape[1], *cfg.hidden_dims, ds.n_classes]
    init_rng = np.random.default_rng(cfg.seed + 1)
    global_params = Mlp.init_glorot(arch, init_rng).params
    server = ServerState(global_params)
    rng_sampling = np.random.default_rng(cfg.seed + 3)

    x, y = ds.features, ds.labels
    opt = (None if cfg.optimized_client is None
           else _OptimizedClient(cfg, arch, parts[cfg.optimized_client], x, y))

    # Per-round evaluation covers every client with validation rows at once:
    # their rows back to back, and each row's slot in `val_parts`. The naive
    # mean that summary.csv compares against needs at least one naive client.
    val_parts = [p for p in parts if len(p.val_indices)]
    if all(p.client_id == cfg.optimized_client for p in val_parts):
        naive = [f"client {p.client_id}" for p in parts if p.client_id != cfg.optimized_client]
        names = ", ".join(naive) or f"client {cfg.optimized_client} is the only client"
        raise ValueError(f"no naive client has validation rows to evaluate ({names})")
    val_rows = np.concatenate([p.val_indices for p in val_parts])
    val_slots = np.repeat(np.arange(len(val_parts)), [len(p.val_indices) for p in val_parts])
    val_y = y[val_rows]
    train_rows = [p.all_train_indices() for p in parts]
    evaluated = [p.client_id for p in val_parts]
    metrics = np.empty((cfg.rounds, len(val_parts), len(METRICS)))
    records: list[RoundRecord] = []
    client_params: dict[int, np.ndarray] = {}

    prox = cfg.prox_mu if cfg.aggregation == "fedprox" else 0.0
    for t, sampled, batch_order in _sampled_rounds(cfg, rng_sampling):
        # Every sampled client with training rows trains in one lockstep call, in
        # sampled order: a naive client on all its rows, the optimized client on
        # the rows its action selected.
        rows = {k: train_rows[k] for k in sampled if len(train_rows[k])}
        if not rows:
            names = ", ".join(f"client {k}" for k in sampled)
            raise ValueError(f"round {t}: no sampled client has training rows ({names})")
        opt_sampled = opt is not None and cfg.optimized_client in rows
        if opt_sampled:
            rows[cfg.optimized_client] = opt.round(server.global_params, t)
        gathered = np.concatenate(list(rows.values()))
        rngs = [batch_order[k] for k in rows]
        trained = client_local_train(
            arch, server.global_params, x[gathered], y[gathered], cfg.local_epochs,
            cfg.batch_size, cfg.lr, rngs, [len(r) for r in rows.values()], prox,
            server.global_params)
        updates = []
        for (k, rows_k), w_k in zip(rows.items(), trained):
            _require_finite(f"round {t}: client {k}", parameters=w_k)
            client_params[k] = w_k
            updates.append(ClientUpdate(k, w_k, len(rows_k)))
        opt_fragment = opt.end_round(client_params[cfg.optimized_client]) if opt_sampled else None
        aggregate(
            cfg.aggregation, updates, server,
            beta=cfg.fedavgm_beta, server_lr=cfg.fedavgm_server_lr, cda_depth=cfg.cda_depth,
        )
        _require_finite(f"round {t}: server", parameters=server.global_params)

        cms = evaluate(Mlp(arch, server.global_params), x, val_y, val_rows, val_slots,
                       len(val_parts))
        metrics[t] = np.column_stack([accuracy(cms), *(m.mean(axis=-1) for m in class_prf1(cms))])
        records.append(RoundRecord(t, sampled, metrics[t], evaluated, opt_fragment,
                                   cfg.aggregation))

    finetune_trace = [] if opt is None else opt.finish(server.global_params)[1]
    return RunResult(server.global_params, client_params, records, metrics, evaluated,
                     finetune_trace)
