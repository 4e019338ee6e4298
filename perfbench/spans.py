"""Span tracing from outside the program, and the per-layer metrics.

`Tracer` swaps a function attribute for a wrapper that records a span
(name, start, end, parent span, and a figure taken from the call) and puts
the original back on `restore`. `trace_fedopt` wraps the public functions of
each fedopt module at the names through which `fedopt.cli`,
`fedopt.orchestrator` and `fedopt.agent` call them; the program itself is
not changed. `layer_metrics` turns the spans of several traced runs into the
per-layer figures listed in `PER_LAYER`.
"""

from __future__ import annotations

import functools
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    info: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans around wrapped callables; `restore` unwraps them."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def wrap(self, owner, attr: str, name: str, info: Callable | None = None) -> None:
        """Replace `owner.attr` by a recording wrapper.

        `info(args, kwargs, result)` computes the figure kept with the span.
        """
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(Span(name, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(idx)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx].start, spans[idx].end = start, end
            if info is not None:
                spans[idx].info = info(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a new list."""
        taken = list(self.spans)
        self.spans.clear()
        return taken

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def ancestry(spans: list[Span]) -> list[frozenset]:
    """For each span, the names of all spans enclosing it."""
    out: list[frozenset] = []
    for s in spans:
        p = s.parent
        out.append(out[p] | {spans[p].name} if p >= 0 else frozenset())
    return out


def select(spans: list[Span], anc: list[frozenset], names, *, under=(), parent=None,
           not_under=()) -> list[Span]:
    """Outermost spans named in `names`; `anc` is `ancestry(spans)`.

    A span nested in another span of `names` is left out, so summing the
    result never counts an interval twice. `under` requires an ancestor with
    one of those names, `parent` names the direct parent, and `not_under`
    excludes spans below any of its names.
    """
    names = frozenset(names)
    return [
        s for s, a in zip(spans, anc)
        if s.name in names
        and not (a & names or a.intersection(not_under))
        and (not under or a.intersection(under))
        and (parent is None or (s.parent >= 0 and spans[s.parent].name == parent))
    ]


def total(spans: list[Span]) -> float:
    return sum(s.duration for s in spans)


# -- fedopt --------------------------------------------------------------

NN = ("forward", "cross_entropy_loss", "backward", "sgd_step")
ACT = ("agent.policy_action", "agent.normalized_action",
       "agent.weighted_metric_action", "agent.epsilon_greedy_select")
LEARN = ("agent.critic_update", "agent.critic_update_nstep",
         "agent.actor_update", "agent.soft_update")
EVAL = ("metrics.evaluate", "metrics.class_prf1", "metrics.accuracy")
PARTITION = ("data.generate_synthetic", "data.dirichlet_partition", "data.train_val_split")
LAYERS = ("cli", "config", "orchestrator", "nn", "metrics", "agent", "reward", "data",
          "aggregation")
STRATEGIES = ("fedavg", "fedavgm", "fedmedian", "fedprox", "fedcda")


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def trace_fedopt(tracer: Tracer, captured: dict) -> None:
    """Wrap fedopt's public functions where cli, orchestrator and agent call them.

    The most recent `aggregate` call's client updates and the global
    parameters it returned are kept in `captured` for `time_strategies`.
    """
    from fedopt import agent, cli, data, orchestrator

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "parse_config", "config.parse_config")
    tracer.wrap(cli, "run_federated", "orchestrator.run_federated")
    for fn in ("generate_synthetic", "dirichlet_partition", "train_val_split",
               "action_partition"):
        tracer.wrap(data, fn, f"data.{fn}")
    tracer.wrap(orchestrator, "sample_clients", "orchestrator.sample_clients")
    tracer.wrap(orchestrator, "client_local_train", "orchestrator.client_local_train",
                lambda a, k, r: (_arg(a, k, 4, "epochs"), len(_arg(a, k, 3, "y"))))
    tracer.wrap(orchestrator, "dataset_loss", "orchestrator.dataset_loss")
    tracer.wrap(orchestrator, "post_fl_finetune", "orchestrator.post_fl_finetune",
                lambda a, k, r: len(r[1]))
    tracer.wrap(orchestrator._OptimizedClient, "round", "orchestrator.opt_round")
    tracer.wrap(orchestrator._OptimizedClient, "finish", "orchestrator.opt_finish")

    def keep_updates(a, k, r):
        captured["updates"] = list(_arg(a, k, 1, "updates"))
        captured["global_params"] = r
        return None

    tracer.wrap(orchestrator, "aggregate", "aggregation.aggregate", keep_updates)
    tracer.wrap(orchestrator, "evaluate", "metrics.evaluate",
                lambda a, k, r: len(_arg(a, k, 2, "y")))
    for fn in ("class_prf1", "accuracy", "compute_state"):
        tracer.wrap(orchestrator, fn, f"metrics.{fn}")
    tracer.wrap(orchestrator, "fit_exponential", "reward.fit_exponential",
                lambda a, k, r: bool(r.fit_valid))
    for fn in ("estimate_loss", "compute_reward"):
        tracer.wrap(orchestrator, fn, f"reward.{fn}")
    for fn in ACT + LEARN:
        tracer.wrap(agent, fn.split(".")[1], fn)
    for owner in (orchestrator, agent):
        for fn in NN:
            if hasattr(owner, fn):
                tracer.wrap(owner, fn, f"nn.{fn}")


# name -> (unit, better, what it should move, on which workloads)
PER_LAYER = {
    "nn.step_us": ("us", "lower", "run_s", "quickstart, agent_long; less on cross_device"),
    "nn.steps": ("count", "lower", "run_s", "quickstart, agent_long; less on cross_device"),
    "orchestrator.train_epoch_ms": ("ms", "lower", "run_s", "quickstart"),
    "orchestrator.train_samples": ("count", "lower", "run_s", "quickstart"),
    "orchestrator.loop_self_ms": ("ms", "lower", "run_s", "cross_device"),
    "orchestrator.finetune_ms": ("ms", "lower", "nothing (<=1.5% everywhere)", "none"),
    "orchestrator.finetune_epochs": ("count", "lower", "nothing (<=1.5% everywhere)", "none"),
    "metrics.eval_round_ms": ("ms", "lower", "run_s", "cross_device"),
    "metrics.eval_rows_per_s": ("1/s", "higher", "run_s", "cross_device"),
    "metrics.compute_state_ms": ("ms", "lower", "run_s", "agent_long"),
    "agent.act_us": ("us", "lower", "run_s", "agent_long"),
    "agent.learn_ms": ("ms", "lower", "run_s", "agent_long"),
    "agent.updates": ("count", "higher", "run_s", "agent_long"),
    "agent.update_ratio": ("ratio", "higher", "run_s", "agent_long"),
    "reward.fit_ms": ("ms", "lower", "run_s", "agent_long"),
    "reward.fit_valid_ratio": ("ratio", "higher", "run_s", "agent_long"),
    "data.action_partition_us": ("us", "lower", "run_s", "agent_long"),
    "data.partition_ms": ("ms", "lower", "setup_s", "mostly cross_device"),
    "aggregation.round_ms": ("ms", "lower", "run_s", "cross_device"),
    **{f"aggregation.{s}_us": ("us", "lower", "nothing (direct calls)", "none")
       for s in STRATEGIES},
    "cli.write_ms": ("ms", "lower", "run_s", "cross_device"),
    "cli.rounds_bytes": ("bytes", "lower", "run_s", "cross_device"),
    "config.parse_ms": ("ms", "lower", "setup_s", "all"),
    **{f"{layer}.self_ms": ("ms", "lower", "run_s", "where the layer's share is largest")
       for layer in LAYERS},
    "trace.overhead_ms": ("ms", "lower", "nothing (traced runs only)", "none"),
}


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_figures(spans: list[Span]) -> dict[str, float]:
    """Per-run totals and counts of one traced `cli.main` run."""
    anc = ancestry(spans)
    clt = "orchestrator.client_local_train"
    steps_nn = select(spans, anc, [f"nn.{f}" for f in NN], under=[clt])
    train = select(spans, anc, [clt], not_under=["orchestrator.post_fl_finetune"])
    evals = select(spans, anc, EVAL, parent="orchestrator.run_federated")
    fits = select(spans, anc, ["reward.fit_exponential"])
    finetune = select(spans, anc, ["orchestrator.post_fl_finetune"])
    selfs = self_times(spans)
    fig = {
        "steps": len(select(spans, anc, ["nn.sgd_step"], under=[clt])),
        "step_s": total(steps_nn),
        "train_s": total(train),
        "train_epochs": sum(s.info[0] for s in train),
        "train_samples": sum(s.info[0] * s.info[1] for s in train),
        "finetune_s": total(finetune),
        "finetune_epochs": sum(s.info for s in finetune),
        "eval_s": total(evals),
        "eval_rows": sum(s.info for s in evals if s.name == "metrics.evaluate"),
        "state_s": total(select(spans, anc, ["metrics.compute_state"])),
        "states": len(select(spans, anc, ["metrics.compute_state"])),
        "act_s": total(select(spans, anc, ACT)),
        "opt_rounds": len(select(spans, anc, ["orchestrator.opt_round"])),
        "learn_s": total(select(spans, anc, LEARN)),
        "updates": len(select(spans, anc, ["agent.actor_update"])),
        "fit_s": total(fits),
        "fits": len(fits),
        "fits_valid": sum(1 for s in fits if s.info),
        "action_partition_s": total(select(spans, anc, ["data.action_partition"])),
        "action_partitions": len(select(spans, anc, ["data.action_partition"])),
        "partition_s": total(select(spans, anc, PARTITION)),
        "aggregate_s": total(select(spans, anc, ["aggregation.aggregate"])),
        "aggregates": len(select(spans, anc, ["aggregation.aggregate"])),
        "parse_s": total(select(spans, anc, ["config.parse_config"])),
        "parses": len(select(spans, anc, ["config.parse_config"])),
        "main_s": total(select(spans, anc, ["cli.main"])),
        "run_federated_s": total(select(spans, anc, ["orchestrator.run_federated"])),
        "loop_self_s": sum(
            t for s, t in zip(spans, selfs) if s.name == "orchestrator.run_federated"
        ),
    }
    for layer in LAYERS:
        fig[f"{layer}.self_s"] = sum(
            t for s, t in zip(spans, selfs) if s.name.split(".")[0] == layer
        )
    return fig


def layer_metrics(runs: list[dict], rounds: int, untraced_s: list[float],
                  strategy_us: dict[str, float], rounds_bytes: int) -> dict[str, float]:
    """Per-layer metrics from the `run_figures` of several traced runs.

    Per-call times pool all runs (total time over total calls); per-run
    times are medians over runs; counts and ratios come from the first run,
    so they repeat exactly for a given seed.
    """
    def pooled(time_key: str, count_key: str, scale: float) -> float:
        return _per(sum(r[time_key] for r in runs), sum(r[count_key] for r in runs)) * scale

    def median(key: str, scale: float = 1e3) -> float:
        return median_or_zero([r[key] for r in runs]) * scale

    first = runs[0]
    out = {
        "nn.step_us": pooled("step_s", "steps", 1e6),
        "nn.steps": first["steps"],
        "orchestrator.train_epoch_ms": pooled("train_s", "train_epochs", 1e3),
        "orchestrator.train_samples": first["train_samples"],
        "orchestrator.loop_self_ms": median("loop_self_s"),
        "orchestrator.finetune_ms": median("finetune_s"),
        "orchestrator.finetune_epochs": first["finetune_epochs"],
        "metrics.eval_round_ms": median("eval_s") / rounds,
        "metrics.eval_rows_per_s": pooled("eval_rows", "eval_s", 1.0),
        "metrics.compute_state_ms": pooled("state_s", "states", 1e3),
        "agent.act_us": pooled("act_s", "opt_rounds", 1e6),
        "agent.learn_ms": pooled("learn_s", "updates", 1e3),
        "agent.updates": first["updates"],
        "agent.update_ratio": _per(first["updates"], first["opt_rounds"]),
        "reward.fit_ms": pooled("fit_s", "fits", 1e3),
        "reward.fit_valid_ratio": _per(first["fits_valid"], first["fits"]),
        "data.action_partition_us": pooled("action_partition_s", "action_partitions", 1e6),
        "data.partition_ms": median("partition_s"),
        "aggregation.round_ms": pooled("aggregate_s", "aggregates", 1e3),
        **{f"aggregation.{s}_us": strategy_us[s] for s in STRATEGIES},
        "cli.write_ms": median_or_zero([r["main_s"] - r["run_federated_s"] for r in runs]) * 1e3,
        "cli.rounds_bytes": rounds_bytes,
        "config.parse_ms": pooled("parse_s", "parses", 1e3),
        **{f"{layer}.self_ms": median(f"{layer}.self_s") for layer in LAYERS},
        "trace.overhead_ms": (median("main_s", 1.0) - median_or_zero(untraced_s)) * 1e3,
    }
    return out


def time_strategies(captured: dict, repeats: int) -> dict[str, float]:
    """Median microseconds of one direct `aggregate` call per strategy.

    Each strategy aggregates the captured client updates onto a server
    state built from the captured global parameters; the state is reused
    across repeats, so fedcda times a full per-client model cache.
    """
    from fedopt.aggregation import ServerState, aggregate

    out = {}
    for strategy in STRATEGIES:
        state = ServerState(captured["global_params"].copy())
        times = []
        for _ in range(repeats):
            state.global_params = captured["global_params"]
            t0 = perf_counter()
            aggregate(strategy, captured["updates"], state)
            times.append(perf_counter() - t0)
        out[strategy] = statistics.median(times) * 1e6
    return out
