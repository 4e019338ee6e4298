"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import time

import numpy as np
import pytest

from fedopt.agent import normalized_action, weighted_metric_action
from fedopt.aggregation import ClientUpdate, ServerState, fed_avg, fed_avg_m, fed_median
from fedopt.cli import main
from fedopt.data import dirichlet_partition, generate_synthetic
from fedopt.nn import Mlp
from fedopt.orchestrator import ExperimentConfig, compute_performance_bound, run_federated
from fedopt.reward import LossHistory, RewardConfig, compute_reward, fit_exponential
from tests.test_nn import analytic_param_grad, max_rel_err, numeric_param_grad


def report(name, ok=True):
    print(f"{'PASS' if ok else 'FAIL'} {name}")
    assert ok, name


def benchmark_cfg(**overrides):
    """Criterion-9 scenario: 4-class blobs, d=16, 400/class, K=8, T=30."""
    base = dict(
        n_clients=8, rounds=30, local_epochs=1, dirichlet_alpha=0.5,
        n_classes=4, n_per_class=400, feature_dim=16, spread=5.0,
        aggregation="fedavg", action_strategy="normalized", optimized_client=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def benchmark_runs():
    opt = run_federated(benchmark_cfg())
    ablation = run_federated(benchmark_cfg(optimized_client=None))
    return opt, ablation


def test_criterion_1_gradient_correctness():
    start = time.time()
    worst = 0.0
    for dims in ([2, 3, 2], [4, 8, 4], [5, 5]):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            m = Mlp.init_glorot(dims, rng)
            x = rng.normal(size=(8, dims[0]))
            y = rng.integers(0, dims[-1], size=8)
            worst = max(worst, max_rel_err(analytic_param_grad(m, x, y),
                                           numeric_param_grad(m, x, y)))
    elapsed = time.time() - start
    report(f"criterion 1: gradient check max rel err {worst:.2e} < 1e-4 "
           f"({elapsed:.1f}s < 10s)", worst < 1e-4 and elapsed < 10)


def test_criterion_2_aggregation_oracles():
    start = time.time()
    rng = np.random.default_rng(0)
    for _ in range(200):
        m = rng.integers(2, 7)
        mat = rng.normal(size=(m, 8))
        n = rng.integers(1, 50, size=m)
        ups = [ClientUpdate(i, mat[i], int(n[i])) for i in range(m)]
        oracle = sum(ni * row for ni, row in zip(n, mat)) / n.sum()
        assert np.max(np.abs(fed_avg(ups) - oracle)) < 1e-12
        med_oracle = np.array([np.median(np.sort(mat[:, j])) for j in range(8)])
        np.testing.assert_array_equal(fed_median(ups), med_oracle)
        state = ServerState(rng.normal(size=8))
        np.testing.assert_allclose(
            fed_avg_m(ups, state, beta=0.0, server_lr=1.0), fed_avg(ups), atol=1e-15
        )
    elapsed = time.time() - start
    report(f"criterion 2: aggregation oracles, 200 instances ({elapsed:.1f}s < 5s)",
           elapsed < 5)


def test_criterion_3_exponential_fit_recovery():
    start = time.time()
    t = np.arange(10)
    clean = LossHistory()
    for ti, yi in zip(t, 2.0 * np.exp(-0.1 * t)):
        clean.append(int(ti), float(yi))
    fit = fit_exponential(clean)
    rel_u = abs(fit.u + 2.0) / 2.0
    rel_v = abs(fit.v - 0.1) / 0.1
    errs = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        noisy = LossHistory()
        y = 2.0 * np.exp(-0.1 * t) * (1 + 0.05 * rng.standard_normal(10))
        for ti, yi in zip(t, y):
            noisy.append(int(ti), float(yi))
        errs.append(abs(fit_exponential(noisy).v - 0.1) / 0.1)
    elapsed = time.time() - start
    report(f"criterion 3: noiseless rel err (u={rel_u:.1e}, v={rel_v:.1e}) < 1e-3, "
           f"noisy median v err {np.median(errs):.3f} < 0.05 ({elapsed:.1f}s < 5s)",
           rel_u < 1e-3 and rel_v < 1e-3 and np.median(errs) < 0.05 and elapsed < 5)


def test_criterion_4_reward_properties():
    cfg = RewardConfig(lam=0.25)
    rng = np.random.default_rng(1)
    for _ in range(1000):
        l_ref = rng.uniform(0.1, 3.0)
        l_agg = rng.uniform(0.1, 3.0)
        mu = rng.uniform(0.3, 1.0)
        r = compute_reward(l_agg, l_ref, mu, cfg)
        if l_agg > l_ref:
            assert r > 0
        elif l_agg < l_ref:
            assert r < 0
        assert compute_reward(l_ref, l_ref, mu, cfg) == 0.0
    assert compute_reward(1.0, 0.5, 0.5, cfg) == 4.0
    grid = np.linspace(0.3, 1.0, 100)
    rewards = [compute_reward(1.0, 0.5, mu, cfg) for mu in grid]
    assert all(a > b for a, b in zip(rewards, rewards[1:]))
    report("criterion 4: reward sign/zero/hand-value/monotonicity on 10^3 grid")


def test_criterion_5_action_properties(benchmark_runs):
    opt, _ = benchmark_runs
    for rec in opt.rounds:
        assert all(0.0 < f <= 1.0 for f in rec.optimized["fractions"])
    a = np.array([0.2, 0.7, 0.4])
    counts = np.array([10, 40, 25])
    np.testing.assert_allclose(
        normalized_action(a, counts, 75), normalized_action(5.0 * a, counts, 75)
    )
    np.testing.assert_array_equal(
        normalized_action(np.full(4, 0.25), np.full(4, 25), 100), np.ones(4)
    )
    rng = np.random.default_rng(2)
    for _ in range(100):
        act = rng.uniform(0.1, 0.5, 4)
        now = rng.uniform(0, 1, 4)
        back = rng.uniform(0, 1, 4)
        out = weighted_metric_action(act, now, back)
        factors = out / act
        declined = now < back
        if declined.any() and (~declined).any():
            assert factors[declined].min() >= factors[~declined].max() - 1e-12
    report("criterion 5: emitted fractions in (0,1], scale invariance, "
           "weighted-metric ordering, uniform example")


def test_criterion_6_theorem_identity():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        big = rng.uniform(0, 1, rng.integers(1, 8))
        small = big * rng.uniform(0, 1, len(big))
        p_full, p_sel, omega = compute_performance_bound(big, small)
        assert abs((p_full - p_sel) - omega) < 1e-12
        assert omega >= 0
    _, _, omega = compute_performance_bound(np.array([1.0, 1.0]), np.array([0.5, 0.5]))
    assert omega == pytest.approx(1.5 * math.pi, abs=1e-12)
    report("criterion 6: P_k - P'_k == Omega on 10^3 pairs; Omega(1,1;0.5,0.5) = 1.5*pi")


def test_criterion_7_reductions():
    cfg_kwargs = dict(n_clients=3, rounds=4, n_classes=3, n_per_class=40,
                      feature_dim=4, spread=2.0, finetune_max_epochs=5,
                      finetune_patience=1)
    full = run_federated(ExperimentConfig(action_strategy="full", **cfg_kwargs))
    naive = run_federated(ExperimentConfig(optimized_client=None, **cfg_kwargs))
    for a, b in zip(full.rounds, naive.rounds):
        assert a.client_metrics == b.client_metrics
        assert a.sampled == b.sampled
    np.testing.assert_array_equal(full.final_global, naive.final_global)
    single = run_federated(ExperimentConfig(
        n_clients=1, rounds=2, optimized_client=None, n_classes=3, n_per_class=40,
        feature_dim=4, spread=2.0))
    np.testing.assert_array_equal(single.final_global, single.client_params[0])
    report("criterion 7: action==1 reduces to naive mode; K=1 FedAvg is identity")


def test_criterion_8_dirichlet_behavior():
    for seed in range(20):
        ds = generate_synthetic(3, 120, 2, 1.0, seed=seed)
        for p in dirichlet_partition(ds, 4, 1e6, seed=seed):
            if p.train_size:
                props = p.class_counts / p.train_size
                assert np.all(np.abs(props - 1 / 3) < 0.05)
    ds = generate_synthetic(4, 400, 2, 1.0, seed=0)
    parts = dirichlet_partition(ds, 8, 0.1, seed=0)
    skewed = any(
        p.train_size > 0 and np.sort(p.class_counts)[-2:].sum() / p.train_size > 0.5
        for p in parts
    )
    report("criterion 8: alpha=1e6 near-uniform over 20 seeds; alpha=0.1 "
           "produces a heavily skewed client", skewed)


def test_criterion_9_directional_reproduction(benchmark_runs):
    start = time.time()
    opt, ablation = benchmark_runs
    fractions = [r.optimized["samples_used"] / r.optimized["train_size"]
                 for r in opt.rounds if r.optimized]
    mean_fraction = float(np.mean(fractions))

    opt_fl_best = max(m["accuracy"] for r in opt.rounds
                      for m in r.client_metrics if m["client"] == 0)
    ft_best = max(e["val_accuracy"] for e in opt.finetune_trace)
    gain = ft_best - opt_fl_best

    def naive_mean_series(result):
        return np.array([
            np.mean([m["accuracy"] for m in r.client_metrics if m["client"] != 0])
            for r in result.rounds
        ])

    degradation = float(np.max(naive_mean_series(ablation) - naive_mean_series(opt)))
    elapsed = time.time() - start
    report(f"criterion 9: mean data fraction {mean_fraction:.3f} < 0.9; "
           f"fine-tune gain {gain:+.3f} >= 0.02; naive degradation "
           f"{degradation:.3f} <= 0.02 (<5min)",
           mean_fraction < 0.9 and gain >= 0.02 and degradation <= 0.02
           and elapsed < 300)


def test_criterion_10_byte_identical_reruns(tmp_path):
    from fedopt.config import emit_config

    cfg_path = tmp_path / "bench.cfg"
    cfg_path.write_text(emit_config(benchmark_cfg()))
    for out in ("r1", "r2"):
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / out)]) == 0
    b1 = (tmp_path / "r1" / "rounds.jsonl").read_bytes()
    b2 = (tmp_path / "r2" / "rounds.jsonl").read_bytes()
    report("criterion 10: two identical invocations give byte-identical rounds files",
           b1 == b2 and len(b1) > 0)
