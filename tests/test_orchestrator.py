import math

import numpy as np
import pytest

from fedopt.data import dirichlet_partition, generate_synthetic, train_val_split
from fedopt.nn import Mlp, backward, cross_entropy_loss, forward, sgd_step
from fedopt.orchestrator import (
    ExperimentConfig,
    client_local_train,
    compute_performance_bound,
    dataset_loss,
    post_fl_finetune,
    run_federated,
    sample_clients,
)


def small_cfg(**overrides):
    base = dict(
        n_clients=3, rounds=4, local_epochs=1, batch_size=16, n_classes=3,
        n_per_class=40, feature_dim=4, spread=2.0, finetune_max_epochs=20,
        finetune_patience=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestClientLocalTrain:
    def _problem(self, seed=0):
        rng = np.random.default_rng(seed)
        arch = [3, 2]
        w = Mlp.init_glorot(arch, rng).params.copy()
        x = rng.normal(size=(12, 3))
        y = rng.integers(0, 2, 12)
        return arch, w, x, y

    def test_zero_lr_unchanged(self):
        arch, w, x, y = self._problem()
        out = client_local_train(arch, w, x, y, 2, 4, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out, w)

    def test_full_batch_equals_single_sgd_step(self):
        arch, w, x, y = self._problem(1)
        out = client_local_train(arch, w, x, y, 1, len(y), 0.1, np.random.default_rng(0))
        m = Mlp(arch, w)
        cache = {}
        _, d = cross_entropy_loss(forward(m, x, cache), y)
        grads, _ = backward(m, cache, d)
        np.testing.assert_allclose(out, sgd_step(w, grads, 0.1), atol=1e-12)

    # FedProx: local SGD on cross-entropy + (mu/2)*||w - w_global||^2.
    # At w = [1, 1 | 0, 0] (arch [1, 2], x = [[1]]) the logits are equal, so
    # the cross-entropy gradient for label 0 is [-0.5, 0.5 | -0.5, 0.5].
    PROX_W = np.array([1.0, 1.0, 0.0, 0.0])
    PROX_X, PROX_Y = np.array([[1.0]]), np.array([0])
    PROX_CE_GRAD = np.array([-0.5, 0.5, -0.5, 0.5])

    def test_prox_step_adds_mu_times_distance_to_global(self):
        w_global = np.array([0.0, 1.0, -2.0, 0.0])
        out = client_local_train([1, 2], self.PROX_W, self.PROX_X, self.PROX_Y, 1, 1, 0.5,
                                 np.random.default_rng(0), 2.0, w_global)
        # grad = CE grad + 2 * (w - w_global) = [1.5, 0.5, 3.5, 0.5]
        expected = self.PROX_W - 0.5 * (self.PROX_CE_GRAD + 2.0 * (self.PROX_W - w_global))
        np.testing.assert_allclose(expected, [0.25, 0.75, -1.75, -0.25], atol=1e-15)
        np.testing.assert_allclose(out, expected, atol=1e-15)

    @pytest.mark.parametrize("prox_mu,w_global", [
        (0.0, np.array([9.0, 9.0, 9.0, 9.0])), (5.0, PROX_W), (5.0, None),
    ], ids=["mu_zero", "global_equals_w", "no_global"])
    def test_prox_term_vanishes(self, prox_mu, w_global):
        # mu = 0, w_global = w, or no w_global: the step is plain cross-entropy SGD
        out = client_local_train([1, 2], self.PROX_W, self.PROX_X, self.PROX_Y, 1, 1, 0.5,
                                 np.random.default_rng(0), prox_mu, w_global)
        np.testing.assert_array_equal(
            out, client_local_train([1, 2], self.PROX_W, self.PROX_X, self.PROX_Y, 1, 1, 0.5,
                                    np.random.default_rng(0)))
        np.testing.assert_allclose(out, self.PROX_W - 0.5 * self.PROX_CE_GRAD, atol=1e-15)

    def test_prox_global_length_mismatch(self):
        with pytest.raises(ValueError):
            client_local_train([1, 2], self.PROX_W, self.PROX_X, self.PROX_Y, 1, 1, 0.5,
                               np.random.default_rng(0), 1.0, np.zeros(3))

    def test_training_reduces_loss(self):
        rng = np.random.default_rng(2)
        arch = [2, 8, 2]
        w = Mlp.init_glorot(arch, rng).params.copy()
        x = np.vstack([rng.normal(-2, 0.5, (30, 2)), rng.normal(2, 0.5, (30, 2))])
        y = np.repeat([0, 1], 30)
        before = dataset_loss(arch, w, x, y)
        out = client_local_train(arch, w, x, y, 20, 16, 0.1, np.random.default_rng(3))
        assert dataset_loss(arch, out, x, y) < before

    def test_empty_subset(self):
        with pytest.raises(ValueError):
            client_local_train([2, 2], np.zeros(6), np.zeros((0, 2)), np.array([]), 1, 4, 0.1,
                               np.random.default_rng(0))

    @staticmethod
    def _reference(arch, w_init, x, y, epochs, batch_size, lr, rng, prox_mu, w_global):
        """Copying loop: every step builds a new Mlp over a new vector."""
        model = Mlp(list(arch), np.array(w_init, dtype=np.float64))
        for _ in range(epochs):
            order = rng.permutation(len(y))
            for i in range(0, len(y), batch_size):
                batch = order[i : i + batch_size]
                cache = {}
                _, d_logits = cross_entropy_loss(forward(model, x[batch], cache), y[batch])
                grads, _ = backward(model, cache, d_logits)
                if prox_mu > 0.0 and w_global is not None:
                    grads = grads + prox_mu * (model.params - w_global)
                model = Mlp(list(arch), sgd_step(model.params, grads, lr))
        return model.params

    @pytest.mark.parametrize("prox_mu", [0.0, 0.3])
    @pytest.mark.parametrize("epochs,batch_size", [(1, 16), (3, 7)])
    def test_matches_copying_reference_bit_for_bit(self, prox_mu, epochs, batch_size):
        rng = np.random.default_rng(5)
        arch = [4, 6, 5, 3]
        w_init = Mlp.init_glorot(arch, rng).params.copy()
        w_global = w_init + rng.normal(scale=0.1, size=w_init.shape)
        x = rng.normal(size=(45, 4))  # 45 rows: the last batch is partial for 7 and 16
        y = rng.integers(0, 3, 45)
        before = w_init.copy()
        out = client_local_train(arch, w_init, x, y, epochs, batch_size, 0.2,
                                 np.random.default_rng(9), prox_mu, w_global)
        ref = self._reference(arch, w_init, x, y, epochs, batch_size, 0.2,
                              np.random.default_rng(9), prox_mu, w_global)
        assert np.array_equal(out, ref)
        assert not np.array_equal(out, w_init)
        assert np.array_equal(w_init, before)


class TestPostFlFinetune:
    def _splits(self, seed=0):
        rng = np.random.default_rng(seed)
        arch = [2, 4, 2]
        w = Mlp.init_glorot(arch, rng).params.copy()
        x = rng.normal(size=(40, 2))
        y = (x[:, 0] > 0).astype(int)
        return arch, w, x[:30], y[:30], x[30:], y[30:]

    def test_patience_zero_one_epoch(self):
        arch, w, xt, yt, xv, yv = self._splits()
        _, trace = post_fl_finetune(arch, w, xt, yt, xv, yv, 8, 0.1, 0, 50,
                                    np.random.default_rng(0))
        assert len(trace) == 1

    def test_trace_capped(self):
        arch, w, xt, yt, xv, yv = self._splits(1)
        _, trace = post_fl_finetune(arch, w, xt, yt, xv, yv, 8, 0.1, 100, 7,
                                    np.random.default_rng(0))
        assert len(trace) <= 7

    def test_returns_best_params(self):
        arch, w, xt, yt, xv, yv = self._splits(2)
        best, trace = post_fl_finetune(arch, w, xt, yt, xv, yv, 8, 0.1, 5, 50,
                                       np.random.default_rng(1))
        from fedopt.metrics import accuracy, evaluate

        m = Mlp(arch, best)
        assert accuracy(evaluate(m, xv, yv)) == pytest.approx(max(e["val_accuracy"] for e in trace))

    def test_diverged_finetune_raises_naming_epoch(self):
        arch, w, xt, yt, xv, yv = self._splits(2)
        with np.errstate(all="ignore"), pytest.raises(
            ValueError, match=r"fine-tune epoch \d+: non-finite"
        ):
            post_fl_finetune(arch, w, xt, yt, xv, yv, 8, 1e6, 100, 50, np.random.default_rng(1))

    def test_empty_split(self):
        with pytest.raises(ValueError):
            post_fl_finetune([2, 2], np.zeros(6), np.zeros((0, 2)), np.array([]),
                             np.zeros((1, 2)), np.array([0]), 4, 0.1, 1, 5,
                             np.random.default_rng(0))


class TestPerformanceBound:
    def test_equal_radii_zero_gap(self):
        z = np.array([0.3, 0.9])
        p_full, p_sel, omega = compute_performance_bound(z, z)
        assert omega == 0.0
        assert p_full == p_sel

    def test_hand_value(self):
        _, _, omega = compute_performance_bound(np.array([1.0, 1.0]), np.array([0.5, 0.5]))
        assert omega == pytest.approx(1.5 * math.pi)

    def test_identity_over_random(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            big = rng.uniform(0, 1, 5)
            small = big * rng.uniform(0, 1, 5)
            p_full, p_sel, omega = compute_performance_bound(big, small)
            assert abs((p_full - p_sel) - omega) < 1e-12
            assert omega >= 0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            compute_performance_bound(np.array([0.5]), np.array([0.6]))
        with pytest.raises(ValueError):
            compute_performance_bound(np.array([1.0, 1.0]), np.array([0.5]))


class TestSampleClients:
    def test_full_participation(self):
        assert sample_clients(5, 1.0, np.random.default_rng(0)) == [0, 1, 2, 3, 4]

    def test_sample_size(self):
        rng = np.random.default_rng(1)
        for ratio in (0.1, 0.5, 0.7):
            assert len(sample_clients(8, ratio, rng)) == math.ceil(ratio * 8)

    def test_uniform_inclusion(self):
        rng = np.random.default_rng(2)
        counts = np.zeros(8)
        for _ in range(10_000):
            for k in sample_clients(8, 0.5, rng):
                counts[k] += 1
        freq = counts / 10_000
        assert np.all(np.abs(freq - 0.5) < 0.02)


class TestRunFederated:
    def test_single_client_aggregation_identity(self):
        cfg = small_cfg(n_clients=1, rounds=2, optimized_client=None)
        res = run_federated(cfg)
        np.testing.assert_array_equal(res.final_global, res.client_params[0])

    def test_determinism(self):
        cfg1 = small_cfg()
        cfg2 = small_cfg()
        r1 = run_federated(cfg1)
        r2 = run_federated(cfg2)
        for a, b in zip(r1.rounds, r2.rounds):
            assert a.to_dict() == b.to_dict()
        np.testing.assert_array_equal(r1.final_global, r2.final_global)

    def test_full_action_reduces_to_naive(self):
        opt = run_federated(small_cfg(action_strategy="full", optimized_client=0))
        naive = run_federated(small_cfg(optimized_client=None))
        np.testing.assert_array_equal(opt.final_global, naive.final_global)
        for a, b in zip(opt.rounds, naive.rounds):
            assert a.client_metrics == b.client_metrics
            assert a.optimized["samples_used"] == a.optimized["train_size"]

    def test_l_agg_matches_independent_recomputation(self):
        cfg = small_cfg()
        res = run_federated(cfg)
        # rebuild round-0 inputs from the same seed streams
        from fedopt.orchestrator import _derived_seed

        ds = generate_synthetic(cfg.n_classes, cfg.n_per_class, cfg.feature_dim,
                                cfg.spread, cfg.seed_data)
        part = dirichlet_partition(ds, cfg.n_clients, cfg.dirichlet_alpha, cfg.seed_data)[0]
        part = train_val_split(part, cfg.split_ratio, _derived_seed(cfg.seed_data, 17, 0))
        arch = [cfg.feature_dim, *cfg.hidden_dims, cfg.n_classes]
        w0 = Mlp.init_glorot(arch, np.random.default_rng(cfg.seed_init)).params.copy()
        idx = part.all_train_indices()
        expect = dataset_loss(arch, w0, ds.features[idx], ds.labels[idx])
        assert res.rounds[0].optimized["l_agg"] == pytest.approx(expect, rel=1e-12)

    def test_fraction_bookkeeping(self):
        res = run_federated(small_cfg(rounds=6))
        for rec in res.rounds:
            frag = rec.optimized
            if frag is None:
                continue
            assert 0 < frag["samples_used"] <= frag["train_size"]
            assert all(0.0 < f <= 1.0 for f in frag["fractions"])

    def test_weighted_metric_strategy_runs(self):
        res = run_federated(small_cfg(action_strategy="weighted_metric", rounds=8))
        assert len(res.rounds) == 8
        for rec in res.rounds:
            assert all(0.0 < f <= 1.0 for f in rec.optimized["fractions"])

    @pytest.mark.parametrize("strategy", ["fedavgm", "fedmedian", "fedprox", "fedcda"])
    def test_all_aggregations_run(self, strategy):
        res = run_federated(small_cfg(aggregation=strategy, rounds=3))
        assert len(res.rounds) == 3

    @staticmethod
    def _reference_metrics(cfg, params):
        """Per-client loop: one forward pass and one confusion matrix per client."""
        from fedopt.orchestrator import _derived_seed

        ds = generate_synthetic(cfg.n_classes, cfg.n_per_class, cfg.feature_dim,
                                cfg.spread, cfg.seed_data)
        parts = [
            train_val_split(p, cfg.split_ratio, _derived_seed(cfg.seed_data, 17, p.client_id))
            for p in dirichlet_partition(ds, cfg.n_clients, cfg.dirichlet_alpha, cfg.seed_data)
        ]
        model = Mlp([cfg.feature_dim, *cfg.hidden_dims, cfg.n_classes], params)
        rows = []
        for part in parts:
            if len(part.val_indices) == 0:
                continue
            preds = forward(model, ds.features[part.val_indices]).argmax(axis=1)
            cm = np.zeros((cfg.n_classes, cfg.n_classes), dtype=np.int64)
            np.add.at(cm, (ds.labels[part.val_indices], preds), 1)
            tp = np.diag(cm).astype(np.float64)
            fp, fn = cm.sum(axis=0) - tp, cm.sum(axis=1) - tp
            with np.errstate(divide="ignore", invalid="ignore"):
                p = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
                r = np.where(tp + fn > 0, tp / (tp + fn), 0.0)
                f1 = np.where(p + r > 0, 2 * p * r / (p + r), 0.0)
            rows.append({
                "client": part.client_id,
                "accuracy": float(np.trace(cm) / cm.sum()),
                "precision": float(np.mean(p)),
                "recall": float(np.mean(r)),
                "f1": float(np.mean(f1)),
            })
        return rows

    @pytest.mark.parametrize("overrides,n_reported", [
        # 12 clients at alpha 0.05: nine of them have no validation rows
        (dict(n_clients=12, dirichlet_alpha=0.05, n_per_class=10, optimized_client=None), 3),
        # three samples per class: two of the four clients have validation rows
        (dict(n_clients=4, n_per_class=3, optimized_client=None), 2),
        # 600 validation rows, more than one evaluation chunk
        (dict(n_per_class=1000, rounds=2), 3),
    ])
    def test_round_metrics_equal_per_client_loop(self, overrides, n_reported):
        cfg = small_cfg(**overrides)
        res = run_federated(cfg)
        # the last round is evaluated with the final global parameters
        last = res.rounds[-1].client_metrics
        assert len(last) == n_reported
        assert last == self._reference_metrics(cfg, res.final_global)

    def test_round_metrics_do_not_depend_on_chunk_size(self, monkeypatch):
        from fedopt import metrics

        cfg = small_cfg(n_clients=5, rounds=2)
        expect = run_federated(cfg).rounds
        monkeypatch.setattr(metrics, "EVAL_CHUNK", 7)
        got = run_federated(small_cfg(n_clients=5, rounds=2)).rounds
        assert [r.client_metrics for r in got] == [r.client_metrics for r in expect]

    def test_invalid_config_rejected_early(self):
        with pytest.raises(ValueError):
            run_federated(small_cfg(c_ratio=1.5))
        with pytest.raises(ValueError):
            run_federated(small_cfg(optimized_client=99))

    @pytest.mark.parametrize("key", [
        "prox_mu", "fedavgm_beta", "fedavgm_server_lr", "spread", "agent.epsilon_start",
        "agent.epsilon_end", "agent.actor_lr", "agent.critic_lr",
    ])
    def test_nan_range_settings_rejected_by_validate(self, key):
        # A config built in code skips the parser's finiteness check.
        cfg = small_cfg()
        owner = cfg.agent if key.startswith("agent.") else cfg
        setattr(owner, key.removeprefix("agent."), float("nan"))
        with pytest.raises(ValueError, match=key):
            cfg.validate()

    @pytest.mark.parametrize("section,key,value", [
        ("agent", "b_l", 0.0), ("agent", "soft_update_tau", 0.0),
        ("agent", "buffer_capacity", 4), ("reward", "tau", 0),
    ])
    def test_section_changed_after_construction_rejected_before_any_work(
        self, monkeypatch, section, key, value
    ):
        from fedopt import data

        def no_work(*args, **kwargs):
            raise AssertionError("run_federated built data for an invalid config")

        monkeypatch.setattr(data, "generate_synthetic", no_work)
        cfg = small_cfg()
        setattr(getattr(cfg, section), key, value)
        with pytest.raises(ValueError, match=f"{section}.{key}"):
            run_federated(cfg)

    def test_no_validation_rows_fails_before_round_0(self, monkeypatch):
        from fedopt import orchestrator

        def no_round(*args, **kwargs):
            raise AssertionError("a round started")

        monkeypatch.setattr(orchestrator, "sample_clients", no_round)
        # one sample per class: no client has validation rows
        cfg = small_cfg(n_clients=4, n_per_class=1, optimized_client=None)
        with pytest.raises(ValueError, match=r"no client has validation rows .*"
                                             r"\(client 0, client 1, client 2, client 3\)"):
            run_federated(cfg)

    @pytest.mark.parametrize("seed_data,split", [(2, "training"), (17, "validation")])
    def test_optimized_client_without_rows_fails_before_round_0(
        self, monkeypatch, seed_data, split
    ):
        from fedopt import orchestrator

        def no_round(*args, **kwargs):
            raise AssertionError("a round started")

        monkeypatch.setattr(orchestrator, "sample_clients", no_round)
        cfg = ExperimentConfig(n_clients=20, n_per_class=5, dirichlet_alpha=0.05,
                               seed_data=seed_data)
        with pytest.raises(ValueError, match=f"^client 0: the optimized client has no {split} rows"):
            run_federated(cfg)
