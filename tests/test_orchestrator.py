import dataclasses
import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedopt import orchestrator
from fedopt.agent import weighted_metric_action
from fedopt.data import ClientPartition, dirichlet_partition, generate_synthetic, train_val_split
from fedopt.nn import Mlp, forward
from fedopt.orchestrator import (
    METRICS,
    ExperimentConfig,
    _OptimizedClient,
    _derived_seed,
    _require_finite,
    client_local_train,
    compute_performance_bound,
    dataset_loss,
    post_fl_finetune,
    run_federated,
    sample_clients,
)
from tests.test_nn import reference_backward, reference_cross_entropy


def small_cfg(**overrides):
    base = dict(
        n_clients=3, rounds=4, local_epochs=1, batch_size=16, n_classes=3,
        n_per_class=40, feature_dim=4, spread=2.0, finetune_max_epochs=20,
        finetune_patience=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _train_one(arch, w, x, y, epochs, batch_size, lr, rng, prox_mu=0.0, w_global=None):
    """client_local_train for a single client."""
    (out,) = client_local_train(arch, w, x, y, epochs, batch_size, lr, [rng], [len(y)],
                                prox_mu, w_global)
    return out


def reference_client_metrics(cfg, params):
    """A round's client_metrics from a per-client loop: one forward pass and one
    confusion matrix per client with validation rows, one dict each."""
    from fedopt.orchestrator import _derived_seed

    ds = generate_synthetic(cfg.n_classes, cfg.n_per_class, cfg.feature_dim,
                            cfg.spread, cfg.seed)
    parts = [
        train_val_split(p, cfg.split_ratio, _derived_seed(cfg.seed, 17, p.client_id))
        for p in dirichlet_partition(ds, cfg.n_clients, cfg.dirichlet_alpha, cfg.seed)
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
        out = _train_one(arch, w, x, y, 2, 4, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out, w)

    def test_full_batch_equals_single_sgd_step(self):
        arch, w, x, y = self._problem(1)
        out = _train_one(arch, w, x, y, 1, len(y), 0.1, np.random.default_rng(0))
        m = Mlp(arch, w)
        acts = []
        _, d = reference_cross_entropy(forward(m, x, acts), y)
        grads, _ = reference_backward(m, acts, d)
        np.testing.assert_allclose(out, w - 0.1 * grads, atol=1e-12)

    # FedProx: local SGD on cross-entropy + (mu/2)*||w - w_global||^2.
    # At w = [1, 1 | 0, 0] (arch [1, 2], x = [[1]]) the logits are equal, so
    # the cross-entropy gradient for label 0 is [-0.5, 0.5 | -0.5, 0.5].
    PROX_W = np.array([1.0, 1.0, 0.0, 0.0])
    PROX_X, PROX_Y = np.array([[1.0]]), np.array([0])
    PROX_CE_GRAD = np.array([-0.5, 0.5, -0.5, 0.5])

    def test_prox_step_adds_mu_times_distance_to_global(self):
        w_global = np.array([0.0, 1.0, -2.0, 0.0])
        out = _train_one([1, 2], self.PROX_W, self.PROX_X, self.PROX_Y, 1, 1, 0.5,
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
        out = _train_one([1, 2], self.PROX_W, self.PROX_X, self.PROX_Y, 1, 1, 0.5,
                         np.random.default_rng(0), prox_mu, w_global)
        np.testing.assert_array_equal(
            out, _train_one([1, 2], self.PROX_W, self.PROX_X, self.PROX_Y, 1, 1, 0.5,
                            np.random.default_rng(0)))
        np.testing.assert_allclose(out, self.PROX_W - 0.5 * self.PROX_CE_GRAD, atol=1e-15)

    def test_prox_global_length_mismatch(self):
        with pytest.raises(ValueError):
            _train_one([1, 2], self.PROX_W, self.PROX_X, self.PROX_Y, 1, 1, 0.5,
                       np.random.default_rng(0), 1.0, np.zeros(3))

    def test_training_reduces_loss(self):
        rng = np.random.default_rng(2)
        arch = [2, 8, 2]
        w = Mlp.init_glorot(arch, rng).params.copy()
        x = np.vstack([rng.normal(-2, 0.5, (30, 2)), rng.normal(2, 0.5, (30, 2))])
        y = np.repeat([0, 1], 30)
        before = dataset_loss(arch, w, x, y)
        out = _train_one(arch, w, x, y, 20, 16, 0.1, np.random.default_rng(3))
        assert dataset_loss(arch, out, x, y) < before

    def test_empty_subset(self):
        with pytest.raises(ValueError, match="empty training subset"):
            _train_one([2, 2], np.zeros(6), np.zeros((0, 2)), np.array([]), 1, 4, 0.1,
                       np.random.default_rng(0))
        with pytest.raises(ValueError, match="empty training subset"):
            client_local_train([2, 2], np.zeros(6), np.zeros((3, 2)), np.zeros(3, dtype=int), 1,
                               4, 0.1, [np.random.default_rng(0)] * 2, [3, 0])

    def test_sizes_must_cover_the_rows_given(self):
        with pytest.raises(ValueError, match=r"sizes \[3, 2\] need 5 rows and 2 rngs"):
            client_local_train([2, 2], np.zeros(6), np.zeros((6, 2)), np.zeros(6, dtype=int), 1,
                               4, 0.1, [np.random.default_rng(0)] * 2, [3, 2])

    @staticmethod
    def _reference(arch, w_init, x, y, epochs, batch_size, lr, rng, prox_mu, w_global,
                   pad=True):
        """Serial copying loop for one client: every step builds a new Mlp over a new vector
        and takes the combined loss-and-gradient and the full backprop of tests.test_nn.

        With `pad`, a batch of 2 or more rows is padded to batch_size with rows of zero
        logit gradient, as client_local_train pads it; a 1-row batch never is."""
        model = Mlp(list(arch), np.array(w_init, dtype=np.float64))
        for _ in range(epochs):
            order = rng.permutation(len(y))
            for i in range(0, len(y), batch_size):
                batch = order[i : i + batch_size]
                m = len(batch)
                if pad and m > 1:
                    batch = np.concatenate([batch, np.zeros(batch_size - m, dtype=batch.dtype)])
                acts = []
                logits = forward(model, x[batch], acts)
                _, d_logits = reference_cross_entropy(logits[:m], y[batch[:m]])
                d_logits = np.vstack([d_logits, np.zeros((len(batch) - m, arch[-1]))])
                grads, _ = reference_backward(model, acts, d_logits)
                if prox_mu > 0.0 and w_global is not None:
                    grads = grads + prox_mu * (model.params - w_global)
                model = Mlp(list(arch), model.params - lr * grads)
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
        out = _train_one(arch, w_init, x, y, epochs, batch_size, 0.2,
                         np.random.default_rng(9), prox_mu, w_global)
        ref = self._reference(arch, w_init, x, y, epochs, batch_size, 0.2,
                              np.random.default_rng(9), prox_mu, w_global)
        assert np.array_equal(out, ref)
        assert not np.array_equal(out, w_init)
        assert np.array_equal(w_init, before)

    # Ragged and unsorted: a 1-row client, two clients of 20 rows, and last
    # batches of 1 to 7 rows next to full ones.
    RAGGED = [20, 1, 37, 20, 6, 55, 3]
    LOCKSTEP_CASES = pytest.mark.parametrize("sizes,epochs,batch_size,arch", [
        (RAGGED, 1, 8, [5, 7, 4]),
        (RAGGED, 3, 8, [5, 7, 4]),
        # batch_size larger than every client: one partial batch each, in runs of equal size
        ([5, 9, 2, 9, 5], 2, 64, [5, 7, 4]),
        ([30], 3, 7, [5, 7, 4]),  # K = 1
        ([1], 1, 4, [5, 7, 4]),
        # the benchmark's shape: odd, even, 1-row and 2-row last batches, and
        # clients smaller than one batch
        ([97, 33, 65, 31, 2, 1, 40, 7], 3, 32, [16, 32, 4]),
    ], ids=["ragged", "ragged_3_epochs", "batch_over_every_client", "one_client", "one_row",
            "benchmark_shaped"])

    def _lockstep_and_references(self, sizes, epochs, batch_size, arch, prox_mu, pad):
        """client_local_train on `sizes` and each client's serial _reference."""
        rng = np.random.default_rng(len(sizes) + epochs)
        w_init = Mlp.init_glorot(arch, rng).params.copy()
        w_global = w_init + rng.normal(scale=0.1, size=w_init.shape)
        x = rng.normal(size=(sum(sizes), arch[0]))
        y = rng.integers(0, arch[-1], sum(sizes))
        seeds = [_derived_seed(3, 29, k) for k in range(len(sizes))]
        before = w_init.copy()
        out = client_local_train(arch, w_init, x, y, epochs, batch_size, 0.2,
                                 [np.random.default_rng(s) for s in seeds], sizes,
                                 prox_mu, w_global)
        assert len(out) == len(sizes) and np.array_equal(w_init, before)
        starts = np.cumsum([0, *sizes])
        refs = [self._reference(arch, w_init, x[lo:hi], y[lo:hi], epochs, batch_size, 0.2,
                                np.random.default_rng(seeds[k]), prox_mu, w_global, pad)
                for k, (lo, hi) in enumerate(zip(starts, starts[1:]))]
        return out, refs

    @pytest.mark.parametrize("prox_mu", [0.0, 0.3])
    @LOCKSTEP_CASES
    def test_lockstep_matches_serial_reference_bit_for_bit(self, sizes, epochs, batch_size,
                                                           arch, prox_mu):
        out, refs = self._lockstep_and_references(sizes, epochs, batch_size, arch, prox_mu, True)
        for k, ref in enumerate(refs):
            assert np.array_equal(out[k], ref), f"client {k}"

    @pytest.mark.parametrize("prox_mu", [0.0, 0.3])
    @LOCKSTEP_CASES
    def test_padding_matches_unpadded_serial_sgd_to_a_few_ulps(self, sizes, epochs, batch_size,
                                                               arch, prox_mu):
        # Padded rows add exact zeros along the reduction axis of the gradient;
        # only the real rows of a padded forward product may round differently
        # from an unpadded one, by an ulp, on some BLAS kernels (none on
        # OpenBLAS's SkylakeX). Under its Haswell and Prescott kernels the
        # largest difference in these cases is 1.1e-16 on parameters of order
        # 1; 1e-13 leaves three orders of margin.
        out, refs = self._lockstep_and_references(sizes, epochs, batch_size, arch, prox_mu, False)
        for k, ref in enumerate(refs):
            np.testing.assert_allclose(out[k], ref, rtol=0.0, atol=1e-13, err_msg=f"client {k}")

    def test_one_step_per_batch_offset_and_one_more_for_1_row_batches(self, monkeypatch):
        steps = []
        monkeypatch.setattr(orchestrator, "sgd_step",
                            lambda params, grads, lr: steps.append(params.shape[:-1]))
        rng = np.random.default_rng(7)
        arch, sizes, batch_size, epochs = [3, 4, 2], self.RAGGED, 8, 2
        client_local_train(arch, Mlp.init_glorot(arch, rng).params,
                           rng.normal(size=(sum(sizes), 3)), rng.integers(0, 2, sum(sizes)),
                           epochs, batch_size, 0.1,
                           [np.random.default_rng(k) for k in range(len(sizes))], sizes)
        offsets = range(0, max(sizes), batch_size)
        one_row = [i for i in offsets if i + 1 in sizes]
        assert len(offsets) == 7 and one_row == [0]
        assert len(steps) == epochs * (len(offsets) + len(one_row))
        # Per epoch: the 6 clients with 2 or more rows at offset 0, then the 1-row
        # client; then 4, 4, 2, 2 clients; then the 55-row client alone (no client
        # axis) at offsets 40 and 48.
        assert steps == epochs * [(6,), (), (4,), (4,), (2,), (2,), (), ()]

    def test_training_never_computes_the_loss(self, monkeypatch):
        def loss(*_):
            raise AssertionError("a training step computed the mean loss")

        monkeypatch.setattr(orchestrator, "cross_entropy_loss", loss)
        rng = np.random.default_rng(6)
        arch = [3, 5, 2]
        out = client_local_train(arch, Mlp.init_glorot(arch, rng).params, rng.normal(size=(13, 3)),
                                 rng.integers(0, 2, 13), 2, 4, 0.1,
                                 [np.random.default_rng(k) for k in range(2)], [9, 4], 0.5,
                                 np.zeros(Mlp(arch).params.size))
        assert len(out) == 2

    def test_each_client_gets_its_own_array(self):
        rng = np.random.default_rng(4)
        arch = [3, 4, 2]
        sizes = [9, 4, 9, 1]
        out = client_local_train(arch, Mlp.init_glorot(arch, rng).params, rng.normal(size=(23, 3)),
                                 rng.integers(0, 2, 23), 1, 4, 0.1,
                                 [np.random.default_rng(k) for k in range(4)], sizes)
        for a, b in itertools.combinations(out, 2):
            assert not np.shares_memory(a, b)
        assert all(w.base is None and w.shape == out[0].shape for w in out)


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


class TestOptimizedClient:
    ARCH = [4, 8, 3]

    def _client(self, **overrides):
        rng = np.random.default_rng(5)
        part = ClientPartition(0, 3, [np.arange(4 * c, 4 * c + 4) for c in range(3)],
                               np.array([12, 13, 14]))
        y = np.array([0] * 4 + [1] * 4 + [2] * 4 + [0, 1, 2])
        x = rng.normal(size=(15, 4)) + 2.0 * np.eye(4)[y]
        return _OptimizedClient(small_cfg(**overrides), self.ARCH, part, x, y)

    @pytest.mark.parametrize("eta", [1, 3])
    def test_lookback_is_latest_run_round_at_or_before_t_minus_eta(self, eta):
        opt = self._client(action_strategy="weighted_metric")
        opt.cfg.agent.eta = eta
        rng = np.random.default_rng(eta)
        ran = {0, 2, 3, 7, 12}  # the rounds the client ran, with gaps
        log: dict[int, np.ndarray] = {}  # the former per-round state log
        for t in range(20):
            raw, now = rng.uniform(0.1, 1.0, 3), rng.uniform(0, 1, 3)
            earlier = [r for r in log if r <= max(0, t - eta)]
            back = log[max(earlier)] if earlier else now
            np.testing.assert_array_equal(opt._explore_action(raw, now, t),
                                          weighted_metric_action(raw, now, back))
            if t in ran:
                log[t] = now
                opt.history.append(t, 1.0)
                opt.states.append(now)

    def test_finish_pushes_terminal_transition_and_fine_tunes_on_all_rows(self):
        opt = self._client(lr=0.5, batch_size=4)
        cfg = opt.cfg
        w_global = Mlp.init_glorot(self.ARCH, np.random.default_rng(1)).params
        sel = opt.round(w_global, 0)
        (w,) = client_local_train(self.ARCH, w_global, opt.x[sel], opt.y[sel], 1, cfg.batch_size,
                                  cfg.lr, [np.random.default_rng(0)], [len(sel)])
        opt.end_round(w)
        assert len(opt.buffer) == 0 and opt.pending is not None
        best, trace = opt.finish(w)
        assert len(opt.buffer) == 1 and opt.pending is None
        assert opt.buffer.sample(1)[4][0] == 1.0  # terminal
        want = post_fl_finetune(self.ARCH, w, opt.x[:12], opt.y[:12], opt.x[12:], opt.y[12:],
                                cfg.batch_size, cfg.lr, cfg.finetune_patience,
                                cfg.finetune_max_epochs,
                                np.random.default_rng(_derived_seed(cfg.seed, 53)))
        assert np.array_equal(best, want[0]) and trace == want[1]

    @pytest.mark.parametrize("c_ratio", [0.5, 1.0])
    def test_buffer_holds_one_transition_per_round_the_client_ran(self, monkeypatch, c_ratio):
        # More rounds than a minibatch, so the agent learns; at c_ratio 1 the
        # buffer, sized to `rounds`, ends full.
        clients = []
        finish = _OptimizedClient.finish
        monkeypatch.setattr(_OptimizedClient, "finish",
                            lambda opt, w: clients.append(opt) or finish(opt, w))
        cfg = small_cfg(rounds=24, c_ratio=c_ratio)
        cfg.agent.batch_size = 4
        ran = sum(r.optimized is not None for r in run_federated(cfg).rounds)
        assert cfg.agent.batch_size < ran <= cfg.rounds
        assert len(clients[0].buffer) == ran

    def test_training_rows_gathered_once_per_run(self, monkeypatch):
        calls = []
        gather = ClientPartition.all_train_indices
        monkeypatch.setattr(ClientPartition, "all_train_indices",
                            lambda p: calls.append(p.client_id) or gather(p))
        run_federated(small_cfg(rounds=6))
        assert sorted(calls) == [0, 0, 1, 2]  # each client, plus the optimized client once


@pytest.mark.parametrize("value", [
    math.nan, math.inf, -math.inf, np.float64(np.nan), np.float64(-np.inf),
    np.array([0.5, np.nan]), np.array([[1.0], [np.inf]]),
])
def test_require_finite_names_the_non_finite_value(value):
    with pytest.raises(ValueError, match=r"^round 3: client 1: non-finite reward \(diverged\)$"):
        _require_finite("round 3: client 1", l_agg=0.5, reward=value, l_ref=1.0)


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

    @pytest.mark.parametrize("big,small", [([np.nan, 0.5], [0.1, 0.2]), ([0.5, 0.5], [0.1, np.nan]),
                                           ([np.nan], [np.nan]), ([0.5], [-np.nan])])
    def test_nan_radius_rejected(self, big, small):
        with pytest.raises(ValueError, match=r"need 0 <= z_c <= Z_c <= 1"):
            compute_performance_bound(np.array(big), np.array(small))


class TestSampleClients:
    def test_full_participation(self):
        assert sample_clients(5, 1.0, np.random.default_rng(0)) == [0, 1, 2, 3, 4]

    def test_sample_size(self):
        rng = np.random.default_rng(1)
        for ratio in (0.1, 0.5, 0.7):
            assert len(sample_clients(8, ratio, rng)) == math.ceil(ratio * 8)

    @pytest.mark.parametrize("n_clients,c_ratio,expect", [
        (100, 0.07, 7), (200, 0.07, 14), (50, 0.14, 7), (100, 0.55, 55), (175, 0.68, 119),
        (200, 0.1, 20), (8, 1.0, 8), (4, 1e-9, 1), (3, 0.5, 2), (100, 0.071, 8),
        (100, np.float64(0.07), 7),
    ])
    def test_sample_size_is_exact_for_the_decimal_ratio(self, n_clients, c_ratio, expect):
        # The float product 0.07 * 100 is 7.000000000000001; its ceiling used to sample 8.
        assert len(sample_clients(n_clients, c_ratio, np.random.default_rng(0))) == expect

    def test_uniform_inclusion(self):
        rng = np.random.default_rng(2)
        counts = np.zeros(8)
        for _ in range(10_000):
            for k in sample_clients(8, 0.5, rng):
                counts[k] += 1
        freq = counts / 10_000
        assert np.all(np.abs(freq - 0.5) < 0.02)


class TestBatchOrderStreams:
    """The vectorized derivation against the per-key SeedSequence it replaces."""

    SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 12345]  # one word, the largest one, two, three

    @settings(max_examples=60, deadline=None)
    @given(seed=st.one_of(st.sampled_from(SEEDS), st.integers(0, 2**96)),
           keys=st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
                         min_size=1, max_size=6))
    def test_streams_equal_default_rng_of_derived_seed(self, seed, keys):
        keys = [(0, 0), *keys]
        t, k = np.array(keys, dtype=np.uint32).T
        states = orchestrator._batch_order_states(seed, t, k)
        assert states.shape == (len(keys), 4)
        for (t, k), words in zip(keys, states):
            want = np.random.default_rng(_derived_seed(seed, 29, t, k))
            got = np.random.Generator(np.random.PCG64(orchestrator._StateWords(words)))
            assert got.bit_generator.state == want.bit_generator.state
            for n in (1, 7, 64):
                assert np.array_equal(got.permutation(n), want.permutation(n))

    @settings(max_examples=60, deadline=None)
    @given(columns=st.integers(1, 5).flatmap(lambda length: st.lists(
               st.lists(st.integers(0, 2**32 - 1), min_size=length, max_size=length),
               min_size=1, max_size=4)),
           n_words=st.integers(1, 9))
    def test_seed_words_equal_generate_state(self, columns, n_words):
        # Up to 5 entropy words: shorter than the pool of 4, equal, and longer.
        entropy = np.array(columns, dtype=np.uint32).T
        got = orchestrator._seed_words(entropy, n_words)
        assert got.dtype == np.uint32 and got.shape == (n_words, len(columns))
        for column, words in zip(columns, got.T):
            assert np.array_equal(words, np.random.SeedSequence(column).generate_state(n_words))

    @pytest.mark.parametrize("block", [1, 8, 4096], ids=["round_a_block", "two_rounds",
                                                          "one_block"])
    def test_run_trains_each_client_on_its_derived_stream(self, monkeypatch, block):
        # 4 clients: a block of 8 pairs holds 2 rounds, and 5 rounds end on a short block.
        cfg = small_cfg(n_clients=4, c_ratio=0.5, rounds=5, seed=2**32 + 3)
        sampled, calls, blocks = [], [], []
        derive = orchestrator._batch_order_states

        def sampling(*args):
            sampled.append(sample_clients(*args))
            return sampled[-1]

        def deriving(seed, t, k):
            blocks.append(len(t))
            return derive(seed, t, k)

        def training(*args):
            if len(calls) < cfg.rounds:  # the round's call, not a fine-tune epoch
                calls.append([rng.bit_generator.state for rng in args[7]])
            return client_local_train(*args)

        monkeypatch.setattr(orchestrator, "_STREAM_BLOCK", block)
        monkeypatch.setattr(orchestrator, "sample_clients", sampling)
        monkeypatch.setattr(orchestrator, "_batch_order_states", deriving)
        monkeypatch.setattr(orchestrator, "client_local_train", training)
        run_federated(cfg)
        assert len(sampled) == len(calls) == cfg.rounds
        assert blocks == {1: [2] * 5, 8: [4, 4, 2], 4096: [10]}[block]
        for t, (s, states) in enumerate(zip(sampled, calls)):
            assert states == [np.random.default_rng(_derived_seed(cfg.seed, 29, t, k))
                              .bit_generator.state for k in s]


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
        assert len(r1.rounds) == len(r2.rounds) == cfg1.rounds
        for a, b in zip(r1.rounds, r2.rounds):
            assert a == b
        np.testing.assert_array_equal(r1.metrics, r2.metrics)
        assert r1.evaluated == r2.evaluated
        np.testing.assert_array_equal(r1.final_global, r2.final_global)

    def test_round_records_compare_by_value(self):
        # Records with more than one evaluated client used to raise on ==.
        r1, r2 = run_federated(small_cfg()), run_federated(small_cfg())
        assert len(r1.evaluated) > 1
        assert all(a == b and not a != b for a, b in zip(r1.rounds, r2.rounds))
        rec = r2.rounds[-1]
        changed = dataclasses.replace(rec, metrics=rec.metrics.copy())
        changed.metrics[1, 3] = np.nextafter(changed.metrics[1, 3], 2.0)
        assert changed != r1.rounds[-1] and r1.rounds[-1] != changed
        assert dataclasses.replace(rec, aggregation="fedavgm") != r1.rounds[-1]
        assert dataclasses.replace(rec, sampled=rec.sampled[:-1]) != r1.rounds[-1]
        assert rec != rec.client_metrics

    def test_round_records_view_the_result_metrics(self):
        res = run_federated(small_cfg())
        assert res.metrics.shape == (4, len(res.evaluated), len(METRICS))
        for t, rec in enumerate(res.rounds):
            assert np.shares_memory(rec.metrics, res.metrics) and rec.evaluated is res.evaluated
            rows = rec.client_metrics
            assert [m["client"] for m in rows] == res.evaluated
            assert [[m[key] for key in METRICS] for m in rows] == res.metrics[t].tolist()

    def test_result_keeps_each_client_round_as_four_floats(self):
        # One dict per client and round held about 300 B; four float64s are 32 B,
        # and every other field of the result is small next to client_params.
        cfg = small_cfg(n_clients=120, c_ratio=0.1, rounds=5, n_per_class=1000,
                        hidden_dims=[4], optimized_client=None)
        tracemalloc.start()
        try:
            res = run_federated(cfg)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            client_rounds = res.metrics.shape[0] * res.metrics.shape[1]
            params_bytes = sum(p.nbytes for p in res.client_params.values())
            del res
            gc.collect()
            retained = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert client_rounds >= 500
        assert retained < 100 * client_rounds + params_bytes

    def test_full_action_reduces_to_naive(self):
        opt = run_federated(small_cfg(action_strategy="full", optimized_client=0))
        naive = run_federated(small_cfg(optimized_client=None))
        np.testing.assert_array_equal(opt.final_global, naive.final_global)
        for a, b in zip(opt.rounds, naive.rounds):
            assert a.client_metrics == b.client_metrics
            assert a.optimized["samples_used"] == a.optimized["train_size"]

    def test_naive_clients_of_a_round_train_in_one_call(self, monkeypatch):
        from fedopt import orchestrator

        calls = []

        def counting(*args, **kwargs):
            calls.append(len(args[8]))  # sizes: one entry per client
            return client_local_train(*args, **kwargs)

        monkeypatch.setattr(orchestrator, "client_local_train", counting)
        cfg = small_cfg(n_clients=5, rounds=3, finetune_max_epochs=2, finetune_patience=5)
        res = run_federated(cfg)
        # per round: all 5 clients, the optimized one included, at once; then 2 fine-tune epochs
        assert calls == [5] * 3 + [1, 1]
        assert len(res.finetune_trace) == 2

    def test_non_finite_client_in_a_stacked_round_exits_3_naming_the_first(
        self, monkeypatch, tmp_path, caplog
    ):
        from fedopt import orchestrator
        from fedopt.cli import main

        outputs = []

        def poisoned(arch, w_init, x, y, epochs, batch_size, lr, rngs, sizes, *rest):
            # In the round's call, NaN features for its 3rd and 5th client.
            if len(sizes) > 1:
                x = x.copy()
                starts = np.cumsum([0, *sizes])
                for c in (2, 4):
                    x[starts[c] : starts[c + 1]] = np.nan
            out = client_local_train(arch, w_init, x, y, epochs, batch_size, lr, rngs, sizes,
                                     *rest)
            outputs.append(out)
            return out

        monkeypatch.setattr(orchestrator, "client_local_train", poisoned)
        # Every client's parameters are checked before the optimized client's reward.
        monkeypatch.setattr(orchestrator, "compute_reward", lambda *args: math.nan)
        cfg = tmp_path / "six.cfg"
        cfg.write_text("n_clients = 6\nrounds = 2\nn_per_class = 60\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        # The call trains clients 0-5, optimized client 0 first; clients 2 and 4 diverge.
        assert "runtime: round 0: client 2: non-finite parameters (diverged)" in caplog.text
        assert len(outputs) == 1
        assert [np.isfinite(w).all() for w in outputs[0]] == [True, True, False, True, False, True]
        assert not out.exists()

    def test_non_finite_optimized_client_exits_3_naming_it(self, monkeypatch, tmp_path, caplog):
        from fedopt import orchestrator
        from fedopt.cli import main

        def poisoned(arch, w_init, x, y, epochs, batch_size, lr, rngs, sizes, *rest):
            # NaN features for the optimized client, 4th of the round's sampled clients.
            if len(sizes) > 1:
                x = x.copy()
                x[sum(sizes[:3]) : sum(sizes[:4])] = np.nan
            return client_local_train(arch, w_init, x, y, epochs, batch_size, lr, rngs, sizes,
                                      *rest)

        monkeypatch.setattr(orchestrator, "client_local_train", poisoned)
        monkeypatch.setattr(orchestrator._OptimizedClient, "end_round", None)  # never reached
        cfg = tmp_path / "six.cfg"
        cfg.write_text("n_clients = 6\noptimized_client = 3\nrounds = 2\nn_per_class = 60\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        assert "runtime: round 0: client 3: non-finite parameters (diverged)" in caplog.text
        assert not out.exists()

    def test_optimized_client_trains_in_the_round_call_on_its_selection(self, monkeypatch):
        from fedopt import data, orchestrator

        cfg = small_cfg(n_clients=4, c_ratio=0.75, rounds=8, aggregation="fedprox",
                        local_epochs=2, batch_size=5)
        # Rounds are sampled a block at a time, so the i-th sampled list and the
        # i-th round call are round i's; a selection belongs to the next call.
        sampled, calls, sels = [], [], {}
        partition = data.action_partition

        def sampling(*args):
            sampled.append(sample_clients(*args))
            return sampled[-1]

        def selecting(*args):
            sels[len(calls)] = partition(*args)
            return sels[len(calls)]

        def training(*args):
            out = client_local_train(*args)
            if len(calls) < cfg.rounds:  # the round's call, not a fine-tune epoch
                calls.append((args[1].copy(), args[8], args[2], out))
            return out

        monkeypatch.setattr(orchestrator, "sample_clients", sampling)
        monkeypatch.setattr(data, "action_partition", selecting)
        monkeypatch.setattr(orchestrator, "client_local_train", training)
        run_federated(cfg)
        ds = generate_synthetic(cfg.n_classes, cfg.n_per_class, cfg.feature_dim, cfg.spread,
                                cfg.seed)
        arch = [cfg.feature_dim, *cfg.hidden_dims, cfg.n_classes]
        trained_opt = 0
        for t, (s, (w_global, sizes, x, out)) in enumerate(zip(sampled, calls)):
            assert len(sizes) == len(s)  # every client has training rows
            if 0 not in s:
                assert t not in sels
                continue
            sel, c = sels[t], s.index(0)
            assert sizes[c] == len(sel)
            np.testing.assert_array_equal(x[sum(sizes[:c]) : sum(sizes[: c + 1])],
                                          ds.features[sel])
            (want,) = client_local_train(
                arch, w_global, ds.features[sel], ds.labels[sel], cfg.local_epochs,
                cfg.batch_size, cfg.lr,
                [np.random.default_rng(_derived_seed(cfg.seed, 29, t, 0))], [len(sel)],
                cfg.prox_mu, w_global)
            assert np.array_equal(out[c], want)
            trained_opt += 1
        assert len(sampled) == len(calls) == cfg.rounds and 0 < trained_opt < cfg.rounds

    def test_l_agg_matches_independent_recomputation(self):
        cfg = small_cfg()
        res = run_federated(cfg)
        # rebuild round-0 inputs from the same seed streams
        from fedopt.orchestrator import _derived_seed

        ds = generate_synthetic(cfg.n_classes, cfg.n_per_class, cfg.feature_dim,
                                cfg.spread, cfg.seed)
        part = dirichlet_partition(ds, cfg.n_clients, cfg.dirichlet_alpha, cfg.seed)[0]
        part = train_val_split(part, cfg.split_ratio, _derived_seed(cfg.seed, 17, 0))
        arch = [cfg.feature_dim, *cfg.hidden_dims, cfg.n_classes]
        w0 = Mlp.init_glorot(arch, np.random.default_rng(cfg.seed + 1)).params.copy()
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
        assert last == reference_client_metrics(cfg, res.final_global)

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
        ("agent", "b_l", 0.0), ("agent", "soft_update_tau", 0.0), ("reward", "tau", 0),
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
        with pytest.raises(ValueError, match=r"no naive client has validation rows .*"
                                             r"\(client 0, client 1, client 2, client 3\)"):
            run_federated(cfg)

    def test_optimized_client_alone_fails_before_round_0(self, monkeypatch):
        # With no naive client, the naive mean would be the optimized client itself.
        from fedopt import orchestrator

        def no_round(*args, **kwargs):
            raise AssertionError("a round started")

        monkeypatch.setattr(orchestrator, "sample_clients", no_round)
        with pytest.raises(ValueError, match=r"no naive client has validation rows .*"
                                             r"\(client 0 is the only client\)"):
            run_federated(small_cfg(n_clients=1, optimized_client=0))

    @pytest.mark.parametrize("seed,split", [(2, "training"), (17, "validation")])
    def test_optimized_client_without_rows_fails_before_round_0(
        self, monkeypatch, seed, split
    ):
        from fedopt import orchestrator

        def no_round(*args, **kwargs):
            raise AssertionError("a round started")

        monkeypatch.setattr(orchestrator, "sample_clients", no_round)
        cfg = ExperimentConfig(n_clients=20, n_per_class=5, dirichlet_alpha=0.05, seed=seed)
        with pytest.raises(ValueError, match=f"^client 0: the optimized client has no {split} rows"):
            run_federated(cfg)
