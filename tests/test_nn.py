import copy
import pickle

import numpy as np
import pytest

from fedopt.nn import Mlp, backward, cross_entropy_loss, forward, sgd_step


def numeric_param_grad(model, x, y, h=1e-5):
    """Central finite differences of the mean cross-entropy w.r.t. params."""
    base = model.get_params()
    grad = np.zeros_like(base)
    for i in range(len(base)):
        for sign, slot in ((1.0, 0), (-1.0, 1)):
            p = base.copy()
            p[i] += sign * h
            model.set_params(p)
            loss, _ = cross_entropy_loss(forward(model, x), y)
            grad[i] += sign * loss
    model.set_params(base)
    return grad / (2 * h)


def analytic_param_grad(model, x, y):
    cache = {}
    logits = forward(model, x, cache)
    _, d_logits = cross_entropy_loss(logits, y)
    grads, _ = backward(model, cache, d_logits)
    return grads


def max_rel_err(a, b):
    return np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6))


class TestForward:
    def test_zero_model_zero_logits(self):
        m = Mlp([3, 4, 2])
        assert np.all(forward(m, np.ones((5, 3))) == 0.0)

    def test_hand_affine(self):
        m = Mlp([1, 1])
        m.weights[0][:] = 2.0
        m.biases[0][:] = 1.0
        assert forward(m, np.array([[3.0]]))[0, 0] == 7.0

    def test_identity_layer(self):
        m = Mlp([2, 2])
        m.weights[0][...] = np.eye(2)
        np.testing.assert_array_equal(forward(m, np.array([[1.0, 0.0]])), [[1.0, 0.0]])

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            forward(Mlp([3, 2]), np.ones((1, 4)))


class TestParamVector:
    @pytest.mark.parametrize("dims", [[2, 3, 2], [4, 8, 4], [5, 5]])
    def test_flatten_roundtrip_exact(self, dims):
        rng = np.random.default_rng(0)
        m = Mlp.init_glorot(dims, rng)
        flat = m.get_params()
        m2 = Mlp(dims)
        m2.set_params(flat)
        np.testing.assert_array_equal(m2.get_params(), flat)

    def test_param_count(self):
        m = Mlp([2, 3, 2])
        assert m.n_params == 2 * 3 + 3 + 3 * 2 + 2

    def test_bad_length(self):
        with pytest.raises(ValueError):
            Mlp([2, 2]).set_params(np.zeros(3))

    def test_view_of_shares_memory_with_flat(self):
        # Mlp(dims, flat) is a view of flat: no copy is made
        dims = [3, 4, 2]
        flat = Mlp.init_glorot(dims, np.random.default_rng(0)).get_params()
        m = Mlp(dims, flat)
        assert m.params is flat
        np.testing.assert_array_equal(m.get_params(), flat)
        flat[...] = 0.5
        # each hidden unit is 0.5, so each logit is 4 * 0.5 * 0.5 + 0.5
        assert np.all(forward(m, np.zeros((1, 3))) == 1.5)
        assert all(np.shares_memory(a, flat) for a in m.weights + m.biases)

    @pytest.mark.parametrize("flat", [np.zeros(3), np.zeros(6, dtype=np.float32), np.zeros(7),
                                      np.zeros(6, dtype=np.int64), np.zeros((2, 3))])
    def test_view_of_rejects_wrong_length_or_dtype(self, flat):
        with pytest.raises(ValueError):
            Mlp([2, 2], flat)

    def test_set_params_writes_in_place(self):
        m = Mlp([2, 3, 2])
        params = m.params
        m.set_params(np.arange(m.n_params, dtype=np.float32))
        assert m.params is params and m.params.dtype == np.float64
        np.testing.assert_array_equal(m.get_params(), np.arange(m.n_params))
        assert not np.shares_memory(m.get_params(), m.params)


def _constructed(dims):
    """One model per constructor: zeros, Glorot, copy, and an existing vector."""
    glorot = Mlp.init_glorot(dims, np.random.default_rng(0))
    return {
        "zeros": Mlp(dims),
        "glorot": glorot,
        "copy": glorot.copy(),
        "vector": Mlp(dims, np.arange(Mlp(dims).n_params, dtype=np.float64)),
    }


class TestLayout:
    @pytest.mark.parametrize("dims", [[3, 4, 2], [5, 5], [2, 3, 4, 2]])
    @pytest.mark.parametrize("how", ["zeros", "glorot", "copy", "vector"])
    def test_weights_and_biases_are_views_of_params(self, dims, how):
        m = _constructed(dims)[how]
        assert m.params.dtype == np.float64 and m.params.shape == (m.n_params,)
        assert all(np.shares_memory(a, m.params) for a in m.weights + m.biases)
        assert [w.shape for w in m.weights] == list(zip(dims, dims[1:]))
        assert [b.shape for b in m.biases] == [(b,) for b in dims[1:]]
        m.params[...] = 0.5
        assert all(np.all(a == 0.5) for a in m.weights + m.biases)

    def test_copy_shares_no_memory_with_source(self):
        src = Mlp.init_glorot([3, 4, 2], np.random.default_rng(1))
        dup = src.copy()
        np.testing.assert_array_equal(dup.params, src.params)
        assert not any(
            np.shares_memory(a, b) for a in (dup.params, *dup.weights, *dup.biases)
            for b in (src.params, *src.weights, *src.biases)
        )
        dup.params[...] = 0.0
        assert np.any(src.params != 0.0)

    def test_glorot_draws_in_layer_order(self):
        dims = [3, 4, 2]
        rng = np.random.default_rng(2)
        expected = []
        for a, b in zip(dims, dims[1:]):
            limit = np.sqrt(6.0 / (a + b))
            expected += [rng.uniform(-limit, limit, size=(a, b)).ravel(), np.zeros(b)]
        m = Mlp.init_glorot(dims, np.random.default_rng(2))
        np.testing.assert_array_equal(m.params, np.concatenate(expected))

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
                             ids=["deepcopy", "pickle"])
    def test_deepcopy_and_pickle_rebuild_the_views(self, clone):
        src = Mlp.init_glorot([3, 4, 2], np.random.default_rng(3))
        dup = clone(src)
        np.testing.assert_array_equal(dup.params, src.params)
        assert not np.shares_memory(dup.params, src.params)
        assert all(np.shares_memory(a, dup.params) for a in dup.weights + dup.biases)

    @pytest.mark.parametrize("how", ["zeros", "glorot", "copy", "vector"])
    def test_assigning_a_layer_raises(self, how):
        m = _constructed([2, 3, 2])[how]
        with pytest.raises(TypeError):
            m.weights[0] = np.ones((2, 3))
        with pytest.raises(TypeError):
            m.biases[1] = np.ones(2)


class TestCrossEntropy:
    def test_uniform_softmax(self):
        loss, _ = cross_entropy_loss(np.zeros((2, 4)), np.array([0, 3]))
        assert loss == pytest.approx(np.log(4))

    def test_saturated_no_overflow(self):
        loss, _ = cross_entropy_loss(np.array([[1000.0, -1000.0]]), np.array([0]))
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_dlogits_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(6, 3))
        labels = rng.integers(0, 3, size=6)
        _, d = cross_entropy_loss(logits, labels)
        h = 1e-6
        num = np.zeros_like(logits)
        for i in range(logits.shape[0]):
            for j in range(logits.shape[1]):
                lp, lm = logits.copy(), logits.copy()
                lp[i, j] += h
                lm[i, j] -= h
                num[i, j] = (cross_entropy_loss(lp, labels)[0] - cross_entropy_loss(lm, labels)[0]) / (2 * h)
        assert max_rel_err(d, num) < 1e-4

    def test_softmax_rows_sum_to_one(self):
        # d = (softmax - onehot) / n, so d * n + onehot is the softmax
        rng = np.random.default_rng(2)
        logits = rng.normal(scale=10, size=(20, 5))
        labels = rng.integers(0, 5, 20)
        _, d = cross_entropy_loss(logits, labels)
        probs = d * 20 + np.eye(5)[labels]
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all((probs >= 0.0) & (probs <= 1.0 + 1e-12))

    def test_gradient_of_uniform_logits_is_one_over_c(self):
        labels = np.array([0, 3, 1])
        _, d = cross_entropy_loss(np.full((3, 4), 2.5), labels)
        np.testing.assert_allclose(d * 3 + np.eye(4)[labels], 0.25, atol=1e-15)

    def test_empty_batch(self):
        with pytest.raises(ValueError):
            cross_entropy_loss(np.zeros((0, 3)), np.array([], dtype=int))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy_loss(np.zeros((1, 3)), np.array([3]))


class TestBackward:
    def test_zero_upstream(self):
        rng = np.random.default_rng(3)
        m = Mlp.init_glorot([3, 4, 2], rng)
        cache = {}
        forward(m, rng.normal(size=(5, 3)), cache)
        grads, _ = backward(m, cache, np.zeros((5, 2)))
        assert np.all(grads == 0.0)

    @pytest.mark.parametrize("dims", [[2, 3, 2], [4, 8, 4], [5, 5]])
    @pytest.mark.parametrize("seed", range(10))
    def test_gradient_check(self, dims, seed):
        rng = np.random.default_rng(seed)
        m = Mlp.init_glorot(dims, rng)
        x = rng.normal(size=(8, dims[0]))
        y = rng.integers(0, dims[-1], size=8)
        assert max_rel_err(analytic_param_grad(m, x, y), numeric_param_grad(m, x, y)) < 1e-4

    def test_duplicated_sample_mean_semantics(self):
        rng = np.random.default_rng(4)
        m = Mlp.init_glorot([3, 2], rng)
        x = rng.normal(size=(1, 3))
        y = np.array([1])
        g1 = analytic_param_grad(m, x, y)
        g2 = analytic_param_grad(m, np.vstack([x, x]), np.array([1, 1]))
        np.testing.assert_allclose(g1, g2, rtol=1e-12)

    def test_missing_cache(self):
        with pytest.raises(ValueError):
            backward(Mlp([2, 2]), {}, np.zeros((1, 2)))


class TestSgdStep:
    def test_zero_lr(self):
        p = np.array([1.0, 2.0])
        np.testing.assert_array_equal(sgd_step(p, np.array([5.0, -5.0]), 0.0), p)

    def test_hand_arithmetic(self):
        out = sgd_step(np.array([1.0, 1.0]), np.array([1.0, -1.0]), 0.5)
        np.testing.assert_array_equal(out, [0.5, 1.5])

    def test_two_steps_compose(self):
        p = np.array([3.0])
        g = np.array([2.0])
        np.testing.assert_allclose(sgd_step(sgd_step(p, g, 0.1), g, 0.1), sgd_step(p, g, 0.2))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sgd_step(np.zeros(2), np.zeros(3), 0.1)

