import numpy as np
import pytest

from fedopt.nn import (
    Mlp,
    backward,
    cross_entropy_loss,
    forward,
    proximal_cross_entropy,
    sgd_step,
    softmax,
)


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
        m.weights[0] = np.eye(2)
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
        dims = [3, 4, 2]
        flat = Mlp.init_glorot(dims, np.random.default_rng(0)).get_params()
        m = Mlp.view_of(dims, flat)
        np.testing.assert_array_equal(m.get_params(), flat)
        flat[...] = 0.5
        # each hidden unit is 0.5, so each logit is 4 * 0.5 * 0.5 + 0.5
        assert np.all(forward(m, np.zeros((1, 3))) == 1.5)
        assert all(np.shares_memory(a, flat) for a in m.weights + m.biases)

    @pytest.mark.parametrize("flat", [np.zeros(3), np.zeros(6, dtype=np.float32)])
    def test_view_of_rejects_wrong_length_or_dtype(self, flat):
        with pytest.raises(ValueError):
            Mlp.view_of([2, 2], flat)


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
        rng = np.random.default_rng(2)
        s = softmax(rng.normal(scale=10, size=(20, 5)))
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)

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


class TestProximal:
    def test_mu_zero_is_plain_ce(self):
        logits = np.array([[1.0, -1.0]])
        labels = np.array([0])
        params = np.array([1.0, 2.0])
        plain, d_plain = cross_entropy_loss(logits, labels)
        loss, d, extra = proximal_cross_entropy(logits, labels, params, np.zeros(2), 0.0)
        assert loss == plain
        np.testing.assert_array_equal(d, d_plain)
        assert np.all(extra == 0.0)

    def test_equal_params_zero_term(self):
        p = np.array([1.0, 2.0])
        loss, _, extra = proximal_cross_entropy(np.zeros((1, 2)), [0], p, p, 5.0)
        assert loss == pytest.approx(np.log(2))
        assert np.all(extra == 0.0)

    def test_hand_term(self):
        params = np.array([1.0, 0.0])
        glob = np.array([0.0, 0.0])
        base, _ = cross_entropy_loss(np.zeros((1, 2)), [0])
        loss, _, extra = proximal_cross_entropy(np.zeros((1, 2)), [0], params, glob, 2.0)
        assert loss - base == pytest.approx(1.0)
        np.testing.assert_array_equal(extra, [2.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            proximal_cross_entropy(np.zeros((1, 2)), [0], np.zeros(2), np.zeros(3), 1.0)
