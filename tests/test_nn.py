import copy
import pickle

import numpy as np
import pytest

from fedopt.nn import (
    Mlp,
    backward,
    cross_entropy_grad,
    cross_entropy_loss,
    forward,
    input_grad,
    sgd_step,
)


# The reference loss-and-gradient and backprop below keep the combined form
# the lean training step replaced; tests compare the lean functions with them
# bit for bit.
def reference_cross_entropy(logits, labels):
    """Mean softmax cross-entropy and its gradient w.r.t. logits.

    For (G, n, c) logits the loss is an array of G per-model means.
    """
    logits = np.atleast_2d(logits)
    labels = np.asarray(labels, dtype=np.int64)
    n, c = logits.shape[-2:]
    if n == 0:
        raise ValueError("empty batch")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"label out of range [0, {c})")
    z = logits - logits.max(axis=-1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    # Row r of the (rows, c) view picks class labels[r].
    picked = np.arange(labels.size), labels.ravel()
    loss = -log_probs.reshape(-1, c)[picked].reshape(labels.shape).mean(axis=-1)
    d = np.exp(log_probs)
    d.reshape(-1, c)[picked] -= 1.0
    return (float(loss) if loss.ndim == 0 else loss), d / n


def reference_backward(model, acts, d_logits):
    """Backprop `d_logits` through the forward pass that filled `acts`.

    Returns (flat gradients in the canonical layout, gradient w.r.t. inputs).
    """
    assert len(acts) == len(model.weights) + 1
    grads = [None] * (2 * len(model.weights))  # w0, b0, w1, b1, ...: the canonical layout
    delta = np.atleast_2d(d_logits)
    lead = delta.shape[:-2]
    for i in reversed(range(len(model.weights))):
        grads[2 * i] = (acts[i].swapaxes(-1, -2) @ delta).reshape(*lead, -1)
        grads[2 * i + 1] = delta.sum(axis=-2)
        delta = delta @ model.weights[i].swapaxes(-1, -2)
        if i > 0:
            delta = delta * (acts[i] > 0.0)
    return np.concatenate(grads, axis=-1), delta


def reference_cross_entropy_grad(logits, labels, n_real=None):
    """cross_entropy_grad with numpy's row max and a flat fancy-index one-hot."""
    labels = np.asarray(labels, dtype=np.int64)
    n, c = logits.shape[-2:]
    z = logits - logits.max(axis=-1, keepdims=True)
    z -= np.log(np.exp(z).sum(axis=-1, keepdims=True))
    d = np.exp(z, out=z)
    d.reshape(-1, c)[np.arange(labels.size), labels.ravel()] -= 1.0
    if n_real is None:
        d /= n
    else:
        d /= n_real[..., None, None]
        d[np.arange(n) >= n_real[..., None]] = 0.0
    return d


def assert_same_floats(a, b):
    """Equal bit for bit, signed zeros included; any NaN matches any NaN, because
    IEEE 754 leaves open which NaN's sign and payload an operation returns."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    assert a.shape == b.shape
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert np.array_equal(a.view(np.uint64)[~nan], b.view(np.uint64)[~nan])


def numeric_param_grad(model, x, y, h=1e-5):
    """Central finite differences of the mean cross-entropy w.r.t. params."""
    base = model.params.copy()
    grad = np.zeros_like(base)
    for i in range(len(base)):
        for sign in (1.0, -1.0):
            model.params[...] = base
            model.params[i] += sign * h
            grad[i] += sign * cross_entropy_loss(forward(model, x), y)
    model.params[...] = base
    return grad / (2 * h)


def analytic_param_grad(model, x, y):
    acts = []
    logits = forward(model, x, acts)
    _, d_logits = reference_cross_entropy(logits, y)
    grads, _ = reference_backward(model, acts, d_logits)
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

    def test_acts_holds_the_input_and_each_layer_output(self):
        rng = np.random.default_rng(5)
        m = Mlp.init_glorot([3, 4, 2], rng)
        x = rng.normal(size=(5, 3))
        acts = []
        logits = forward(m, x, acts)
        hidden = np.maximum(x @ m.weights[0] + m.biases[0], 0.0)
        assert len(acts) == 3
        assert np.array_equal(acts[0], x) and np.array_equal(acts[1], hidden)
        assert acts[2] is logits

    @pytest.mark.parametrize("dims", [[3, 1, 2], [16, 32, 4], [2, 3, 4, 2], [5, 3]])
    @pytest.mark.parametrize("lead", [(), (1,), (5,)])
    def test_in_place_layers_equal_the_allocating_form_bit_for_bit(self, dims, lead):
        # forward adds the bias and applies ReLU in place; the reference makes
        # a new array for each operation, as forward once did.
        rng = np.random.default_rng(len(dims) * 10 + len(lead))
        n = Mlp(dims).params.size
        m = Mlp(dims, rng.normal(size=(*lead, n)))  # random biases too
        x = rng.normal(size=(*lead, 512, dims[0]))
        x[..., 0, :] = 0.0  # a row whose pre-activations are the biases alone
        want = [x]
        for i, (w, b) in enumerate(zip(m.weights, m.biases)):
            z = want[-1] @ w + b
            want.append(z if i == len(m.weights) - 1 else np.maximum(z, 0.0))
        acts = []
        forward(m, x, acts)
        assert len(acts) == len(want)
        for got, ref in zip(acts, want):
            assert got.shape == ref.shape and np.array_equal(got, ref)
            assert np.array_equal(np.signbit(got), np.signbit(ref))

    def test_reused_acts_holds_only_the_latest_pass(self):
        rng = np.random.default_rng(6)
        deep, shallow = Mlp.init_glorot([3, 4, 5, 2], rng), Mlp.init_glorot([3, 2], rng)
        x1, x2 = rng.normal(size=(4, 3)), rng.normal(size=(7, 3))
        acts = []
        forward(deep, x1, acts)
        logits = forward(shallow, x2, acts)
        assert len(acts) == 2
        assert np.array_equal(acts[0], x2) and acts[1] is logits
        fresh = []
        forward(shallow, x2, fresh)
        d = rng.normal(size=(7, 2))
        assert np.array_equal(backward(shallow, acts, d), backward(shallow, fresh, d))


class TestParamVector:
    @pytest.mark.parametrize("dims", [[2, 3, 2], [4, 8, 4], [5, 5]])
    def test_flatten_roundtrip_exact(self, dims):
        rng = np.random.default_rng(0)
        m = Mlp.init_glorot(dims, rng)
        flat = m.params.copy()
        m2 = Mlp(dims, flat.copy())
        np.testing.assert_array_equal(m2.params, m.params)
        x = rng.normal(size=(3, dims[0]))
        np.testing.assert_array_equal(forward(m2, x), forward(m, x))

    def test_param_count(self):
        m = Mlp([2, 3, 2])
        assert m.params.shape == (2 * 3 + 3 + 3 * 2 + 2,)

    def test_bad_length(self):
        with pytest.raises(ValueError):
            Mlp([2, 2], np.zeros(3))

    def test_view_of_shares_memory_with_flat(self):
        # Mlp(dims, flat) is a view of flat: no copy is made
        dims = [3, 4, 2]
        flat = Mlp.init_glorot(dims, np.random.default_rng(0)).params.copy()
        m = Mlp(dims, flat)
        assert m.params is flat
        flat[...] = 0.5
        # each hidden unit is 0.5, so each logit is 4 * 0.5 * 0.5 + 0.5
        assert np.all(forward(m, np.zeros((1, 3))) == 1.5)
        assert all(np.shares_memory(a, flat) for a in m.weights + m.biases)

    @pytest.mark.parametrize("flat", [np.zeros(3), np.zeros(6, dtype=np.float32), np.zeros(7),
                                      np.zeros(6, dtype=np.int64), np.zeros((2, 3))])
    def test_view_of_rejects_wrong_length_or_dtype(self, flat):
        with pytest.raises(ValueError):
            Mlp([2, 2], flat)

    def test_params_write_in_place(self):
        m = Mlp([2, 3, 2])
        params = m.params
        m.params[...] = np.arange(m.params.size, dtype=np.float32)
        assert m.params is params and m.params.dtype == np.float64
        np.testing.assert_array_equal(m.weights[0].ravel(), np.arange(6))
        np.testing.assert_array_equal(m.biases[1], [15, 16])


def _constructed(dims):
    """One model per constructor: zeros, Glorot, copy, and an existing vector."""
    glorot = Mlp.init_glorot(dims, np.random.default_rng(0))
    return {
        "zeros": Mlp(dims),
        "glorot": glorot,
        "copy": glorot.copy(),
        "vector": Mlp(dims, np.arange(Mlp(dims).params.size, dtype=np.float64)),
    }


class TestLayout:
    @pytest.mark.parametrize("dims", [[3, 4, 2], [5, 5], [2, 3, 4, 2]])
    @pytest.mark.parametrize("how", ["zeros", "glorot", "copy", "vector"])
    def test_weights_and_biases_are_views_of_params(self, dims, how):
        m = _constructed(dims)[how]
        n = sum((a + 1) * b for a, b in zip(dims, dims[1:]))
        assert m.params.dtype == np.float64 and m.params.shape == (n,)
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
        assert cross_entropy_loss(np.zeros((2, 4)), np.array([0, 3])) == pytest.approx(np.log(4))

    def test_saturated_no_overflow(self):
        loss = cross_entropy_loss(np.array([[1000.0, -1000.0]]), np.array([0]))
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_dlogits_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(6, 3))
        labels = rng.integers(0, 3, size=6)
        d = cross_entropy_grad(logits, labels)
        h = 1e-6
        num = np.zeros_like(logits)
        for i in range(logits.shape[0]):
            for j in range(logits.shape[1]):
                lp, lm = logits.copy(), logits.copy()
                lp[i, j] += h
                lm[i, j] -= h
                num[i, j] = (cross_entropy_loss(lp, labels) - cross_entropy_loss(lm, labels)) / (2 * h)
        assert max_rel_err(d, num) < 1e-4

    def test_softmax_rows_sum_to_one(self):
        # d = (softmax - onehot) / n, so d * n + onehot is the softmax
        rng = np.random.default_rng(2)
        logits = rng.normal(scale=10, size=(20, 5))
        labels = rng.integers(0, 5, 20)
        d = cross_entropy_grad(logits, labels)
        probs = d * 20 + np.eye(5)[labels]
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all((probs >= 0.0) & (probs <= 1.0 + 1e-12))

    def test_gradient_of_uniform_logits_is_one_over_c(self):
        labels = np.array([0, 3, 1])
        d = cross_entropy_grad(np.full((3, 4), 2.5), labels)
        np.testing.assert_allclose(d * 3 + np.eye(4)[labels], 0.25, atol=1e-15)

    def test_empty_batch(self):
        with pytest.raises(ValueError):
            cross_entropy_loss(np.zeros((0, 3)), np.array([], dtype=int))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy_loss(np.zeros((1, 3)), np.array([3]))

    @pytest.mark.parametrize("logits,labels", [
        (np.zeros((2, 3)), np.array([0, -1])),
        (np.zeros((2, 2, 3)), np.array([[0, 1], [2, 3]])),
    ], ids=["negative", "stacked"])
    def test_label_out_of_range_below_zero_and_stacked(self, logits, labels):
        with pytest.raises(ValueError, match=r"label out of range \[0, 3\)"):
            cross_entropy_loss(logits, labels)

    @pytest.mark.parametrize("shape", [(1, 2), (7, 3), (32, 4), (1, 5, 3), (4, 9, 2), (7, 32, 4)])
    def test_loss_and_grad_equal_the_combined_reference_bit_for_bit(self, shape):
        rng = np.random.default_rng(sum(shape))
        logits = rng.normal(scale=3.0, size=shape)
        labels = rng.integers(0, shape[-1], size=shape[:-1])
        ref_loss, ref_d = reference_cross_entropy(logits, labels)
        before = logits.copy()
        d = cross_entropy_grad(logits, labels)
        assert d.shape == logits.shape and np.array_equal(d, ref_d)
        assert np.array_equal(cross_entropy_loss(logits, labels), ref_loss)
        assert np.array_equal(logits, before)

    @pytest.mark.parametrize("shape,n_real", [
        ((32, 4), 7), ((32, 4), 32), ((5, 3), 2), ((3, 32, 4), [31, 2, 32]), ((4, 9, 2), [9, 1, 5, 3]),
    ], ids=["one_model", "one_model_full", "two_real_rows", "stacked", "stacked_with_1_row"])
    def test_padded_rows_are_zero_and_real_rows_equal_the_unpadded_call(self, shape, n_real):
        rng = np.random.default_rng(sum(shape))
        logits = rng.normal(scale=3.0, size=shape)
        labels = rng.integers(0, shape[-1], size=shape[:-1])
        n_real = np.array(n_real)
        d = cross_entropy_grad(logits, labels, n_real)
        assert d.shape == logits.shape
        for g in np.ndindex(shape[:-2]):
            k = n_real[g]
            assert np.array_equal(d[g][:k], cross_entropy_grad(logits[g][:k], labels[g][:k]))
            pad = d[g][k:]
            assert np.all(pad == 0.0) and not np.signbit(pad).any()


    @pytest.mark.parametrize("lead", [(), (1,), (3,), (20,)])
    @pytest.mark.parametrize("c", [2, 3, 4, 7])
    @pytest.mark.parametrize("kind", ["random", "ties", "special"])
    def test_column_max_and_one_hot_equal_the_reduce_and_fancy_index_forms(self, lead, c, kind):
        rng = np.random.default_rng([len(lead), c, len(kind)])
        shape = (*lead, 32, c)
        if kind == "random":
            logits = rng.normal(scale=3.0, size=shape)
        else:  # few distinct values, so rows tie at their max; both signs of zero
            logits = rng.choice([-1.0, -0.0, 0.0, 2.0, 2.0], size=shape)
        if kind == "special":  # some rows hold +-inf or NaN
            cells = rng.random(shape) < 0.05
            logits[cells] = rng.choice([np.inf, -np.inf, np.nan], size=cells.sum())
        labels = rng.integers(0, c, size=shape[:-1])
        n_real = np.array(rng.integers(1, 33, size=lead)) if lead else np.array(rng.integers(1, 33))
        before = logits.copy()
        with np.errstate(all="ignore"):
            for pad in (None, n_real):
                assert_same_floats(cross_entropy_grad(logits, labels, pad),
                                   reference_cross_entropy_grad(logits, labels, pad))
            assert_same_floats(cross_entropy_loss(logits, labels),
                               reference_cross_entropy(logits, labels)[0])
        assert logits.tobytes() == before.tobytes()


class TestBackward:
    def test_zero_upstream(self):
        rng = np.random.default_rng(3)
        m = Mlp.init_glorot([3, 4, 2], rng)
        acts = []
        forward(m, rng.normal(size=(5, 3)), acts)
        grads = backward(m, acts, np.zeros((5, 2)))
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

    @pytest.mark.parametrize("dims", [[3, 1, 2], [4, 8, 4], [2, 3, 4, 2], [5, 3]])
    @pytest.mark.parametrize("lead", [(), (1,), (5,)])
    def test_backward_and_input_grad_equal_the_combined_reference_bit_for_bit(self, dims, lead):
        rng = np.random.default_rng(len(dims) * 10 + len(lead))
        m = Mlp(dims, np.stack([Mlp.init_glorot(dims, rng).params for _ in range(lead[0])])
                if lead else Mlp.init_glorot(dims, rng).params)
        acts = []
        forward(m, rng.normal(size=(*lead, 6, dims[0])), acts)
        upstream = rng.normal(size=(*lead, 6, dims[-1]))
        ref_grads, ref_d_in = reference_backward(m, acts, upstream)
        assert np.array_equal(backward(m, acts, upstream), ref_grads)
        assert np.array_equal(input_grad(m, acts, upstream), ref_d_in)


class TestSgdStep:
    def test_zero_lr(self):
        p = np.array([1.0, 2.0])
        sgd_step(p, np.array([5.0, -5.0]), 0.0)
        np.testing.assert_array_equal(p, [1.0, 2.0])

    def test_hand_arithmetic(self):
        p = np.array([1.0, 1.0])
        assert sgd_step(p, np.array([1.0, -1.0]), 0.5) is None
        np.testing.assert_array_equal(p, [0.5, 1.5])

    def test_two_steps_compose(self):
        p, q = np.array([3.0]), np.array([3.0])
        g = np.array([2.0])
        sgd_step(p, g, 0.1)
        sgd_step(p, g, 0.1)
        sgd_step(q, g, 0.2)
        np.testing.assert_allclose(p, q)

    def test_length_mismatch(self):
        p = np.zeros(2)
        with pytest.raises(ValueError):
            sgd_step(p, np.zeros(3), 0.1)
        assert np.all(p == 0.0)

    def test_updates_a_client_stack_in_place_through_an_mlp_view(self):
        rng = np.random.default_rng(7)
        stack = rng.normal(size=(4, 26))
        before = stack.copy()
        m = Mlp([3, 4, 2], stack[1:3])
        weight0 = m.weights[0]
        grads = rng.normal(size=(2, 26))
        assert sgd_step(m.params, grads, 0.25) is None
        np.testing.assert_array_equal(stack[1:3], before[1:3] - 0.25 * grads)
        np.testing.assert_array_equal(stack[[0, 3]], before[[0, 3]])
        assert m.weights[0] is weight0
        np.testing.assert_array_equal(weight0, stack[1:3, :12].reshape(2, 3, 4))


    @pytest.mark.parametrize("rows", [0, 2, slice(0, 1), slice(1, 4), slice(0, 4)],
                             ids=["int_first", "int", "slice_of_1", "slice", "slice_all"])
    def test_step_view_shares_the_stack_and_equals_a_built_model(self, rows):
        dims = [3, 5, 2]
        rng = np.random.default_rng(11)
        stack = np.stack([Mlp.init_glorot(dims, rng).params for _ in range(4)])
        view, built = Mlp(dims, stack)[rows], Mlp(dims, stack[rows].copy())
        lead = stack[rows].shape[:-1]
        x = rng.normal(size=(*lead, 6, 3))
        y = rng.integers(0, 2, size=(*lead, 6))
        assert view.layer_dims == dims and view.params.shape == stack[rows].shape
        assert all(np.shares_memory(a, stack) for a in (view.params, *view.weights, *view.biases))
        acts_v, acts_b = [], []
        logits = forward(view, x, acts_v)
        assert np.array_equal(logits, forward(built, x, acts_b))
        d = cross_entropy_grad(logits, y)
        grads = backward(view, acts_v, d)
        assert np.array_equal(grads, backward(built, acts_b, d))
        assert np.array_equal(input_grad(view, acts_v, d), input_grad(built, acts_b, d))
        before = stack.copy()
        sgd_step(view.params, grads, 0.5)
        sgd_step(built.params, grads, 0.5)
        assert np.array_equal(stack[rows], built.params)
        others = np.ones(4, dtype=bool)
        others[rows] = False
        assert np.array_equal(stack[others], before[others])
        assert all(np.array_equal(a, b) for a, b in zip(view.weights + view.biases,
                                                        built.weights + built.biases))


class TestClientStack:
    """A (G, P) parameter stack holds G models; every function works slice by slice."""

    def test_stack_layout(self):
        dims = [3, 4, 2]
        stack = np.arange(3 * 26, dtype=np.float64).reshape(3, 26)
        m = Mlp(dims, stack)
        assert m.params is stack
        assert [w.shape for w in m.weights] == [(3, 3, 4), (3, 4, 2)]
        assert [b.shape for b in m.biases] == [(3, 1, 4), (3, 1, 2)]
        assert all(np.shares_memory(a, stack) for a in m.weights + m.biases)
        for g in range(3):
            one = Mlp(dims, stack[g])
            for a, b in zip(one.weights + one.biases, m.weights + m.biases):
                np.testing.assert_array_equal(a, b[g].reshape(a.shape))

    def test_rejects_more_than_one_leading_axis(self):
        with pytest.raises(ValueError):
            Mlp([2, 2], np.zeros((2, 1, 6)))

    @pytest.mark.parametrize("dims", [[3, 1, 2], [4, 8, 4], [2, 3, 4, 2], [5, 3]])
    @pytest.mark.parametrize("groups,rows", [(1, 1), (3, 1), (3, 7), (5, 32)])
    def test_four_functions_equal_the_2d_calls_slice_by_slice(self, dims, groups, rows):
        rng = np.random.default_rng(groups * 100 + rows)
        stack = np.stack([Mlp.init_glorot(dims, rng).params for _ in range(groups)])
        x = rng.normal(size=(groups, rows, dims[0]))
        y = rng.integers(0, dims[-1], size=(groups, rows))
        m = Mlp(dims, stack)
        acts = []
        logits = forward(m, x, acts)
        loss = cross_entropy_loss(logits, y)
        d_logits = cross_entropy_grad(logits, y)
        grads = backward(m, acts, d_logits)
        d_in = input_grad(m, acts, d_logits)
        stepped = stack.copy()
        sgd_step(stepped, grads, 0.3)
        assert loss.shape == (groups,) and grads.shape == stack.shape
        for g in range(groups):
            one = Mlp(dims, stack[g].copy())
            a1 = []
            lg1 = forward(one, x[g], a1)
            l1, d1 = cross_entropy_loss(lg1, y[g]), cross_entropy_grad(lg1, y[g])
            g1, di1 = backward(one, a1, d1), input_grad(one, a1, d1)
            assert np.array_equal(logits[g], lg1)
            assert loss[g] == l1 and np.array_equal(d_logits[g], d1)
            assert np.array_equal(grads[g], g1) and np.array_equal(d_in[g], di1)
            sgd_step(one.params, g1, 0.3)
            assert np.array_equal(stepped[g], one.params)
