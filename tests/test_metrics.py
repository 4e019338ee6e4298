import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedopt.metrics import accuracy, class_prf1, compute_state, confusion, evaluate
from fedopt.nn import Mlp, forward


class TestConfusion:
    def test_perfect_is_diagonal(self):
        cm = confusion(np.array([0, 1, 2]), np.array([0, 1, 2]), 3)
        np.testing.assert_array_equal(cm, np.eye(3, dtype=int))

    def test_hand_counts(self):
        cm = confusion(np.array([0, 1, 1]), np.array([0, 0, 1]), 2)
        assert cm[0, 0] == 1 and cm[0, 1] == 1 and cm[1, 1] == 1

    def test_empty(self):
        cm = confusion(np.array([], dtype=int), np.array([], dtype=int), 3)
        assert cm.sum() == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion(np.array([0]), np.array([0, 1]), 2)


class TestClassPrf1:
    def test_symmetric_half(self):
        # P = R = 0.5 for class 0
        cm = np.array([[1, 1], [1, 1]])
        p, r, f1 = class_prf1(cm)
        assert p[0] == r[0] == f1[0] == 0.5

    def test_absent_class_zero_convention(self):
        cm = np.array([[2, 0], [0, 0]])
        p, r, f1 = class_prf1(cm)
        assert p[1] == r[1] == f1[1] == 0.0

    def test_hand_example(self):
        cm = confusion(np.array([0, 1, 1]), np.array([0, 0, 1]), 2)
        p, r, f1 = class_prf1(cm)
        assert (p[0], r[0]) == (1.0, 0.5)
        assert f1[0] == pytest.approx(2 / 3)
        assert (p[1], r[1]) == (0.5, 1.0)
        assert f1[1] == pytest.approx(2 / 3)

    def test_label_permutation_equivariance(self):
        rng = np.random.default_rng(0)
        truth = rng.integers(0, 4, 100)
        preds = rng.integers(0, 4, 100)
        perm = np.array([2, 0, 3, 1])
        base = class_prf1(confusion(preds, truth, 4))
        permuted = class_prf1(confusion(perm[preds], perm[truth], 4))
        for b, q in zip(base, permuted):
            np.testing.assert_allclose(q[perm], b)


def reference_class_prf1(cm):
    """class_prf1 with numpy's sum(axis=-2) and sum(axis=-1) for the column and row sums."""
    tp = np.diagonal(cm, axis1=-2, axis2=-1).astype(np.float64)
    fp = cm.sum(axis=-2) - tp
    fn = cm.sum(axis=-1) - tp
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
        r = np.where(tp + fn > 0, tp / (tp + fn), 0.0)
        f1 = np.where(p + r > 0, 2 * p * r / (p + r), 0.0)
    return p, r, f1


class TestClassPrf1Exact:
    @pytest.mark.parametrize("shape", [(2, 2), (4, 4), (7, 7), (1, 4, 4), (3, 2, 2),
                                       (200, 4, 4), (5, 200, 4, 4), (2, 3, 5, 5)])
    @pytest.mark.parametrize("high", [1, 3, 1000])
    def test_view_sums_equal_the_reduce_form_bit_for_bit(self, shape, high):
        # high = 1 gives all-zero matrices, high = 3 many empty rows and columns.
        cm = np.random.default_rng([len(shape), shape[-1], high]).integers(0, high, size=shape)
        before = cm.copy()
        for got, want in zip(class_prf1(cm), reference_class_prf1(cm)):
            assert got.shape == want.shape == shape[:-1] and got.tobytes() == want.tobytes()
        assert np.array_equal(cm, before)


@st.composite
def confusion_stacks(draw):
    """Integer confusion stacks of 0 to 2 leading axes, with some all-zero rows and columns."""
    shape = (*draw(st.lists(st.integers(1, 3), max_size=2)), *[draw(st.integers(2, 6))] * 2)
    counts = st.one_of(st.just(0), st.integers(0, 3), st.integers(0, 10**6))
    cm = np.array(draw(st.lists(counts, min_size=int(np.prod(shape)),
                                max_size=int(np.prod(shape)))), dtype=np.int64).reshape(shape)
    classes = st.lists(st.integers(0, shape[-1] - 1), max_size=shape[-1])
    cm[..., draw(classes), :] = 0  # classes never true
    cm[..., :, draw(classes)] = 0  # classes never predicted
    return cm


class TestClassPrf1Divide:
    @settings(max_examples=200, deadline=None)
    @given(cm=confusion_stacks())
    def test_equals_the_errstate_where_formula_and_never_warns(self, cm):
        # np.divide(where=) divides only where the denominator is positive, so
        # 0/0 raises no flag at all, where the np.where form hid one.
        with np.errstate(all="raise"):
            got = class_prf1(cm)
        for g, w in zip(got, reference_class_prf1(cm)):
            assert g.dtype == w.dtype == np.float64 and g.shape == w.shape == cm.shape[:-1]
            assert g.tobytes() == w.tobytes()


class TestAccuracy:
    def test_diagonal(self):
        assert accuracy(np.diag([3, 2, 5])) == 1.0

    def test_off_diagonal(self):
        assert accuracy(np.array([[0, 2], [3, 0]])) == 0.0

    def test_hand(self):
        cm = confusion(np.array([0, 1, 1]), np.array([0, 0, 1]), 2)
        assert accuracy(cm) == pytest.approx(2 / 3)

    def test_empty(self):
        assert accuracy(np.zeros((3, 3), dtype=int)) == 0.0

    def test_balanced_equals_mean_recall(self):
        rng = np.random.default_rng(1)
        truth = np.repeat(np.arange(3), 40)
        preds = rng.integers(0, 3, len(truth))
        cm = confusion(preds, truth, 3)
        _, r, _ = class_prf1(cm)
        assert accuracy(cm) == pytest.approx(np.mean(r))


class TestComputeState:
    def test_perfect_model_all_ones(self):
        # weight matrix picks out a one-hot feature per class
        arch = [2, 2]
        m = Mlp(arch)
        m.weights[0][...] = np.eye(2) * 10
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        y = np.array([0, 1])
        s, _ = compute_state(m.params, arch, x, y)
        np.testing.assert_array_equal(s, [1.0, 1.0])

    def test_constant_prediction_balanced(self):
        arch = [2, 2]
        m = Mlp(arch)
        m.biases[0][...] = [1.0, 0.0]  # always predicts class 0
        x = np.zeros((4, 2))
        y = np.array([0, 0, 1, 1])
        s, _ = compute_state(m.params, arch, x, y)
        np.testing.assert_allclose(s, [2 / 3, 0.0])

    def test_range_and_purity(self):
        rng = np.random.default_rng(2)
        arch = [3, 4, 3]
        m = Mlp.init_glorot(arch, rng)
        x = rng.normal(size=(30, 3))
        y = rng.integers(0, 3, 30)
        s1, _ = compute_state(m.params, arch, x, y)
        s2, _ = compute_state(m.params, arch, x, y)
        assert np.all((s1 >= 0) & (s1 <= 1))
        np.testing.assert_array_equal(s1, s2)

    def test_empty_dataset(self):
        with pytest.raises(ValueError, match="empty dataset"):
            compute_state(Mlp([2, 2]).params, [2, 2], np.zeros((0, 2)), np.array([]))

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_label_out_of_range(self, bad):
        arch = [2, 4, 3]
        w = Mlp.init_glorot(arch, np.random.default_rng(0)).params
        with pytest.raises(ValueError, match="label out of range"):
            compute_state(w, arch, np.zeros((3, 2)), np.array([0, bad, 1]))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60), c=st.integers(2, 6),
           hidden=st.lists(st.integers(1, 6), max_size=2), scale=st.sampled_from([0.0, 1.0, 30.0]))
    def test_f1_equals_class_prf1_of_confusion(self, seed, n, c, hidden, scale):
        # A model with zero weights predicts class 0 everywhere: whole columns are empty.
        rng = np.random.default_rng(seed)
        arch = [3, *hidden, c]
        w = Mlp.init_glorot(arch, rng).params * scale
        x = rng.normal(size=(n, 3))
        y = rng.integers(0, rng.integers(1, c + 1), n)  # some classes may have no rows
        f1, _ = compute_state(w, arch, x, y)
        preds = forward(Mlp(arch, w), x).argmax(axis=1)
        assert f1.tobytes() == class_prf1(confusion(preds, y, c))[2].tobytes()

    def test_loss_equals_dataset_loss(self):
        from fedopt.orchestrator import dataset_loss

        rng = np.random.default_rng(3)
        arch = [3, 5, 3]
        w = Mlp.init_glorot(arch, rng).params.copy()
        x = rng.normal(size=(40, 3))
        y = rng.integers(0, 3, 40)
        _, loss = compute_state(w, arch, x, y)
        assert loss == dataset_loss(arch, w, x, y)

    def test_huge_finite_parameters_give_a_non_finite_loss(self):
        # Their forward pass overflows. Called directly, numpy warns of it;
        # run_federated silences that for a whole run, as this errstate does.
        from fedopt.orchestrator import dataset_loss

        rng = np.random.default_rng(3)
        arch = [3, 5, 3]
        w = Mlp.init_glorot(arch, rng).params * 1e200
        x = rng.normal(size=(40, 3))
        y = rng.integers(0, 3, 40)
        with pytest.warns(RuntimeWarning):
            compute_state(w, arch, x, y)
        with np.errstate(over="ignore", invalid="ignore"):
            s, loss = compute_state(w, arch, x, y)
            assert np.all((s >= 0) & (s <= 1)) and not np.isfinite(loss)
            assert not np.isfinite(dataset_loss(arch, w, x, y))
            assert evaluate(Mlp(arch, w), x, y, np.arange(40)).sum() == 40


class TestStacked:
    def _stack(self, seed=4, groups=5, n=200, c=4):
        rng = np.random.default_rng(seed)
        preds = rng.integers(0, c, n)
        truth = rng.integers(0, c, n)
        slot = rng.integers(0, groups, n)
        return preds, truth, slot

    def test_confusion_stack_matches_per_group(self):
        preds, truth, slot = self._stack()
        stack = confusion(preds, truth, 4, slot, 6)  # group 5 has no samples
        assert stack.shape == (6, 4, 4)
        for g in range(6):
            in_g = slot == g
            np.testing.assert_array_equal(stack[g], confusion(preds[in_g], truth[in_g], 4))

    def test_metrics_of_stack_equal_2d_metrics(self):
        preds, truth, slot = self._stack()
        stack = confusion(preds, truth, 4, slot, 6)
        p, r, f1 = class_prf1(stack)
        acc = accuracy(stack)
        for g in range(6):
            pg, rg, f1g = class_prf1(stack[g])
            assert (p[g] == pg).all() and (r[g] == rg).all() and (f1[g] == f1g).all()
            assert acc[g] == accuracy(stack[g])
        assert acc[5] == 0.0

    @pytest.mark.parametrize("preds,truth,groups", [
        ([0, 4], [0, 1], None),   # prediction outside [0, C)
        ([0, 1], [0, -1], None),  # negative label
        ([0, 1], [0, 1], [0, 2]),  # group outside [0, n_groups)
    ])
    def test_confusion_rejects_out_of_range(self, preds, truth, groups):
        with pytest.raises(ValueError):
            confusion(np.array(preds), np.array(truth), 4, groups, 2)
