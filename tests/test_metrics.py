import numpy as np
import pytest

from fedopt.metrics import accuracy, class_prf1, compute_state, confusion
from fedopt.nn import Mlp


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
        s, _ = compute_state(m.get_params(), arch, x, y)
        np.testing.assert_array_equal(s.f1_per_class, [1.0, 1.0])

    def test_constant_prediction_balanced(self):
        arch = [2, 2]
        m = Mlp(arch)
        m.biases[0][...] = [1.0, 0.0]  # always predicts class 0
        x = np.zeros((4, 2))
        y = np.array([0, 0, 1, 1])
        s, _ = compute_state(m.get_params(), arch, x, y)
        np.testing.assert_allclose(s.f1_per_class, [2 / 3, 0.0])

    def test_range_and_purity(self):
        rng = np.random.default_rng(2)
        arch = [3, 4, 3]
        m = Mlp.init_glorot(arch, rng)
        x = rng.normal(size=(30, 3))
        y = rng.integers(0, 3, 30)
        s1, _ = compute_state(m.get_params(), arch, x, y)
        s2, _ = compute_state(m.get_params(), arch, x, y)
        assert np.all((s1.f1_per_class >= 0) & (s1.f1_per_class <= 1))
        np.testing.assert_array_equal(s1.f1_per_class, s2.f1_per_class)

    def test_empty_dataset(self):
        with pytest.raises(ValueError):
            compute_state(Mlp([2, 2]).get_params(), [2, 2], np.zeros((0, 2)), np.array([]))

    def test_loss_equals_dataset_loss(self):
        from fedopt.orchestrator import dataset_loss

        rng = np.random.default_rng(3)
        arch = [3, 5, 3]
        w = Mlp.init_glorot(arch, rng).get_params()
        x = rng.normal(size=(40, 3))
        y = rng.integers(0, 3, 40)
        _, loss = compute_state(w, arch, x, y)
        assert loss == dataset_loss(arch, w, x, y)


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
