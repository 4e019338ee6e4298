import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedopt.data import (
    action_partition,
    dirichlet_partition,
    generate_synthetic,
    load_csv,
    train_val_split,
)


class TestGenerateSynthetic:
    def test_zero_spread_collapses_to_centers(self):
        ds = generate_synthetic(2, 10, 3, spread=0.0, seed=0)
        for c in range(2):
            rows = ds.features[ds.labels == c]
            assert np.all(rows == rows[0])

    def test_counts(self):
        ds = generate_synthetic(4, 100, 5, 1.0, seed=1)
        assert ds.features.shape == (400, 5)
        assert all(np.sum(ds.labels == c) == 100 for c in range(4))

    def test_seed_determinism(self):
        a = generate_synthetic(3, 20, 4, 1.0, seed=7)
        b = generate_synthetic(3, 20, 4, 1.0, seed=7)
        np.testing.assert_array_equal(a.features, b.features)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            generate_synthetic(1, 10, 3, 1.0, 0)


class TestDirichletPartition:
    def test_single_client_gets_everything(self):
        ds = generate_synthetic(3, 30, 2, 1.0, seed=0)
        parts = dirichlet_partition(ds, 1, 0.5, seed=0)
        assert parts[0].train_size == 90

    def test_partition_property(self):
        ds = generate_synthetic(4, 50, 2, 1.0, seed=2)
        parts = dirichlet_partition(ds, 5, 0.3, seed=3)
        all_idx = np.concatenate([p.all_train_indices() for p in parts])
        assert len(all_idx) == 200
        assert len(np.unique(all_idx)) == 200

    def test_high_alpha_near_uniform(self):
        # over 20 seeds, huge alpha keeps each client near global proportions
        for seed in range(20):
            ds = generate_synthetic(3, 120, 2, 1.0, seed=seed)
            parts = dirichlet_partition(ds, 4, 1e6, seed=seed)
            for p in parts:
                total = p.train_size
                if total == 0:
                    continue
                props = p.class_counts / total
                assert np.all(np.abs(props - 1 / 3) < 0.05)

    def test_invalid_args(self):
        ds = generate_synthetic(2, 5, 2, 1.0, seed=0)
        with pytest.raises(ValueError):
            dirichlet_partition(ds, 0, 0.5, 0)
        with pytest.raises(ValueError):
            dirichlet_partition(ds, 2, 0.0, 0)


class TestTrainValSplit:
    def _part(self, counts, seed=0):
        ds = generate_synthetic(len(counts), max(counts), 2, 1.0, seed=seed)
        parts = dirichlet_partition(ds, 1, 1.0, seed=seed)
        for c, n in enumerate(counts):
            parts[0].train_indices_by_class[c] = parts[0].train_indices_by_class[c][:n]
        return parts[0]

    def test_80_20(self):
        p = train_val_split(self._part([10, 10]), 0.8, seed=0)
        assert [len(ix) for ix in p.train_indices_by_class] == [8, 8]
        assert len(p.val_indices) == 4

    def test_single_sample_goes_to_train(self):
        p = train_val_split(self._part([1, 5]), 0.8, seed=0)
        assert len(p.train_indices_by_class[0]) == 1

    def test_disjoint(self):
        p = train_val_split(self._part([20, 30]), 0.8, seed=1)
        assert not set(p.all_train_indices()) & set(p.val_indices)

    def test_bad_ratio(self):
        with pytest.raises(ValueError):
            train_val_split(self._part([5, 5]), 1.0, 0)


class TestActionPartition:
    def _split_part(self, seed=0):
        ds = generate_synthetic(3, 40, 2, 1.0, seed=seed)
        return train_val_split(dirichlet_partition(ds, 1, 1.0, seed)[0], 0.8, seed)

    @staticmethod
    def _per_class(kept, p):
        return [kept[np.isin(kept, idx)] for idx in p.train_indices_by_class]

    def test_all_ones_identity(self):
        p = self._split_part()
        kept = action_partition(p, np.ones(3), seed=0)
        np.testing.assert_array_equal(kept, p.all_train_indices())
        assert kept.dtype == np.int64

    def test_half_fraction_counts_and_subset(self):
        p = self._split_part()
        p.train_indices_by_class[0] = p.train_indices_by_class[0][:10]
        kept = action_partition(p, np.array([0.5, 1.0, 1.0]), seed=1)
        first = self._per_class(kept, p)[0]
        assert len(first) == 5
        assert set(first) <= set(p.train_indices_by_class[0])
        # class order kept, each class sorted, full classes unchanged
        np.testing.assert_array_equal(kept, np.concatenate(
            [first, p.train_indices_by_class[1], p.train_indices_by_class[2]]))
        assert np.all(np.diff(first) > 0)

    def test_empty_class_is_skipped(self):
        p = self._split_part()
        p.train_indices_by_class[1] = np.empty(0, dtype=np.int64)
        kept = action_partition(p, np.full(3, 0.5), seed=2)
        assert [len(k) for k in self._per_class(kept, p)] == [
            max(1, len(ix) // 2) if len(ix) else 0 for ix in p.train_indices_by_class]

    def test_seed_determinism(self):
        p = self._split_part()
        a = action_partition(p, np.full(3, 0.4), seed=5)
        b = action_partition(p, np.full(3, 0.4), seed=5)
        np.testing.assert_array_equal(a, b)

    def test_fraction_out_of_range(self):
        p = self._split_part()
        # NaN used to pass both range checks and fail in int(floor(nan * count)).
        for bad in (0.0, -0.0, 1.1, 1.5, np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match=r"fractions outside \(0, 1\]"):
                action_partition(p, np.array([0.5, bad, 1.0]), seed=0)

    @given(f1=st.floats(0.05, 1.0), f2=st.floats(0.05, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_monotonic_in_fraction(self, f1, f2):
        lo, hi = sorted((f1, f2))
        p = self._split_part(seed=3)
        a = action_partition(p, np.full(3, lo), seed=0)
        b = action_partition(p, np.full(3, hi), seed=0)
        for sa, sb in zip(self._per_class(a, p), self._per_class(b, p)):
            assert len(sa) <= len(sb)


def test_load_csv(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text("1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,1\n")
    ds = load_csv(str(path))
    assert ds.features.shape == (3, 2)
    assert ds.n_classes == 2
    np.testing.assert_array_equal(ds.labels, [0, 1, 1])


@pytest.mark.parametrize("text,match", [
    ("1.0,2.0,0\n3.0,4.0,-1\n", r"data row 2: label -1.0 "),
    ("1.0,2.0,1.5\n3.0,4.0,1\n", r"data row 1: label 1.5 "),
    ("1.0,2.0,0\n3.0,4.0,nan\n", r"data row 2: label nan "),
    ("", r"no data rows"),
    ("1.0,2.0,0\n3.0,4.0,0\n", r"fewer than two classes"),
    ("1.0,2.0,1\n3.0,4.0,1\n", r"fewer than two classes"),
    # These used to load: a non-finite feature diverged in round 0 (with a
    # matmul RuntimeWarning for inf), and labels alone gave "bad layer_dims".
    ("1.0,2.0,0\n3.0,nan,1\n", r"data row 2: non-finite feature"),
    ("1.0,2.0,0\n3.0,4.0,1\n-inf,4.0,1\n", r"data row 3: non-finite feature"),
    ("inf,2.0,0\n3.0,4.0,1\n", r"data row 1: non-finite feature"),
    ("1.0,nan,0\n3.0,4.0,-1\n", r"data row 1: non-finite feature"),
    ("1.0,2.0,-1\n3.0,nan,1\n", r"data row 1: label -1.0 "),  # the first bad row of either kind
    ("0\n1\n1\n", r"no feature column"),
    ("# x,y\n1.0,2.0,0\n\n3.0,4.0,1,7  # four\n", r"data row 2 has 4 columns, expected 3$"),
])
def test_load_csv_rejects_bad_labels_and_empty_files(tmp_path, text, match):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match) as info:
            load_csv(str(path))
    assert str(path) in str(info.value)


def test_run_with_bad_csv_exits_3(tmp_path):
    from fedopt.cli import main

    data = tmp_path / "bad.csv"
    data.write_text("1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,-1\n")
    cfg = tmp_path / "csv.cfg"
    cfg.write_text(f"dataset_csv = {data}\nrounds = 2\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert not (tmp_path / "o").exists()


def test_run_with_single_class_csv_exits_3(tmp_path, caplog):
    from fedopt.cli import main

    data = tmp_path / "one.csv"
    data.write_text("".join(f"{i}.0,0\n" for i in range(8)))
    cfg = tmp_path / "csv.cfg"
    cfg.write_text(f"dataset_csv = {data}\nn_clients = 2\nrounds = 3\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert f"{data}: labels hold fewer than two classes" in caplog.text
    assert not (tmp_path / "o").exists()
