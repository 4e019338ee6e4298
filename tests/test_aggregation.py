from collections import deque

import numpy as np
import pytest

from fedopt.aggregation import (
    STRATEGIES,
    ClientUpdate,
    ServerState,
    aggregate,
    fed_avg,
    fed_avg_m,
    fed_cda_lite,
    fed_median,
)


def cda_reference(updates, caches, g, m):
    """fed_cda_lite from one np.linalg.norm per candidate; `caches` maps ids to lists."""
    chosen = []
    for u in updates:
        cands = caches.setdefault(u.client_id, []) + [u.params]
        dists = [np.linalg.norm(p - g) for p in cands]
        chosen.append(ClientUpdate(u.client_id, cands[int(np.argmin(dists))], u.n_samples))
        caches[u.client_id] = cands[-m:] if m else []
    return fed_avg(chosen)


def cda_slice_reference(updates, caches, g, m):
    """fed_cda_lite with one np.argmin per client's slice of the stacked distances;
    `caches` maps ids to lists."""
    cands = [caches.setdefault(u.client_id, []) + [u.params] for u in updates]
    d = np.stack([p for c in cands for p in c]) - g
    dists = np.sqrt(np.matmul(d[:, None, :], d[:, :, None]).ravel())
    chosen, end = [], 0
    for u, c in zip(updates, cands):
        start, end = end, end + len(c)
        chosen.append(ClientUpdate(u.client_id, c[int(np.argmin(dists[start:end]))], u.n_samples))
        caches[u.client_id] = c[-m:] if m else []
    return fed_avg(chosen)


def updates_from(mat, n=None):
    n = n or [1] * len(mat)
    return [ClientUpdate(i, np.asarray(row, dtype=float), k) for i, (row, k) in enumerate(zip(mat, n))]


class TestFedAvg:
    def test_idempotent_on_identical(self):
        ups = updates_from([[1.0, 2.0]] * 3, [1, 5, 2])
        np.testing.assert_array_equal(fed_avg(ups), [1.0, 2.0])

    def test_hand_weighted(self):
        ups = updates_from([[0.0], [1.0]], [1, 3])
        assert fed_avg(ups)[0] == pytest.approx(0.75)

    def test_equal_weights_is_plain_mean(self):
        rng = np.random.default_rng(0)
        mat = rng.normal(size=(4, 6))
        ups = updates_from(mat, [3, 3, 3, 3])
        np.testing.assert_allclose(fed_avg(ups), mat.mean(axis=0), atol=1e-12)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            m = rng.integers(1, 6)
            mat = rng.normal(size=(m, 5))
            w = rng.integers(1, 100, size=m)
            ups = updates_from(mat, list(w))
            oracle = sum(wi * row for wi, row in zip(w, mat)) / w.sum()
            np.testing.assert_allclose(fed_avg(ups), oracle, atol=1e-12)

    def test_empty(self):
        with pytest.raises(ValueError):
            fed_avg([])


class TestFedAvgM:
    def test_beta_zero_equals_fed_avg(self):
        rng = np.random.default_rng(2)
        mat = rng.normal(size=(3, 4))
        ups = updates_from(mat)
        state = ServerState(rng.normal(size=4))
        np.testing.assert_allclose(fed_avg_m(ups, state, beta=0.0, server_lr=1.0), fed_avg(ups))

    def test_zero_delta_no_move(self):
        g = np.array([1.0, -1.0])
        state = ServerState(g.copy())
        for _ in range(3):
            out = fed_avg_m(updates_from([g, g]), state, beta=0.5, server_lr=1.0)
            state.global_params = out
        np.testing.assert_array_equal(out, g)

    def test_hand_recursion(self):
        # constant delta [1]: positions -1, then -2.5 at beta=0.5, lr=1
        state = ServerState(np.array([0.0]))
        out1 = fed_avg_m(updates_from([state.global_params - 1.0]), state, 0.5, 1.0)
        state.global_params = out1
        out2 = fed_avg_m(updates_from([state.global_params - 1.0]), state, 0.5, 1.0)
        assert out1[0] == pytest.approx(-1.0)
        assert out2[0] == pytest.approx(-2.5)


class TestFedMedian:
    def test_odd_count(self):
        out = fed_median(updates_from([[1.0, 5.0], [2.0, 6.0], [9.0, 7.0]]))
        np.testing.assert_array_equal(out, [2.0, 6.0])

    def test_outlier_robustness(self):
        mat = [[3.0, 3.0]] * 5 + [[1e9, -1e9]]
        out = fed_median(updates_from(mat))
        np.testing.assert_array_equal(out, [3.0, 3.0])

    def test_even_count_midpoint(self):
        assert fed_median(updates_from([[0.0], [1.0]]))[0] == 0.5

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            mat = rng.normal(size=(rng.integers(1, 8), 4))
            oracle = np.array([np.median(np.sort(mat[:, j])) for j in range(4)])
            np.testing.assert_array_equal(fed_median(updates_from(mat)), oracle)


class TestFedCdaLite:
    def test_empty_cache_is_fed_avg(self):
        rng = np.random.default_rng(4)
        mat = rng.normal(size=(3, 5))
        ups = updates_from(mat)
        state = ServerState(np.zeros(5))
        np.testing.assert_allclose(fed_cda_lite(ups, state, m=1), fed_avg(ups))

    def test_cached_model_at_global_wins(self):
        g = np.array([1.0, 1.0])
        state = ServerState(g.copy())
        state.model_cache[0] = __import__("collections").deque([g.copy()], maxlen=2)
        ups = [ClientUpdate(0, np.array([100.0, 100.0]), 1)]
        np.testing.assert_array_equal(fed_cda_lite(ups, state, m=2), g)

    def test_selection_matches_bruteforce(self):
        from collections import deque

        rng = np.random.default_rng(5)
        for _ in range(50):
            g = rng.normal(size=3)
            state = ServerState(g.copy())
            caches = {}
            for cid in range(2):
                caches[cid] = [rng.normal(size=3) for _ in range(rng.integers(0, 3))]
                state.model_cache[cid] = deque((p.copy() for p in caches[cid]), maxlen=3)
            ups = [ClientUpdate(cid, rng.normal(size=3), rng.integers(1, 10)) for cid in range(2)]
            out = fed_cda_lite(ups, state, m=3)
            chosen = []
            for u in ups:
                cands = caches[u.client_id] + [u.params]
                best = min(cands, key=lambda p: np.linalg.norm(p - g))
                chosen.append(ClientUpdate(u.client_id, best, u.n_samples))
            np.testing.assert_array_equal(out, fed_avg(chosen))

    @pytest.mark.parametrize("g,cache,update,m", [
        ([0.0, 0.0], [[0.0, 2.0], [2.0, 0.0]], [-2.0, 0.0], 3),  # three-way tie: first wins
        ([0.0, 0.0], "repeated", [5.0, 0.0], 3),  # one cached array twice, tied with the update
        ([1.0, 1.0], [[2.0, 2.0], [1.0, 1.0]], [1.0, 1.0], 3),  # two candidates equal to g
        ([0.0, 0.0], [], [7.0, 7.0], 3),  # empty cache: the update
        ([0.0, 0.0], [], [7.0, 7.0], 0),  # m = 0: the cache stays empty
    ])
    def test_exact_ties_match_per_candidate_norm(self, g, cache, update, m):
        g = np.array(g)
        if cache == "repeated":
            a = np.array([3.0, 4.0])
            cache = [a, a]
        cache = [np.asarray(p) for p in cache]
        state = ServerState(g.copy())
        state.model_cache[0] = deque(cache, maxlen=m)
        ups = [ClientUpdate(0, np.array(update), 2), ClientUpdate(1, np.array(update) + 1, 1)]
        expect = cda_reference(ups, {0: cache}, g, m)
        np.testing.assert_array_equal(fed_cda_lite(ups, state, m), expect)
        assert [list(map(id, state.model_cache[c])) for c in (0, 1)] == (
            [[id(p) for p in (*cache, ups[0].params)][-m:], [id(ups[1].params)]] if m
            else [[], []])

    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_picks_match_per_candidate_norm_over_rounds(self, m):
        # Small integer vectors make equal distances common.
        rng = np.random.default_rng(9)
        state, caches = ServerState(np.zeros(3)), {}
        for _ in range(40):
            g = rng.integers(-2, 3, size=3).astype(float)
            state.global_params = g
            ups = [ClientUpdate(int(c), rng.integers(-2, 3, size=3).astype(float),
                                int(rng.integers(1, 5)))
                   for c in sorted(rng.choice(5, size=3, replace=False))]
            expect = cda_reference(ups, caches, g, m)
            np.testing.assert_array_equal(fed_cda_lite(ups, state, m), expect)

    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_padded_argmin_equals_the_per_slice_argmin(self, m):
        # Entries from a few values make exact ties common; NaN gives NaN distances,
        # inf and 1e200 (whose square overflows) inf ones. Clients join over the
        # rounds, so new ones with empty caches meet ones with full caches.
        rng = np.random.default_rng(m + 20)
        values = [-1.0, 0.0, 1.0, 2.0, np.nan, np.inf, -np.inf, 1e200]
        probs = [0.22, 0.22, 0.22, 0.22, 0.03, 0.03, 0.03, 0.03]
        state, caches = ServerState(np.zeros(4)), {}
        for t in range(60):
            g = rng.integers(-1, 3, size=4).astype(float)
            state.global_params = g
            ids = sorted(rng.choice(min(3 + t // 5, 12), size=3, replace=False).tolist())
            ups = [ClientUpdate(c, rng.choice(values, size=4, p=probs), int(rng.integers(1, 5)))
                   for c in ids]
            with np.errstate(all="ignore"):
                expect = cda_slice_reference(ups, caches, g, m)
                got = fed_cda_lite(ups, state, m)
            assert got.tobytes() == expect.tobytes()
            assert {c: [id(p) for p in cache] for c, cache in state.model_cache.items()} == (
                {c: [id(p) for p in cache] for c, cache in caches.items()})


class TestAggregateDispatch:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_updates_stay_bitwise_unchanged(self, strategy):
        # fedcda's cache holds the update arrays themselves and picks among them.
        rng = np.random.default_rng(8)
        state = ServerState(rng.normal(size=5))
        seen = []  # every update so far and a copy of its params
        for _ in range(5):
            ups = [ClientUpdate(cid, rng.normal(size=5), int(rng.integers(1, 9)))
                   for cid in (2, 0, 1)]
            seen += [(u, u.params.copy()) for u in ups]
            aggregate(strategy, ups, state, cda_depth=2)
            for u, before in seen:
                assert u.params.tobytes() == before.tobytes()

    def test_fedcda_cache_keeps_the_update_array_itself(self):
        state = ServerState(np.zeros(3))
        ups = updates_from(np.eye(3))
        aggregate("fedcda", ups, state, cda_depth=2)
        assert all(state.model_cache[u.client_id][-1] is u.params for u in ups)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        mat = rng.normal(size=(4, 5))
        n = [1, 2, 3, 4]
        for strategy in ("fedavg", "fedmedian", "fedprox"):
            ups = updates_from(mat, n)
            state_a = ServerState(np.zeros(5))
            state_b = ServerState(np.zeros(5))
            a = aggregate(strategy, list(ups), state_a)
            b = aggregate(strategy, list(reversed(ups)), state_b)
            np.testing.assert_array_equal(a, b)

    def test_bounded_outputs(self):
        rng = np.random.default_rng(7)
        mat = rng.normal(size=(5, 6))
        ups = updates_from(mat)
        for out in (fed_avg(ups), fed_median(ups)):
            assert np.all(out >= mat.min(axis=0) - 1e-12)
            assert np.all(out <= mat.max(axis=0) + 1e-12)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            aggregate("fedfoo", updates_from([[1.0]]), ServerState(np.zeros(1)))

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_no_updates_rejected(self, strategy):
        with pytest.raises(ValueError, match="no client updates"):
            aggregate(strategy, [], ServerState(np.zeros(3)))

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_unequal_parameter_lengths_rejected(self, strategy):
        ups = [ClientUpdate(0, np.zeros(3), 1), ClientUpdate(1, np.zeros(4), 1)]
        with pytest.raises(ValueError, match="same shape"):
            aggregate(strategy, ups, ServerState(np.zeros(3)))
