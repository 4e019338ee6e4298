import warnings

import numpy as np
import pytest

from fedopt.reward import (
    ExpFit,
    LossHistory,
    RewardConfig,
    compute_reward,
    estimate_loss,
    fit_exponential,
)


def history_from(t, losses):
    h = LossHistory()
    for ti, li in zip(t, losses):
        h.append(int(ti), float(li))
    return h


class TestFitExponential:
    def test_noiseless_recovery(self):
        t = np.arange(10)
        u, v = -2.0, 0.1
        fit = fit_exponential(history_from(t, -u * np.exp(-v * t)))
        assert fit.fit_valid
        assert abs(fit.u - u) / abs(u) < 1e-6
        assert abs(fit.v - v) / abs(v) < 1e-6

    def test_flat_history(self):
        fit = fit_exponential(history_from(range(5), [3.0] * 5))
        assert fit.fit_valid
        assert fit.u == pytest.approx(-3.0, abs=1e-8)
        assert fit.v == pytest.approx(0.0, abs=1e-8)

    def test_noisy_recovery_median(self):
        t = np.arange(10)
        errs = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            y = 2.0 * np.exp(-0.1 * t) * (1 + 0.05 * rng.standard_normal(10))
            fit = fit_exponential(history_from(t, y))
            assert fit.fit_valid
            errs.append(abs(fit.v - 0.1) / 0.1)
        assert np.median(errs) < 0.05

    def test_mixed_sign_invalid(self):
        fit = fit_exponential(history_from(range(4), [1.0, -1.0, 1.0, -1.0]))
        assert not fit.fit_valid

    def test_overflowing_iterate_is_invalid_and_silent(self, capfd, monkeypatch):
        # Loss history of the optimized client on quickstart at --seed 11216:
        # the Gauss-Newton iterates overflow exp(-v*t).
        losses = [0.9084324554694843, 1.1771902053062329, 0.3117775204004279,
                  0.37221308320795093, 0.515093638513419, 0.2685196039086561,
                  0.3182088905002319, 0.33714490231289873, 0.2653655232959669,
                  10.116012542897106]
        lstsq = np.linalg.lstsq

        def finite_lstsq(a, b, **kwargs):
            # LAPACK prints "DLASCL ... illegal value" on a non-finite input
            assert np.all(np.isfinite(a)) and np.all(np.isfinite(b))
            return lstsq(a, b, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", finite_lstsq)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_exponential(history_from(range(10), losses))
        assert not fit.fit_valid
        out, err = capfd.readouterr()
        assert out == "" and err == ""

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_exponential(history_from([0, 1], [1.0, 0.9]))

    def test_rounds_strictly_increasing(self):
        h = history_from([0, 1], [1.0, 0.9])
        with pytest.raises(ValueError):
            h.append(1, 0.8)


class TestEstimateLoss:
    def test_v_zero_constant(self):
        f = ExpFit(u=-2.0, v=0.0, fit_valid=True, residual=0.0)
        assert estimate_loss(f, 100) == pytest.approx(2.0)

    def test_t_zero(self):
        f = ExpFit(u=-2.0, v=0.1, fit_valid=True, residual=0.0)
        assert estimate_loss(f, 0) == pytest.approx(2.0)

    def test_hand_value(self):
        f = ExpFit(u=-2.0, v=0.1, fit_valid=True, residual=0.0)
        assert estimate_loss(f, 10) == pytest.approx(2 * np.exp(-1))

    def test_invalid_fit(self):
        with pytest.raises(ValueError):
            estimate_loss(ExpFit(fit_valid=False), 0)


class TestComputeReward:
    def test_zero_at_equal_losses(self):
        cfg = RewardConfig()
        for mu in (0.3, 0.5, 1.0):
            assert compute_reward(0.7, 0.7, mu, cfg, 0) == 0.0

    def test_hand_value(self):
        cfg = RewardConfig(lam=0.25)
        assert compute_reward(1.0, 0.5, 0.5, cfg, 0) == pytest.approx(4.0)

    def test_monotone_decreasing_in_mean_action(self):
        cfg = RewardConfig(lam=0.25)
        grid = np.linspace(0.3, 1.0, 50)
        rewards = [compute_reward(1.0, 0.5, mu, cfg, 0) for mu in grid]
        assert all(a > b for a, b in zip(rewards, rewards[1:]))

    def test_sign_property(self):
        cfg = RewardConfig(lam=0.25)
        assert compute_reward(1.0, 0.5, 0.6, cfg, 0) > 0
        assert compute_reward(0.3, 0.5, 0.6, cfg, 0) < 0

    def test_divergence_guard(self):
        cfg = RewardConfig(lam=0.25, div_guard=1e-3)
        r = compute_reward(1.0, 0.5, 0.25, cfg, 0)
        assert np.isfinite(r)
        assert r == pytest.approx(1.0 / 1e-3)

    def test_nonpositive_reference(self):
        with pytest.raises(ValueError):
            compute_reward(1.0, 0.0, 0.5, RewardConfig(), 0)

    def test_continuous_in_l_agg(self):
        cfg = RewardConfig()
        r1 = compute_reward(1.0, 0.5, 0.6, cfg, 0)
        r2 = compute_reward(1.0 + 1e-9, 0.5, 0.6, cfg, 0)
        assert abs(r1 - r2) < 1e-6

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            RewardConfig(tau=0)
        with pytest.raises(ValueError):
            RewardConfig(div_guard=0.0)
