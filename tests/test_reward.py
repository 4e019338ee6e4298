import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedopt import reward
from fedopt.reward import (
    DIV_GUARD,
    ExpFit,
    LossHistory,
    RewardConfig,
    compute_reward,
    estimate_loss,
    fit_exponential,
)


# The fit's two solve paths: the dgelsd gufunc (numpy 1.x has none named lstsq) and np.linalg.lstsq.
SOLVE_PATHS = [
    pytest.param(reward._solve_gufunc, id="gufunc",
                 marks=pytest.mark.skipif(reward._dgelsd is None, reason="no lstsq gufunc")),
    pytest.param(reward._solve_wrapped, id="fallback"),
]


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
        solve, calls = reward._solve, []

        def finite_solve(a, rhs, rcond):
            # LAPACK prints "DLASCL ... illegal value" on a non-finite input
            assert np.all(np.isfinite(a)) and np.all(np.isfinite(rhs))
            calls.append(rcond)
            return solve(a, rhs, rcond)

        monkeypatch.setattr(reward, "_solve", finite_solve)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_exponential(history_from(range(10), losses))
        assert not fit.fit_valid
        assert calls
        out, err = capfd.readouterr()
        assert out == "" and err == ""

    @pytest.mark.parametrize("failing_call", [0, 2], ids=["seed", "step"])
    @pytest.mark.parametrize("path", SOLVE_PATHS)
    def test_failed_solve_is_invalid_and_silent(self, path, failing_call, monkeypatch):
        # The gufunc fills a solve that dgelsd cannot converge with NaN and raises the
        # invalid flag; np.linalg.lstsq raises LinAlgError instead.
        monkeypatch.setattr(reward, "_solve", path)
        calls = []
        if path is reward._solve_gufunc:
            gufunc = reward._dgelsd

            def failing(a, rhs, rcond):
                x, *rest = gufunc(a, rhs, rcond)
                calls.append(rcond)
                if len(calls) - 1 == failing_call:
                    x[...] = np.subtract(np.inf, np.inf)
                return (x, *rest)

            monkeypatch.setattr(reward, "_dgelsd", failing)
        else:
            lstsq = np.linalg.lstsq

            def failing(a, b, **kwargs):
                calls.append(kwargs)
                if len(calls) - 1 == failing_call:
                    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
                return lstsq(a, b, **kwargs)

            monkeypatch.setattr(np.linalg, "lstsq", failing)
        t = np.arange(10)
        h = history_from(t, 2.0 * np.exp(-0.1 * t) * (1 + 0.05 * np.sin(t)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_exponential(h)
        assert not fit.fit_valid
        assert len(calls) == failing_call + 1

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_exponential(history_from([0, 1], [1.0, 0.9]))

    def test_rounds_strictly_increasing(self):
        h = history_from([0, 1], [1.0, 0.9])
        with pytest.raises(ValueError):
            h.append(1, 0.8)


def reference_fit_exponential(h, max_iter=50):
    """fit_exponential as it was before its loop moved into one reused buffer."""
    if len(h) < 3:
        raise ValueError("need at least 3 history points")
    t = np.asarray(h.rounds, dtype=np.float64)
    y = np.asarray(h.losses, dtype=np.float64)
    if np.all(y > 0):
        sign = -1.0
    elif np.all(y < 0):
        sign = 1.0
    else:
        return ExpFit(fit_valid=False)
    with np.errstate(over="ignore", invalid="ignore"):
        logy = np.log(np.abs(y))
        design = np.column_stack([np.ones_like(t), -t])
        coef, *_ = np.linalg.lstsq(design, logy, rcond=None)
        u = sign * np.exp(coef[0])
        v = coef[1]
        for _ in range(max_iter):
            e = np.exp(-v * t)
            r = -u * e - y
            jac = np.column_stack([-e, u * t * e])
            if not (np.all(np.isfinite(r)) and np.all(np.isfinite(jac))):
                return ExpFit(fit_valid=False)
            try:
                step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
            except np.linalg.LinAlgError:
                return ExpFit(fit_valid=False)
            u += step[0]
            v += step[1]
            if np.max(np.abs(step)) < 1e-12:
                break
        residual = float(np.linalg.norm(-u * np.exp(-v * t) - y))
    if not np.isfinite(residual):
        return ExpFit(fit_valid=False)
    return ExpFit(float(u), float(v), True)


LOSS_SHAPES = ("positive", "negative", "mixed", "flat", "growing", "wide")


@st.composite
def loss_histories(draw):
    """Rounds with gaps and losses of one of LOSS_SHAPES."""
    n = draw(st.integers(3, 400))
    shape = draw(st.sampled_from(LOSS_SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = draw(st.integers(0, 50)) + np.cumsum(rng.integers(1, 6, n)) - 1
    scale = 10.0 ** rng.uniform(-3, 2)
    noise = np.exp(rng.uniform(0, 0.5) * rng.standard_normal(n))
    if shape == "flat":
        y = np.full(n, scale)
    elif shape == "growing":
        y = scale * np.exp(rng.uniform(0, 0.05) * t) * noise
    elif shape == "wide":
        y = 10.0 ** rng.uniform(-300, 300, n)
    else:
        y = scale * np.exp(-rng.uniform(0, 0.5) * t) * noise
    if shape == "mixed":
        y[rng.integers(n)] *= -1
    if shape == "negative" or (shape == "flat" and draw(st.booleans())):
        y = -y
    return LossHistory(t.tolist(), y.tolist())


@pytest.mark.parametrize("path", SOLVE_PATHS)
@given(h=loss_histories())
@settings(max_examples=150, deadline=None)
def test_fit_is_bit_identical_to_the_reference(path, h):
    with mock.patch.object(reward, "_solve", path):
        new = fit_exponential(h)
    ref = reference_fit_exponential(h)
    # repr is exact for floats, keeps the sign of zero and makes NaN equal to NaN
    assert [repr(getattr(new, f)) for f in ("u", "v", "fit_valid")] == [
        repr(getattr(ref, f)) for f in ("u", "v", "fit_valid")]


class TestEstimateLoss:
    def test_v_zero_constant(self):
        f = ExpFit(u=-2.0, v=0.0, fit_valid=True)
        assert estimate_loss(f, 100) == pytest.approx(2.0)

    def test_t_zero(self):
        f = ExpFit(u=-2.0, v=0.1, fit_valid=True)
        assert estimate_loss(f, 0) == pytest.approx(2.0)

    def test_hand_value(self):
        f = ExpFit(u=-2.0, v=0.1, fit_valid=True)
        assert estimate_loss(f, 10) == pytest.approx(2 * np.exp(-1))

    def test_invalid_fit(self):
        with pytest.raises(ValueError):
            estimate_loss(ExpFit(fit_valid=False), 0)


class TestComputeReward:
    def test_zero_at_equal_losses(self):
        cfg = RewardConfig()
        for mu in (0.3, 0.5, 1.0):
            assert compute_reward(0.7, 0.7, mu, cfg) == 0.0

    def test_hand_value(self):
        cfg = RewardConfig(lam=0.25)
        assert compute_reward(1.0, 0.5, 0.5, cfg) == pytest.approx(4.0)

    def test_monotone_decreasing_in_mean_action(self):
        cfg = RewardConfig(lam=0.25)
        grid = np.linspace(0.3, 1.0, 50)
        rewards = [compute_reward(1.0, 0.5, mu, cfg) for mu in grid]
        assert all(a > b for a, b in zip(rewards, rewards[1:]))

    def test_sign_property(self):
        cfg = RewardConfig(lam=0.25)
        assert compute_reward(1.0, 0.5, 0.6, cfg) > 0
        assert compute_reward(0.3, 0.5, 0.6, cfg) < 0

    def test_divergence_guard(self):
        cfg = RewardConfig(lam=0.25)
        r = compute_reward(1.0, 0.5, 0.25, cfg)
        assert np.isfinite(r)
        assert r == pytest.approx(1.0 / DIV_GUARD)
        # Just below lambda the guard keeps the sign of mu_a - lambda.
        below = compute_reward(1.0, 0.5, 0.25 - DIV_GUARD / 2, cfg)
        assert below == pytest.approx(-1.0 / DIV_GUARD)

    def test_nonpositive_reference(self):
        with pytest.raises(ValueError):
            compute_reward(1.0, 0.0, 0.5, RewardConfig())

    def test_continuous_in_l_agg(self):
        cfg = RewardConfig()
        r1 = compute_reward(1.0, 0.5, 0.6, cfg)
        r2 = compute_reward(1.0 + 1e-9, 0.5, 0.6, cfg)
        assert abs(r1 - r2) < 1e-6

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            RewardConfig(tau=0).validate()
