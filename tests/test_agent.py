import copy

import numpy as np
import pytest

from fedopt.agent import (
    ActorCritic,
    AgentConfig,
    ReplayBuffer,
    actor_update,
    critic_update,
    epsilon_greedy_select,
    normalized_action,
    policy_action,
    soft_update,
    weighted_metric_action,
)
from fedopt.data import ClientPartition
from fedopt.nn import Mlp, forward
from fedopt.orchestrator import ExperimentConfig, _OptimizedClient
from tests.test_nn import reference_backward


def make_ac(n_classes=3, seed=0, **overrides):
    cfg = AgentConfig(**overrides)
    return ActorCritic(n_classes, cfg, np.random.default_rng(seed))


def random_batch(n, n_classes, seed=0):
    """Batch as `ReplayBuffer.sample` stacks it."""
    rng = np.random.default_rng(seed)
    rows = [
        (rng.uniform(0, 1, n_classes), rng.uniform(0.1, 1.0, n_classes), rng.normal(),
         rng.uniform(0, 1, n_classes))
        for _ in range(n)
    ]
    return tuple(np.array(col) for col in zip(*rows))


def empty_batch(n_classes=3):
    return tuple(a[:0] for a in random_batch(1, n_classes))


class TestEpsilonAt:
    @pytest.mark.parametrize("horizon", [1, 2, 3, 30, 101])
    def test_linear_to_epsilon_end_at_half_the_run_then_flat(self, horizon):
        cfg = AgentConfig(epsilon_start=0.9, epsilon_end=0.2)
        half = max(1, horizon // 2)  # a 1-round run decays over one round
        eps = [cfg.epsilon_at(t, horizon) for t in range(2 * horizon + 2)]
        assert eps[0] == 0.9
        assert all(a > b for a, b in zip(eps[:half], eps[1 : half + 1]))
        assert eps[half] == pytest.approx(0.2, abs=1e-15)
        assert all(e == 0.2 for e in eps[half + 1 :])

    def test_equal_ends_stay_constant(self):
        cfg = AgentConfig(epsilon_start=0.3, epsilon_end=0.3)
        assert [cfg.epsilon_at(t, 10) for t in range(12)] == [0.3] * 12


class TestPolicyAction:
    def test_within_bounds(self):
        ac = make_ac(b_l=0.2, b_u=0.8)
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = policy_action(ac, rng.uniform(0, 1, 3))
            assert np.all((a >= 0.2) & (a <= 0.8))

    def test_zero_actor_midpoint(self):
        ac = make_ac(b_l=0.1, b_u=0.9)
        ac.actor.params[...] = np.zeros(ac.actor.params.size)
        a = policy_action(ac, np.array([0.3, 0.6, 0.9]))
        np.testing.assert_allclose(a, 0.5, atol=1e-12)

    def test_deterministic(self):
        ac = make_ac()
        s = np.array([0.1, 0.2, 0.3])
        np.testing.assert_array_equal(policy_action(ac, s), policy_action(ac, s))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            policy_action(make_ac(3), np.zeros(4))


class TestNormalizedAction:
    def test_uniform_case(self):
        f = normalized_action(np.full(4, 0.25), np.full(4, 25), 100)
        np.testing.assert_array_equal(f, np.ones(4))

    def test_hand_clamp(self):
        f = normalized_action(np.array([0.5, 0.5]), np.array([20, 80]), 100)
        np.testing.assert_allclose(f, [1.0, 0.625])

    def test_scale_invariance(self):
        a = np.array([0.2, 0.7, 0.4])
        counts = np.array([10, 40, 25])
        f1 = normalized_action(a, counts, 75)
        f2 = normalized_action(7.3 * a, counts, 75)
        np.testing.assert_allclose(f1, f2)

    def test_empty_class_gets_one(self):
        f = normalized_action(np.array([0.5, 0.5]), np.array([0, 10]), 10)
        assert f[0] == 1.0

    def test_all_zero_action(self):
        with pytest.raises(ValueError):
            normalized_action(np.zeros(3), np.full(3, 10), 30)


class TestWeightedMetricAction:
    def test_no_change_identity(self):
        a = np.array([0.4, 0.6])
        s = np.array([0.5, 0.5])
        np.testing.assert_allclose(weighted_metric_action(a, s, s), a)

    def test_hand_example(self):
        a = np.array([0.5, 0.5])
        now = np.array([0.2, 0.8])
        back = np.array([0.7, 0.6])  # dF1 = [-0.5, +0.2]
        np.testing.assert_allclose(weighted_metric_action(a, now, back), [0.6, 0.4])

    def test_declining_classes_weighted_up(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.uniform(0.1, 0.5, 4)
            now = rng.uniform(0, 1, 4)
            back = rng.uniform(0, 1, 4)
            out = weighted_metric_action(a, now, back)
            factors = out / a
            declined = now < back
            if declined.any() and (~declined).any():
                assert factors[declined].min() >= factors[~declined].max() - 1e-12

    def test_clamped_to_unit(self):
        a = np.array([0.95, 0.95])
        now = np.array([0.0, 1.0])
        back = np.array([1.0, 0.0])
        out = weighted_metric_action(a, now, back)
        assert np.all((out > 0) & (out <= 1.0))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            weighted_metric_action(np.zeros(2), np.zeros(3), np.zeros(3))


class TestEpsilonGreedy:
    def test_epsilon_one_always_explores(self):
        explore = np.array([0.5, 0.5, 0.5])
        greedy = np.array([0.2, 0.3, 0.4])
        rng = np.random.default_rng(0)
        for _ in range(20):
            np.testing.assert_array_equal(
                epsilon_greedy_select(lambda: explore, greedy, 1.0, rng), explore)

    def test_epsilon_zero_always_greedy(self):
        ac = make_ac()
        greedy = policy_action(ac, np.zeros(3))
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert epsilon_greedy_select(lambda: np.ones(3), greedy, 0.0, rng) is greedy

    def test_monte_carlo_frequency(self):
        explore = np.full(3, 0.123)
        greedy = np.full(3, 0.5)
        rng = np.random.default_rng(42)
        hits = sum(
            epsilon_greedy_select(lambda: explore, greedy, 0.3, rng)[0] == 0.123
            for _ in range(10_000)
        )
        assert 0.28 <= hits / 10_000 <= 0.32

    def test_draws_one_number_per_call(self):
        rng, ref = np.random.default_rng(7), np.random.default_rng(7)
        for eps in (0.0, 0.5, 1.0):
            epsilon_greedy_select(lambda: np.ones(3), np.zeros(3), eps, rng)
            ref.random()
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("eps", [0.0, 0.3, 0.7, 1.0])
    def test_calls_explore_exactly_when_it_explores(self, eps):
        # The explore transform costs a round its work only when the draw explores.
        rng, ref = np.random.default_rng(11), np.random.default_rng(11)
        explore, greedy = np.full(3, 0.25), np.full(3, 0.75)
        calls, explored = [], []

        def transform():
            calls.append(len(explored))
            return explore

        for _ in range(200):
            got = epsilon_greedy_select(transform, greedy, eps, rng)
            explored.append(ref.random() < eps)  # one number a call, drawn as the reference does
            assert calls == [j for j, e in enumerate(explored) if e]  # once, in this call only
            if explored[-1]:
                np.testing.assert_array_equal(got, explore)
            else:
                assert got is greedy
        assert rng.random() == ref.random()
        assert sum(explored) == {0.0: 0, 1.0: 200}.get(eps, sum(explored))
        assert 0 < sum(explored) < 200 or eps in (0.0, 1.0)


class TestCriticUpdate:
    def test_overfit_one_batch(self):
        ac = make_ac(seed=7, critic_lr=0.05)
        batch = random_batch(16, 3, seed=8)
        losses = [critic_update(ac, batch) for _ in range(50)]
        assert losses[-1] < losses[0]

    def test_empty_batch(self):
        ac = make_ac()
        with pytest.raises(ValueError):
            critic_update(ac, empty_batch())

    def test_updates_critic_in_place(self):
        ac = make_ac(seed=7)
        params = ac.critic.params
        before = params.copy()
        critic_update(ac, random_batch(8, 3, seed=8))
        assert ac.critic.params is params and not np.array_equal(params, before)


class TestActorUpdate:
    def test_constant_critic_no_move(self):
        ac = make_ac(seed=9)
        ac.critic.params[...] = np.zeros(ac.critic.params.size)
        before = ac.actor.params.copy()
        actor_update(ac, random_batch(8, 3, seed=10)[0])
        np.testing.assert_array_equal(ac.actor.params, before)

    def test_moves_toward_critic_peak(self):
        # critic wired to Q(a) = -sum_c |a_c - a*_c| via ReLU pairs
        target = np.array([0.4, 0.7])
        cfg = AgentConfig(actor_lr=0.01, hidden=32, b_l=0.1, b_u=1.0)
        ac = ActorCritic(2, cfg, np.random.default_rng(11))
        w1 = np.zeros((4, 32))
        b1 = np.zeros(32)
        w2 = np.zeros((32, 1))
        for c in range(2):
            w1[2 + c, 2 * c] = 1.0
            b1[2 * c] = -target[c]
            w1[2 + c, 2 * c + 1] = -1.0
            b1[2 * c + 1] = target[c]
            w2[2 * c, 0] = -1.0
            w2[2 * c + 1, 0] = -1.0
        ac.critic.weights[0][...], ac.critic.weights[1][...] = w1, w2
        ac.critic.biases[0][...], ac.critic.biases[1][...] = b1, 0.0
        ac.critic_target = ac.critic.copy()
        state = np.array([0.5, 0.5])
        batch = state[None, :]
        dists = []
        for _ in range(100):
            a = policy_action(ac, state)
            dists.append(np.linalg.norm(a - target))
            actor_update(ac, batch)
        assert all(d1 >= d2 - 1e-12 for d1, d2 in zip(dists, dists[1:]))
        assert dists[-1] < dists[0]

    def test_bounds_preserved(self):
        ac = make_ac(seed=12, actor_lr=1.0, b_l=0.2, b_u=0.9)
        batch = random_batch(8, 3, seed=13)[0]
        for _ in range(20):
            actor_update(ac, batch)
        a = policy_action(ac, np.zeros(3))
        assert np.all((a >= 0.2) & (a <= 0.9))

    def test_empty_batch(self):
        ac = make_ac()
        with pytest.raises(ValueError):
            actor_update(ac, np.empty((0, 3)))

    def test_updates_actor_in_place(self):
        ac = make_ac(seed=12)
        params = ac.actor.params
        before = params.copy()
        actor_update(ac, random_batch(8, 3, seed=13)[0])
        assert ac.actor.params is params and not np.array_equal(params, before)


class TestSoftUpdate:
    def test_tau_one_copies(self):
        ac = make_ac(seed=14, soft_update_tau=1.0)
        soft_update(ac)
        np.testing.assert_array_equal(ac.actor_target.params, ac.actor.params)
        np.testing.assert_array_equal(ac.critic_target.params, ac.critic.params)

    def test_halfway(self):
        ac = make_ac(seed=15, soft_update_tau=0.5)
        ac.actor.params[...] = np.ones(ac.actor.params.size)
        ac.actor_target.params[...] = np.zeros(ac.actor.params.size)
        soft_update(ac)
        np.testing.assert_allclose(ac.actor_target.params, 0.5)

    def test_geometric_convergence(self):
        ac = make_ac(seed=16, soft_update_tau=0.5)
        ac.actor.params[...] = np.ones(ac.actor.params.size)
        ac.actor_target.params[...] = np.zeros(ac.actor.params.size)
        diffs = []
        for _ in range(6):
            soft_update(ac)
            diffs.append(np.linalg.norm(ac.actor.params - ac.actor_target.params))
        ratios = [b / a for a, b in zip(diffs, diffs[1:])]
        np.testing.assert_allclose(ratios, 0.5, atol=1e-12)

    def test_bad_tau(self):
        # soft_update reads agent.soft_update_tau, whose range the config checks.
        with pytest.raises(ValueError, match="soft_update_tau"):
            AgentConfig(soft_update_tau=0.0).validate()

    def test_updates_targets_in_place(self):
        ac = make_ac(seed=17, soft_update_tau=0.5)
        ac.actor.params[...] = 1.0
        targets = (ac.actor_target.params, ac.critic_target.params)
        before = [t.copy() for t in targets]
        soft_update(ac)
        assert ac.actor_target.params is targets[0] and ac.critic_target.params is targets[1]
        np.testing.assert_array_equal(targets[0], 0.5 * 1.0 + 0.5 * before[0])
        np.testing.assert_array_equal(targets[1], 0.5 * ac.critic.params + 0.5 * before[1])


class _ListBuffer:
    """Reference replay buffer: a list of (state, action, reward, next_state) tuples."""

    def __init__(self, seed=0):
        self._items = []
        self._rng = np.random.default_rng(seed)

    def push(self, state, action, reward, next_state):
        self._items.append((state, action, reward, next_state))

    def sample(self, batch_size):
        n = len(self._items)
        picked = [self._items[i]
                  for i in self._rng.choice(n, size=min(batch_size, n), replace=False)]
        return (
            np.stack([tr[0] for tr in picked]),
            np.stack([tr[1] for tr in picked]),
            np.array([tr[2] for tr in picked]),
            np.stack([tr[3] for tr in picked]),
        )


class TestReplayBuffer:
    def test_sample_deterministic_per_seed(self):
        def fill(seed):
            buf = ReplayBuffer(50, 1, seed=seed)
            for i in range(20):
                buf.push(np.array([float(i)]), np.ones(1), 0.0, np.zeros(1))
            return buf.sample(8)[0][:, 0].tolist()

        assert fill(3) == fill(3)
        assert len(set(fill(3))) == 8  # distinct transitions

    def test_push_past_capacity_raises(self):
        # Append-only: nothing is overwritten, so a run that pushed more than
        # one transition a round would fail loudly.
        buf = ReplayBuffer(2, 1)
        for _ in range(2):
            buf.push(np.zeros(1), np.ones(1), 0.0, np.zeros(1))
        with pytest.raises(IndexError):
            buf.push(np.zeros(1), np.ones(1), 0.0, np.zeros(1))
        assert len(buf) == 2

    def test_sample_empty(self):
        with pytest.raises(ValueError):
            ReplayBuffer(5, 1).sample(1)

    def test_one_step_slices_are_the_stored_transitions(self):
        buf = ReplayBuffer(50, 2, seed=1)
        for i in range(12):
            buf.push(np.array([float(i), 0.5]), np.full(2, i / 20), i - 5.5,
                     np.array([i + 1.0, 0.5]))
        states, actions, rewards, next_states = buf.sample(32)
        assert states.shape == (12, 2) and actions.shape == (12, 2)
        assert next_states.shape == (12, 2) and rewards.shape == (12,)
        assert sorted(states[:, 0]) == list(range(12))
        for s, a, g, ns in zip(states, actions, rewards, next_states):
            i = int(s[0])
            assert (a == i / 20).all() and (ns == [i + 1.0, 0.5]).all()
            assert g == i - 5.5

    def test_ring_matches_list_buffer(self):
        buf, oracle = ReplayBuffer(400, 3, seed=5), _ListBuffer(seed=5)
        rng = np.random.default_rng(10_001)
        for i in range(400):
            transition = (rng.uniform(0, 1, 3), rng.uniform(0.1, 1.0, 3), rng.normal(),
                          rng.uniform(0, 1, 3))
            buf.push(*transition)
            oracle.push(*transition)
            assert len(buf) == len(oracle._items)
            got = buf.sample(8)
            want = oracle.sample(8)
            for g, w in zip(got, want, strict=True):
                assert g.dtype == w.dtype and np.array_equal(g, w), i


class _CopyingReference:
    """The agent update as a copying loop: every step rebinds each network
    to a new Mlp over a new vector, the one-step batch is a list of
    (state, action, reward, next_state) tuples stacked per field."""

    def __init__(self, ac, items, rng, cfg):
        self.ac, self.items, self.rng, self.cfg = ac, items, rng, cfg

    def sample(self):
        n = len(self.items)
        return self.rng.choice(n, size=min(self.cfg.batch_size, n), replace=False)

    def batch(self):
        batch = [self.items[i] for i in self.sample()]
        return (np.stack([tr[0] for tr in batch]), np.stack([tr[1] for tr in batch]),
                np.array([tr[2] for tr in batch]),
                np.stack([tr[3] for tr in batch]))

    def learn(self):
        ac, cfg = self.ac, self.cfg
        states, actions, rewards, next_states = self.batch()
        next_a = ac._act(ac.actor_target, next_states)
        q_next = forward(ac.critic_target, np.hstack([next_states, next_a]))[:, 0]
        target = rewards + cfg.gamma * q_next
        critic_acts = []
        err = forward(ac.critic, np.hstack([states, actions]), critic_acts)[:, 0] - target
        grads, _ = reference_backward(ac.critic, critic_acts, (2.0 * err / len(err))[:, None])
        ac.critic = Mlp(ac.critic.layer_dims, ac.critic.params - cfg.critic_lr * grads)

        actor_acts, critic_acts = [], []
        sig = 0.5 * (1.0 + np.tanh(0.5 * forward(ac.actor, states, actor_acts)))
        acts = cfg.b_l + (cfg.b_u - cfg.b_l) * sig
        forward(ac.critic, np.hstack([states, acts]), critic_acts)
        _, d_in = reference_backward(ac.critic, critic_acts,
                                     np.full((len(states), 1), 1.0 / len(states)))
        d_raw = d_in[:, ac.n_classes:] * (cfg.b_u - cfg.b_l) * sig * (1.0 - sig)
        grads, _ = reference_backward(ac.actor, actor_acts, d_raw)
        ac.actor = Mlp(ac.actor.layer_dims, ac.actor.params + cfg.actor_lr * grads)  # ascent

        tau = cfg.soft_update_tau
        ac.actor_target, ac.critic_target = (
            Mlp(tgt.layer_dims, tau * online.params + (1.0 - tau) * tgt.params)
            for online, tgt in ((ac.actor, ac.actor_target), (ac.critic, ac.critic_target))
        )


def test_learn_matches_copying_reference():
    cfg = ExperimentConfig(n_classes=3, seed=2)
    cfg.agent = AgentConfig(batch_size=8, hidden=6,
                            actor_lr=0.05, critic_lr=0.05, soft_update_tau=0.1)
    part = ClientPartition(0, 3, [np.array([c]) for c in range(3)], np.array([3]))
    opt = _OptimizedClient(cfg, [5, 4, 3], part, np.zeros((4, 5)), np.array([0, 1, 2, 0]))
    ref_ac = copy.deepcopy(opt.ac)
    ref = _CopyingReference(ref_ac, [], copy.deepcopy(opt.buffer._rng), cfg.agent)
    init = opt.ac.actor.params.copy()
    rng = np.random.default_rng(11)
    updates = 0
    for i in range(48):
        tr = (rng.uniform(0, 1, 3), rng.uniform(0.1, 1.0, 3), rng.normal(),
              rng.uniform(0, 1, 3))
        opt.buffer.push(*tr)
        ref.items.append(tr)
        opt._learn()
        if len(ref.items) >= cfg.agent.batch_size:
            ref.learn()
            updates += 1
        for net in ("actor", "critic", "actor_target", "critic_target"):
            assert np.array_equal(getattr(opt.ac, net).params, getattr(ref_ac, net).params), net
    assert updates == 41 and not np.array_equal(opt.ac.actor.params, init)
