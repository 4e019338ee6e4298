import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from fedopt.metrics import StateVector
from fedopt.nn import Mlp, backward, forward, sgd_step
from fedopt.orchestrator import ExperimentConfig, _OptimizedClient


def make_ac(n_classes=3, seed=0, **overrides):
    cfg = AgentConfig(**overrides)
    return ActorCritic(n_classes, cfg, np.random.default_rng(seed))


def random_batch(n, n_classes, seed=0, terminal=False):
    """One-step batch as `ReplayBuffer.sample_slices` stacks it."""
    rng = np.random.default_rng(seed)
    rows = [
        (rng.uniform(0, 1, n_classes), rng.uniform(0.1, 1.0, n_classes), rng.normal(),
         rng.uniform(0, 1, n_classes))
        for _ in range(n)
    ]
    states, actions, rewards, next_states = (np.array(col) for col in zip(*rows))
    return states, actions, rewards, next_states, np.full(n, float(terminal)), np.ones(n)


def empty_batch(n_classes=3):
    return tuple(a[:0] for a in random_batch(1, n_classes))


class TestPolicyAction:
    def test_within_bounds(self):
        ac = make_ac(b_l=0.2, b_u=0.8)
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = policy_action(ac, StateVector(rng.uniform(0, 1, 3)))
            assert np.all((a >= 0.2) & (a <= 0.8))

    def test_zero_actor_midpoint(self):
        ac = make_ac(b_l=0.1, b_u=0.9)
        ac.actor.params[...] = np.zeros(ac.actor.params.size)
        a = policy_action(ac, StateVector(np.array([0.3, 0.6, 0.9])))
        np.testing.assert_allclose(a, 0.5, atol=1e-12)

    def test_deterministic(self):
        ac = make_ac()
        s = StateVector(np.array([0.1, 0.2, 0.3]))
        np.testing.assert_array_equal(policy_action(ac, s), policy_action(ac, s))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            policy_action(make_ac(3), StateVector(np.zeros(4)))


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
        s = StateVector(np.array([0.5, 0.5]))
        np.testing.assert_allclose(weighted_metric_action(a, s, s), a)

    def test_hand_example(self):
        a = np.array([0.5, 0.5])
        now = StateVector(np.array([0.2, 0.8]))
        back = StateVector(np.array([0.7, 0.6]))  # dF1 = [-0.5, +0.2]
        np.testing.assert_allclose(weighted_metric_action(a, now, back), [0.6, 0.4])

    def test_declining_classes_weighted_up(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.uniform(0.1, 0.5, 4)
            now = StateVector(rng.uniform(0, 1, 4))
            back = StateVector(rng.uniform(0, 1, 4))
            out = weighted_metric_action(a, now, back)
            factors = out / a
            declined = now.as_array() < back.as_array()
            if declined.any() and (~declined).any():
                assert factors[declined].min() >= factors[~declined].max() - 1e-12

    def test_clamped_to_unit(self):
        a = np.array([0.95, 0.95])
        now = StateVector(np.array([0.0, 1.0]))
        back = StateVector(np.array([1.0, 0.0]))
        out = weighted_metric_action(a, now, back)
        assert np.all((out > 0) & (out <= 1.0))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            weighted_metric_action(np.zeros(2), StateVector(np.zeros(3)), StateVector(np.zeros(3)))


class TestEpsilonGreedy:
    def test_epsilon_one_always_explores(self):
        explore = np.array([0.5, 0.5, 0.5])
        greedy = np.array([0.2, 0.3, 0.4])
        rng = np.random.default_rng(0)
        for _ in range(20):
            np.testing.assert_array_equal(epsilon_greedy_select(explore, greedy, 1.0, rng),
                                          explore)

    def test_epsilon_zero_always_greedy(self):
        ac = make_ac()
        greedy = policy_action(ac, StateVector(np.zeros(3)))
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert epsilon_greedy_select(np.ones(3), greedy, 0.0, rng) is greedy

    def test_monte_carlo_frequency(self):
        explore = np.full(3, 0.123)
        greedy = np.full(3, 0.5)
        rng = np.random.default_rng(42)
        hits = sum(
            epsilon_greedy_select(explore, greedy, 0.3, rng)[0] == 0.123 for _ in range(10_000)
        )
        assert 0.28 <= hits / 10_000 <= 0.32

    def test_draws_one_number_per_call(self):
        rng, ref = np.random.default_rng(7), np.random.default_rng(7)
        for eps in (0.0, 0.5, 1.0):
            epsilon_greedy_select(np.ones(3), np.zeros(3), eps, rng)
            ref.random()
        assert rng.random() == ref.random()


class TestCriticUpdate:
    def test_terminal_ignores_gamma(self):
        batch = random_batch(8, 3, seed=3, terminal=True)
        ac1 = make_ac(seed=5, gamma=0.99)
        ac2 = make_ac(seed=5, gamma=1e-9)
        l1 = critic_update(ac1, batch, ac1.cfg)
        l2 = critic_update(ac2, batch, ac2.cfg)
        assert l1 == pytest.approx(l2)
        np.testing.assert_allclose(ac1.critic.params, ac2.critic.params)

    def test_tiny_gamma_matches_terminal(self):
        batch_t = random_batch(8, 3, seed=4, terminal=True)
        batch_n = random_batch(8, 3, seed=4, terminal=False)
        ac1 = make_ac(seed=6, gamma=1e-15)
        ac2 = make_ac(seed=6, gamma=1e-15)
        critic_update(ac1, batch_t, ac1.cfg)
        critic_update(ac2, batch_n, ac2.cfg)
        np.testing.assert_allclose(ac1.critic.params, ac2.critic.params, atol=1e-10)

    def test_overfit_one_batch(self):
        ac = make_ac(seed=7, critic_lr=0.05)
        batch = random_batch(16, 3, seed=8, terminal=True)
        losses = [critic_update(ac, batch, ac.cfg) for _ in range(50)]
        assert losses[-1] < losses[0]

    def test_empty_batch(self):
        ac = make_ac()
        with pytest.raises(ValueError):
            critic_update(ac, empty_batch(), ac.cfg)

    def test_updates_critic_in_place(self):
        ac = make_ac(seed=7)
        params = ac.critic.params
        before = params.copy()
        critic_update(ac, random_batch(8, 3, seed=8), ac.cfg)
        assert ac.critic.params is params and not np.array_equal(params, before)


class TestActorUpdate:
    def test_constant_critic_no_move(self):
        ac = make_ac(seed=9)
        ac.critic.params[...] = np.zeros(ac.critic.params.size)
        before = ac.actor.params.copy()
        actor_update(ac, random_batch(8, 3, seed=10)[0], ac.cfg)
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
            a = policy_action(ac, StateVector(state))
            dists.append(np.linalg.norm(a - target))
            actor_update(ac, batch, cfg)
        assert all(d1 >= d2 - 1e-12 for d1, d2 in zip(dists, dists[1:]))
        assert dists[-1] < dists[0]

    def test_bounds_preserved(self):
        ac = make_ac(seed=12, actor_lr=1.0, b_l=0.2, b_u=0.9)
        batch = random_batch(8, 3, seed=13)[0]
        for _ in range(20):
            actor_update(ac, batch, ac.cfg)
        a = policy_action(ac, StateVector(np.zeros(3)))
        assert np.all((a >= 0.2) & (a <= 0.9))

    def test_empty_batch(self):
        ac = make_ac()
        with pytest.raises(ValueError):
            actor_update(ac, np.empty((0, 3)), ac.cfg)

    def test_updates_actor_in_place(self):
        ac = make_ac(seed=12)
        params = ac.actor.params
        before = params.copy()
        actor_update(ac, random_batch(8, 3, seed=13)[0], ac.cfg)
        assert ac.actor.params is params and not np.array_equal(params, before)


class TestSoftUpdate:
    def test_tau_one_copies(self):
        ac = make_ac(seed=14)
        soft_update(ac, 1.0)
        np.testing.assert_array_equal(ac.actor_target.params, ac.actor.params)
        np.testing.assert_array_equal(ac.critic_target.params, ac.critic.params)

    def test_halfway(self):
        ac = make_ac(seed=15)
        ac.actor.params[...] = np.ones(ac.actor.params.size)
        ac.actor_target.params[...] = np.zeros(ac.actor.params.size)
        soft_update(ac, 0.5)
        np.testing.assert_allclose(ac.actor_target.params, 0.5)

    def test_geometric_convergence(self):
        ac = make_ac(seed=16)
        ac.actor.params[...] = np.ones(ac.actor.params.size)
        ac.actor_target.params[...] = np.zeros(ac.actor.params.size)
        diffs = []
        for _ in range(6):
            soft_update(ac, 0.5)
            diffs.append(np.linalg.norm(ac.actor.params - ac.actor_target.params))
        ratios = [b / a for a, b in zip(diffs, diffs[1:])]
        np.testing.assert_allclose(ratios, 0.5, atol=1e-12)

    def test_bad_tau(self):
        with pytest.raises(ValueError):
            soft_update(make_ac(), 0.0)

    def test_updates_targets_in_place(self):
        ac = make_ac(seed=17)
        ac.actor.params[...] = 1.0
        targets = (ac.actor_target.params, ac.critic_target.params)
        before = [t.copy() for t in targets]
        soft_update(ac, 0.5)
        assert ac.actor_target.params is targets[0] and ac.critic_target.params is targets[1]
        np.testing.assert_array_equal(targets[0], 0.5 * 1.0 + 0.5 * before[0])
        np.testing.assert_array_equal(targets[1], 0.5 * ac.critic.params + 0.5 * before[1])


class _ListBuffer:
    """Reference replay buffer for the ring: a list of (state, action,
    reward, next_state, terminal) tuples with `pop(0)` eviction, and a
    Python walk over each start's n-step window."""

    def __init__(self, capacity, seed=0):
        self.capacity = capacity
        self._items = []
        self._rng = np.random.default_rng(seed)

    def push(self, state, action, reward, next_state, terminal):
        self._items.append((state, action, reward, next_state, terminal))
        if len(self._items) > self.capacity:
            self._items.pop(0)

    def sample_slices(self, batch_size, n_step, gamma):
        n = len(self._items)
        starts = self._rng.choice(n, size=min(batch_size, n), replace=False)
        returns, boots, terminal, steps = [], [], [], []
        for i in starts:
            g, k, last = 0.0, 0, self._items[i]
            for last in self._items[i : i + n_step]:
                g += gamma**k * last[2]
                k += 1
                if last[4]:
                    break
            returns.append(g)
            boots.append(last[3])
            terminal.append(last[4])
            steps.append(k)
        return (
            np.stack([self._items[i][0] for i in starts]),
            np.stack([self._items[i][1] for i in starts]),
            np.array(returns),
            np.stack(boots),
            np.array(terminal, dtype=np.float64),
            np.array(steps, dtype=np.float64),
        )


def push_counter(buf, i, terminal):
    """Transition i: state [i], action [1], reward 1, next state [i + 1]."""
    buf.push(np.array([float(i)]), np.ones(1), 1.0, np.array([i + 1.0]), terminal)


class TestReplayBuffer:
    @given(ops=st.lists(st.integers(0, 99), min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_fifo_and_capacity(self, ops):
        cap = 10
        buf = ReplayBuffer(cap, 1, seed=0)
        pushed = []
        for tag in ops:
            buf.push(np.array([float(tag)]), np.ones(1), 0.0, np.zeros(1), False)
            pushed.append(tag)
            assert len(buf) == min(len(pushed), cap)
            # With no terminal, a window of `cap` steps from the i-th oldest
            # start covers len(buf) - i transitions: that orders the starts.
            states, *_, steps = buf.sample_slices(cap, cap, 0.5)
            assert sorted(steps) == list(range(1, len(buf) + 1))
            kept = states[np.argsort(-steps), 0]
            assert kept.tolist() == [float(x) for x in pushed[-cap:]]

    def test_sample_deterministic_per_seed(self):
        def fill(seed):
            buf = ReplayBuffer(50, 1, seed=seed)
            for i in range(20):
                buf.push(np.array([float(i)]), np.ones(1), 0.0, np.zeros(1), False)
            return buf.sample_slices(8, 1, 0.9)[0][:, 0].tolist()

        assert fill(3) == fill(3)
        assert len(set(fill(3))) == 8  # distinct starts

    def test_sample_empty(self):
        with pytest.raises(ValueError):
            ReplayBuffer(5, 1).sample_slices(1, 1, 0.9)

    def test_one_step_slices_are_the_stored_transitions(self):
        buf = ReplayBuffer(50, 2, seed=1)
        for i in range(12):
            buf.push(np.array([float(i), 0.5]), np.full(2, i / 20), i - 5.5,
                     np.array([i + 1.0, 0.5]), i == 4)
        states, actions, returns, boots, terminal, steps = buf.sample_slices(32, 1, 0.9)
        assert states.shape == (12, 2) and actions.shape == (12, 2) and boots.shape == (12, 2)
        assert sorted(states[:, 0]) == list(range(12))
        for s, a, g, ns, term, k in zip(states, actions, returns, boots, terminal, steps):
            i = int(s[0])
            assert (a == i / 20).all() and (ns == [i + 1.0, 0.5]).all()
            assert g == i - 5.5 and term == float(i == 4) and k == 1.0

    def test_nstep_slices_stop_at_terminal(self):
        buf = ReplayBuffer(10, 1, seed=0)
        for i in range(5):
            push_counter(buf, i, i == 2)
        slices = buf.sample_slices(5, n_step=3, gamma=0.5)
        for s, a, g, ns, term, steps in zip(*slices):
            start = int(s[0])
            assert steps <= 3
            if start <= 2:
                assert steps <= 3 - start or steps == 3

    def test_nstep_slices_hand_values(self):
        # rewards 1, gamma 0.5, transition 2 terminal, 5 transitions
        buf = ReplayBuffer(10, 1, seed=0)
        for i in range(5):
            push_counter(buf, i, i == 2)
        states, _, returns, boots, terminal, steps = buf.sample_slices(5, n_step=3, gamma=0.5)
        expected = {  # start -> (return, bootstrap state, terminal, steps)
            0: (1.75, 3.0, 1.0, 3.0), 1: (1.5, 3.0, 1.0, 2.0), 2: (1.0, 3.0, 1.0, 1.0),
            3: (1.5, 5.0, 0.0, 2.0), 4: (1.0, 5.0, 0.0, 1.0),
        }
        got = {int(s[0]): (g, b[0], t, k) for s, g, b, t, k in
               zip(states, returns, boots, terminal, steps)}
        assert got == expected

    def test_nstep_slices_across_the_wrap(self):
        # capacity 4 after 7 pushes keeps transitions 3..6, stored in slots
        # 3, 0, 1, 2; transition 4 is terminal
        buf = ReplayBuffer(4, 1, seed=0)
        for i in range(7):
            push_counter(buf, i, i == 4)
        states, _, returns, boots, terminal, steps = buf.sample_slices(4, n_step=3, gamma=0.5)
        expected = {
            3: (1.5, 5.0, 1.0, 2.0), 4: (1.0, 5.0, 1.0, 1.0),
            5: (1.5, 7.0, 0.0, 2.0), 6: (1.0, 7.0, 0.0, 1.0),
        }
        got = {int(s[0]): (g, b[0], t, k) for s, g, b, t, k in
               zip(states, returns, boots, terminal, steps)}
        assert got == expected

    @pytest.mark.parametrize("capacity,n_step", [(10_000, 1), (50, 1), (30, 3), (7, 4)])
    def test_ring_matches_list_buffer(self, capacity, n_step):
        ring, oracle = ReplayBuffer(capacity, 3, seed=5), _ListBuffer(capacity, seed=5)
        rng = np.random.default_rng(capacity + n_step)
        for i in range(400):
            transition = (rng.uniform(0, 1, 3), rng.uniform(0.1, 1.0, 3), rng.normal(),
                          rng.uniform(0, 1, 3), bool(rng.random() < 0.15))
            ring.push(*transition)
            oracle.push(*transition)
            assert len(ring) == len(oracle._items)
            got = ring.sample_slices(8, n_step, 0.9)
            want = oracle.sample_slices(8, n_step, 0.9)
            for g, w in zip(got, want, strict=True):
                assert g.dtype == w.dtype and np.array_equal(g, w), i


class _CopyingReference:
    """The agent update as a copying loop: every step rebinds each network
    to a new Mlp over a new vector, the one-step batch is a list of
    (state, action, reward, next_state, terminal) tuples stacked per field,
    and n-step slices are built as a list of tuples."""

    def __init__(self, ac, items, rng, cfg):
        self.ac, self.items, self.rng, self.cfg = ac, items, rng, cfg

    def sample(self):
        n = len(self.items)
        return self.rng.choice(n, size=min(self.cfg.batch_size, n), replace=False)

    def batch(self):
        cfg, items = self.cfg, self.items
        starts = self.sample()
        if cfg.n_step == 1:
            batch = [items[i] for i in starts]
            return (np.stack([tr[0] for tr in batch]), np.stack([tr[1] for tr in batch]),
                    np.array([tr[2] for tr in batch]),
                    np.stack([tr[3] for tr in batch]),
                    np.array([tr[4] for tr in batch], dtype=np.float64),
                    np.ones(len(batch)))
        slices = []
        for i in starts:
            g, steps, last = 0.0, 0, items[i]
            for k in range(cfg.n_step):
                if i + k >= len(items):
                    break
                last = items[i + k]
                g += cfg.gamma**k * last[2]
                steps += 1
                if last[4]:
                    break
            slices.append((items[i][0], items[i][1], g, last[3], last[4], steps))
        return (np.stack([sl[0] for sl in slices]), np.stack([sl[1] for sl in slices]),
                np.array([sl[2] for sl in slices]), np.stack([sl[3] for sl in slices]),
                np.array([sl[4] for sl in slices], dtype=np.float64),
                np.array([sl[5] for sl in slices], dtype=np.float64))

    def learn(self):
        ac, cfg = self.ac, self.cfg
        states, actions, returns, boots, terminal, steps = self.batch()
        next_a = ac._act(ac.actor_target, boots)
        q_next = forward(ac.critic_target, np.hstack([boots, next_a]))[:, 0]
        target = returns + (cfg.gamma**steps) * (1.0 - terminal) * q_next
        cache = {}
        err = forward(ac.critic, np.hstack([states, actions]), cache)[:, 0] - target
        grads, _ = backward(ac.critic, cache, (2.0 * err / len(err))[:, None])
        ac.critic = Mlp(ac.critic.layer_dims, sgd_step(ac.critic.params, grads, cfg.critic_lr))

        actor_cache, critic_cache = {}, {}
        sig = 0.5 * (1.0 + np.tanh(0.5 * forward(ac.actor, states, actor_cache)))
        acts = cfg.b_l + (cfg.b_u - cfg.b_l) * sig
        forward(ac.critic, np.hstack([states, acts]), critic_cache)
        _, d_in = backward(ac.critic, critic_cache, np.full((len(states), 1), 1.0 / len(states)))
        d_raw = d_in[:, ac.n_classes:] * (cfg.b_u - cfg.b_l) * sig * (1.0 - sig)
        grads, _ = backward(ac.actor, actor_cache, d_raw)
        ac.actor = Mlp(ac.actor.layer_dims, sgd_step(ac.actor.params, grads, -cfg.actor_lr))

        tau = cfg.soft_update_tau
        ac.actor_target, ac.critic_target = (
            Mlp(tgt.layer_dims, tau * online.params + (1.0 - tau) * tgt.params)
            for online, tgt in ((ac.actor, ac.actor_target), (ac.critic, ac.critic_target))
        )


@pytest.mark.parametrize("n_step", [1, 3])
def test_learn_matches_copying_reference(n_step):
    cfg = ExperimentConfig(n_classes=3, seed_agent=4)
    cfg.agent = AgentConfig(n_step=n_step, batch_size=8, buffer_capacity=30, hidden=6,
                            actor_lr=0.05, critic_lr=0.05, soft_update_tau=0.1)
    opt = _OptimizedClient(cfg, [5, 4, 3])
    ref_ac = copy.deepcopy(opt.ac)
    ref = _CopyingReference(ref_ac, [], copy.deepcopy(opt.buffer._rng), cfg.agent)
    init = opt.ac.actor.params.copy()
    rng = np.random.default_rng(11)
    updates = 0
    for i in range(48):
        tr = (rng.uniform(0, 1, 3), rng.uniform(0.1, 1.0, 3), rng.normal(),
              rng.uniform(0, 1, 3), i % 9 == 8)
        opt.buffer.push(*tr)
        ref.items = (ref.items + [tr])[-cfg.agent.buffer_capacity:]
        opt._learn()
        if len(ref.items) >= cfg.agent.batch_size:
            ref.learn()
            updates += 1
        for net in ("actor", "critic", "actor_target", "critic_target"):
            assert np.array_equal(getattr(opt.ac, net).params, getattr(ref_ac, net).params), net
    assert updates == 41 and not np.array_equal(opt.ac.actor.params, init)
