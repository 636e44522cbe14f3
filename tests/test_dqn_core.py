import json
import re
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import UNIT_NORMS, full_state
from oracles import fd_loss_gradients, oracle_observe, value_iteration
from mecsched import dqn_core
from mecsched.dqn_core import (
    ADVANTAGE_SCALE,
    AdamState,
    DeviceScoringNetwork,
    DivergenceError,
    DqnLearner,
    ReplayBuffer,
    TrainConfig,
    ValueNetwork,
    compute_targets,
    load_checkpoint,
    loss_and_grads,
    save_checkpoint,
    sync_target,
    train_step,
)
from mecsched.mdp_agent import device_feature_index, normalize_state, state_width


def rng(seed=0):
    return np.random.default_rng(seed)


def scoring_net(n_devices=3, hidden=(8, 6), seed=60):
    """The learner's network over an ``n_devices`` fleet: a
    ``state_width(n_devices)`` input and one output per device."""
    return DeviceScoringNetwork([state_width(n_devices), *hidden, n_devices],
                                device_feature_index(n_devices), rng=rng(seed))


def step(net, target, batch, opt, gamma):
    """One optimizer step on a (states, actions, rewards, next states) batch,
    its targets from one pass of ``target``."""
    states, actions, rewards, next_states = batch
    return train_step(net, states, actions,
                      compute_targets(rewards, next_states, target, gamma), opt)


def zero_parameters(net):
    for p in net.parameters():
        p[:] = 0.0


class TestForward:
    def test_zero_parameters_give_zero_q(self):
        net = scoring_net()
        for w in net.value.weights + net.advantage.weights:
            w[:] = 0.0  # the biases start at zero
        assert np.allclose(net.forward(np.ones(state_width(3))), 0.0)

    def test_single_path_hand_computation(self):
        net = scoring_net(1, hidden=(2,))
        zero_parameters(net)
        net.value.weights[0][:2] = np.array([[1.0, 0.0], [0.0, -1.0]])
        net.value.biases[0][:] = np.array([0.5, 0.0])
        net.value.weights[1][:] = np.array([[2.0], [3.0]])
        net.value.biases[1][:] = np.array([-1.0])
        net.advantage.weights[0][2, 0] = 1.0  # hidden unit 0 reads the backlog
        net.advantage.weights[1][0, 0] = 4.0
        net.advantage.biases[1][:] = np.array([-0.5])
        x = np.zeros(state_width(1))
        x[:2] = (1.0, 2.0)
        x[device_feature_index(1)[0, 2]] = 3.0
        # V: z1 = (1.5, -2) -> relu (1.5, 0) -> 2*1.5 - 1 = 2.0
        # A: relu(3) = 3 -> 4*3 - 0.5 = 11.5, times ADVANTAGE_SCALE
        assert net.forward(x)[0] == pytest.approx(2.0 + ADVANTAGE_SCALE * 11.5)

    def test_batch_rows_independent(self):
        net = scoring_net(seed=1)
        xs = rng(2).normal(size=(64, state_width(3)))
        batch, _ = net.forward_batch(xs)
        rows = np.stack([net.forward(x) for x in xs])
        assert np.allclose(batch, rows)
        assert batch.shape == (64, 3)

    def test_shape_mismatch_rejected(self):
        width = state_width(3)
        net = scoring_net()
        for x in (np.ones(width - 1), np.ones((1, width))):
            with pytest.raises(ValueError, match=f"expected input of length {width}"):
                net.forward(x)
        for xs in (np.ones(width), np.ones((2, width + 1))):
            with pytest.raises(ValueError, match=f"expected shape \\(batch, {width}\\)"):
                net.forward_batch(xs)


def assert_single_rows_match_batch(net, r, n=200):
    """``forward(x)`` equals the row of a batch of one, bit for bit, on
    random states at scales 1e-2 to 1e2."""
    for scale in (1e-2, 1.0, 1e2):
        for x in r.normal(scale=scale, size=(n, net.layer_sizes[0])):
            assert np.array_equal(net.forward(x), net.forward_batch(x[None, :])[0][0])


class TestSingleStatePass:
    """``forward`` runs its own single-state pass; its Q row is the one a
    batch of one gives, before training, after it, and after a checkpoint."""

    def test_equals_a_batch_of_one_before_and_after_training(self):
        net = scoring_net()
        r = rng(67)
        assert_single_rows_match_batch(net, r)
        target = net.clone()
        opt = AdamState(net.parameters(), TrainConfig().learning_rate)
        for _ in range(20):
            batch = (r.normal(size=(8, state_width(3))), r.integers(0, 3, size=8),
                     r.normal(size=8), r.normal(size=(8, state_width(3))))
            step(net, target, batch, opt, 0.95)
        assert_single_rows_match_batch(net, r)

    def test_equals_a_batch_of_one_after_a_checkpoint(self, tmp_path):
        """At the learner's own shape, through a save and a load."""
        config = TrainConfig(batch=8, buffer_capacity=64, planned_steps=100)
        learner = DqnLearner(config, 5, rng(68), rng(69), rng(70))
        r = rng(71)
        for _ in range(30):
            s, s2 = r.normal(size=state_width(4)), r.normal(size=state_width(4))
            learner.observe(s, learner.act(s), float(r.normal()), s2)
        path = tmp_path / "agent.npz"
        save_checkpoint(learner, path)
        loaded = load_checkpoint(path)
        for net in (loaded.net, loaded.target_net):
            assert_single_rows_match_batch(net, r, n=100)


class TestFlatParameters:
    """Parameters, gradients and work buffers are shared storage; what a
    caller is handed must not change behind its back."""

    def test_successive_results_are_independent(self):
        net = scoring_net()
        r = rng(61)
        for batch in (1, 5):
            xs = r.normal(size=(2, batch, state_width(3)))
            first, _ = net.forward_batch(xs[0])
            kept = first.copy()
            second, _ = net.forward_batch(xs[1])
            assert np.array_equal(first, kept)
            assert not np.shares_memory(first, second)
        single = net.forward(xs[0][0])
        kept = single.copy()
        net.forward(xs[1][0])
        assert np.array_equal(single, kept)

    def test_parameters_are_views_into_one_vector(self):
        net = scoring_net()
        params = net.parameters()
        assert sum(p.size for p in params) == net.flat.size
        assert all(np.shares_memory(p, net.flat) for p in params)
        r = rng(62)
        x = r.normal(size=state_width(3))
        before = net.forward(x)
        params[1][:] += 1.0  # first bias: a write through a view reaches the network
        assert not np.array_equal(net.forward(x), before)
        _, grads = loss_and_grads(net, r.normal(size=(4, state_width(3))),
                                  np.array([0, 1, 2, 0]), r.normal(size=4))
        assert [g.shape for g in grads] == [p.shape for p in params]
        assert all(np.shares_memory(g, net.grad) for g in grads)

    def test_training_leaves_a_synced_target_alone(self):
        net = scoring_net()
        target = net.clone()
        assert not np.shares_memory(net.flat, target.flat)
        opt = AdamState(net.parameters(), TrainConfig().learning_rate)
        r = rng(63)

        def train(steps):
            for _ in range(steps):
                batch = (r.normal(size=(8, state_width(3))), r.integers(0, 3, size=8),
                         r.normal(size=8), r.normal(size=(8, state_width(3))))
                step(net, target, batch, opt, 0.95)

        train(5)
        sync_target(net, target)
        synced = target.flat.copy()
        assert np.array_equal(synced, net.flat)
        train(5)
        assert np.array_equal(target.flat, synced)
        assert not np.array_equal(net.flat, synced)

    def test_exploring_act_skips_the_network(self):
        config = TrainConfig(batch=8, buffer_capacity=64, planned_steps=100,
                             epsilon_end=1.0, hidden_sizes=(8,))
        learner = DqnLearner(config, 4, rng(64), rng(65), rng(66))
        assert learner.epsilon() == 1.0

        def forward(state):
            raise AssertionError("an exploring step ran the network")

        learner.net.forward = forward
        twin = rng(65)
        state = np.zeros(state_width(3))
        for _ in range(50):
            assert twin.random() < 1.0
            assert learner.act(state) == twin.integers(3)
        assert learner.rng_explore.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("epsilon, passes", [(0.0, 1), (1.0, 0)])
    def test_value_block_forward_runs_once_per_exploiting_act(self, monkeypatch,
                                                              epsilon, passes):
        """The benchmark's tracer times ``ValueNetwork.forward`` by wrapping
        it on the class; an exploiting ``act`` reaches it exactly once, an
        exploring one never."""
        calls = []
        original = ValueNetwork.forward

        def counted(block, x):
            calls.append(1)
            return original(block, x)

        monkeypatch.setattr(ValueNetwork, "forward", counted)
        config = TrainConfig(batch=8, buffer_capacity=64, planned_steps=100,
                             epsilon_start=epsilon, epsilon_end=epsilon, hidden_sizes=(8,))
        learner = DqnLearner(config, 4, rng(64), rng(65), rng(66))
        state = rng(67).normal(size=state_width(3))
        for greedy in (False, True):
            calls.clear()
            learner.act(state, greedy=greedy)
            assert len(calls) == (1 if greedy else passes)


def stub_learner(q, epsilon=0.0, seed=0):
    """A learner of ``len(q)`` devices whose network answers ``q``."""
    config = TrainConfig(batch=1, buffer_capacity=1, planned_steps=0,
                         epsilon_end=epsilon, hidden_sizes=(2,))
    learner = DqnLearner(config, len(q) + 1, rng(), rng(seed), rng())
    learner.net.forward = lambda state: np.asarray(q, dtype=float)
    return learner


class TestSelectAction:
    """``DqnLearner.act``: epsilon-greedy over the device columns 0..M-1."""

    def test_greedy_argmax_over_every_device(self):
        learner = stub_learner([3.0, 7.0, 2.0, 5.0])
        assert learner.act(np.zeros(5), greedy=True) == 1
        assert learner.act(np.zeros(5)) == 1  # epsilon 0 exploits too
        first = stub_learner([9.0, 3.0, 7.0, 2.0])
        assert first.act(np.zeros(5), greedy=True) == 0  # column 0 is a device

    def test_tie_goes_to_lowest_index(self):
        learner = stub_learner([7.0, 3.0, 7.0])
        assert learner.act(np.zeros(5), greedy=True) == 0

    def test_full_exploration_is_uniform(self):
        learner = stub_learner(np.zeros(4), epsilon=1.0, seed=5)
        counts = np.zeros(4)
        state = np.zeros(5)
        n = 1_000_000
        for _ in range(n):
            counts[learner.act(state)] += 1
        assert np.abs(counts / n - 0.25).max() < 0.01

    def test_exploration_draws_match_a_twin_stream(self):
        learner = stub_learner([1.0, 9.0, 4.0], epsilon=0.5, seed=7)
        twin = rng(7)
        for _ in range(200):
            expected = twin.integers(3) if twin.random() < 0.5 else 1
            assert learner.act(np.zeros(5)) == expected
        assert learner.rng_explore.bit_generator.state == twin.bit_generator.state

    def test_single_action_learner_refused(self):
        config = TrainConfig(hidden_sizes=(2,))
        with pytest.raises(ValueError, match="n_actions=1"):
            DqnLearner(config, 1, rng(), rng(), rng())


class TestTargets:
    def test_gamma_zero_reduces_to_reward(self):
        net = scoring_net(seed=6)
        width = state_width(3)
        next_states = rng(7).normal(size=(4, width))
        assert np.allclose(compute_targets(np.arange(4.0), next_states, net, 0.0),
                           np.arange(4.0))

    def test_hand_value(self):
        net = scoring_net(2, seed=8)
        width = state_width(2)
        q2 = net.forward(np.ones(width))
        y = compute_targets(np.array([1.0]), np.ones((1, width)), net, 0.95)
        assert y[0] == pytest.approx(1.0 + 0.95 * q2.max())

    def test_target_maximizes_over_every_device_column(self):
        """Only the best device's backlog is set, and the shared scorer gives
        a backlog of 1 a Q of 100; every column, device 0's too, can win."""
        net = scoring_net(seed=9)
        zero_parameters(net)
        net.advantage.weights[0][2, 0] = 1.0  # hidden unit 0 reads the backlog
        net.advantage.weights[1][0, 0] = 100.0 / ADVANTAGE_SCALE
        for best in range(3):
            s2 = np.zeros((1, state_width(3)))
            s2[0, device_feature_index(3)[best, 2]] = 1.0
            assert compute_targets(np.array([0.0]), s2, net, 1.0)[0] == pytest.approx(100.0)

    def test_zero_target_net(self):
        net = scoring_net(seed=10)
        zero_parameters(net)
        width = state_width(3)
        rewards = np.array([1.0, 2.0, 3.0])
        assert np.allclose(compute_targets(rewards, np.ones((3, width)), net, 0.95), rewards)


class TestGradients:
    # No state here silences a whole hidden layer: the next layer's
    # pre-activations would then be exactly its zero biases, a ReLU kink that
    # central differences read as half a slope.
    @pytest.mark.parametrize("sizes", [[state_width(2), 2, 2], [state_width(3), 8, 8, 3],
                                       [state_width(1), 8, 4, 4, 1]])
    def test_full_gradient_matches_finite_differences(self, sizes):
        net = DeviceScoringNetwork(sizes, device_feature_index(sizes[-1]), rng=rng(11))
        r = rng(12)
        states = r.normal(size=(6, sizes[0]))
        actions = r.integers(0, sizes[-1], size=6)
        targets = r.normal(size=6)
        loss, grads = loss_and_grads(net, states, actions, targets)
        fd = fd_loss_gradients(net, states, actions, targets)
        for g, pairs in zip(grads, fd):
            flat = g.ravel()
            for idx, fd_val in pairs:
                denom = max(abs(fd_val), abs(flat[idx]), 1e-8)
                assert abs(flat[idx] - fd_val) / denom < 1e-4

    def test_only_selected_device_column_passes_gradient(self):
        """With every action on device 1, the feature rows only devices 0
        and 2 read (their backlog and execution time) reach the loss
        through their own Q columns alone. The value stack is made blind
        to them, so changing them moves no loss and no gradient of the
        shared scorer."""
        net = scoring_net(seed=13)
        others = device_feature_index(3)[[0, 2], 2:].ravel()
        net.value.weights[0][others] = 0.0
        states = rng(14).normal(size=(5, state_width(3)))
        actions = np.ones(5, dtype=int)
        loss, grads = loss_and_grads(net, states, actions, np.zeros(5))
        kept = [g.copy() for g in grads[len(net.value.params):]]
        states[:, others] += 10.0
        moved, grads = loss_and_grads(net, states, actions, np.zeros(5))
        assert moved == loss
        assert all(np.array_equal(a, b) for a, b in zip(kept, grads[len(net.value.params):]))

    def test_exact_fit_gives_zero_loss_and_zero_gradient(self):
        net = scoring_net(2, seed=15)
        states = rng(16).normal(size=(4, state_width(2)))
        actions = np.array([0, 1, 0, 1])
        q, _ = net.forward_batch(states)
        targets = q[np.arange(4), actions]
        loss, grads = loss_and_grads(net, states, actions, targets)
        assert loss == 0.0
        assert all(np.allclose(g, 0.0) for g in grads)


class TestDeviceScoringNetwork:
    def make_net(self, n_devices=3, seed=40):
        sizes = [state_width(n_devices), 8, 6, n_devices]
        return DeviceScoringNetwork(sizes, device_feature_index(n_devices), rng=rng(seed))

    def test_devices_share_one_scorer(self):
        net = self.make_net()
        x = rng(41).normal(size=state_width(3))
        q = net.forward(x)
        assert q.shape == (3,)  # one column per device
        # swapping two devices' own features swaps their advantages
        swapped = x.copy()
        for pos in device_feature_index(3)[:, 2:].T:  # backlog, execution time
            swapped[pos] = x[pos[[1, 0, 2]]]
        q_swapped = net.forward(swapped)
        assert np.allclose(q_swapped - net.value.forward(swapped)[0],
                           (q - net.value.forward(x)[0])[[1, 0, 2]])

    def test_output_per_device_required(self):
        for outputs in (2, 4):
            with pytest.raises(ValueError, match="one output per device"):
                DeviceScoringNetwork([state_width(3), 8, outputs], device_feature_index(3))

    def test_gradients_match_finite_differences(self):
        net = self.make_net()
        r = rng(42)
        states = r.normal(size=(6, state_width(3)))
        actions = r.integers(0, 3, size=6)
        targets = r.normal(size=6)
        _, grads = loss_and_grads(net, states, actions, targets)
        fd = fd_loss_gradients(net, states, actions, targets)
        assert len(grads) == len(fd) == 10
        for g, pairs in zip(grads, fd):
            flat = g.ravel()
            for idx, fd_val in pairs:
                denom = max(abs(fd_val), abs(flat[idx]), 1e-8)
                assert abs(flat[idx] - fd_val) / denom < 1e-4

    def test_learner_checkpoint_round_trip(self, tmp_path):
        config = TrainConfig(batch=8, buffer_capacity=64, planned_steps=100,
                             hidden_sizes=(8,))
        learner = DqnLearner(config, 4, rng(43), rng(44), rng(45))
        assert isinstance(learner.net, DeviceScoringNetwork)
        r = rng(46)
        for _ in range(20):
            s, s2 = r.normal(size=state_width(3)), r.normal(size=state_width(3))
            learner.observe(s, learner.act(s), float(r.normal()), s2)
        path = tmp_path / "scoring.npz"
        save_checkpoint(learner, path)
        loaded = load_checkpoint(path)
        x = r.normal(size=state_width(3))
        assert np.array_equal(loaded.net.forward(x), learner.net.forward(x))


class TestTrainStep:
    def test_repeated_training_on_one_transition_converges(self):
        net = scoring_net(hidden=(8,), seed=17)
        target = net.clone()
        opt = AdamState(net.parameters(), learning_rate=0.01)
        state = np.ones((1, state_width(3)))
        batch = (state, np.array([1]), np.array([2.0]), state)
        losses = [step(net, target, batch, opt, 0.0) for _ in range(800)]
        assert losses[-1] < 1e-6
        assert losses[-1] < losses[0]

    def test_divergence_raises(self):
        net = scoring_net(2, seed=18)
        net.value.weights[0][0, 0] = np.nan
        target = net.clone()
        opt = AdamState(net.parameters(), TrainConfig().learning_rate)
        state = np.ones((1, state_width(2)))
        batch = (state, np.array([1]), np.array([1.0]), state)
        with pytest.raises(DivergenceError):
            step(net, target, batch, opt, 0.95)

    def test_target_untouched_between_syncs(self):
        net = scoring_net(seed=19)
        target = net.clone()
        before = [p.copy() for p in target.parameters()]
        opt = AdamState(net.parameters(), TrainConfig().learning_rate)
        r = rng(20)
        width = state_width(3)
        for _ in range(50):
            batch = (r.normal(size=(8, width)), r.integers(1, 3, size=8),
                     r.normal(size=8), r.normal(size=(8, width)))
            step(net, target, batch, opt, 0.95)
        assert all(np.array_equal(a, b) for a, b in zip(before, target.parameters()))
        assert not all(
            np.array_equal(a, b) for a, b in zip(before, net.parameters())
        )


class TestSyncTarget:
    def test_bitwise_copy(self):
        net = scoring_net(seed=21)
        target = scoring_net(seed=22)
        x = rng(23).normal(size=state_width(3))
        assert not np.allclose(net.forward(x), target.forward(x))
        sync_target(net, target)
        assert np.array_equal(net.forward(x), target.forward(x))

    def test_idempotent(self):
        net = scoring_net(2, seed=24)
        target = net.clone()
        sync_target(net, target)
        first = [p.copy() for p in target.parameters()]
        sync_target(net, target)
        assert all(np.array_equal(a, b) for a, b in zip(first, target.parameters()))

    def test_architecture_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sync_target(scoring_net(2, hidden=(4,), seed=25),
                        scoring_net(2, hidden=(3,), seed=26))


class TestReplayBuffer:
    def test_ring_eviction(self):
        buf = ReplayBuffer(4, 2, rng(27))
        for k in range(6):
            buf.add(np.array([k, k]), 1, float(k), np.array([k, k]))
        assert len(buf) == 4
        idx, states, _ = buf.sample(4)
        assert set(buf.rewards[idx]) == {2.0, 3.0, 4.0, 5.0}
        assert np.array_equal(states[:, 0], buf.rewards[idx])

    def test_batch_has_no_duplicates(self):
        buf = ReplayBuffer(1000, 2, rng(28))
        for k in range(300):
            buf.add(np.array([k, 0]), 1, float(k), np.zeros(2))
        for _ in range(50):
            idx, _, _ = buf.sample(64)
            assert len(set(idx.tolist())) == 64

    def test_uniformity_chi_square(self):
        # sampled indices over 1e5 draws should not reject uniformity at p=0.01
        buf = ReplayBuffer(1000, 1, rng(29))
        for k in range(200):
            buf.add(np.array([0.0]), 1, 0.0, np.array([0.0]))
        counts = np.zeros(200)
        draws = 100_000 // 4
        for _ in range(draws):
            for i in buf.sample(4)[0]:
                counts[i] += 1
        chi = stats.chisquare(counts)
        assert chi.pvalue > 0.01

    def test_insufficient_samples_rejected(self):
        buf = ReplayBuffer(10, 1, rng(30))
        buf.add(np.zeros(1), 1, 0.0, np.zeros(1))
        with pytest.raises(ValueError):
            buf.sample(2)


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("gamma", 1.5), ("epsilon_start", 1.5), ("epsilon_end", float("nan")),
        ("learning_rate", -1.0), ("learning_rate", float("inf")),
        ("epsilon_decay_fraction", -0.1), ("batch", 0), ("target_sync_steps", 0),
        ("episodes", -3), ("buffer_capacity", 10), ("hidden_sizes", (8, 0)),
        ("hidden_sizes", (-3,)), ("planned_steps", -1),
    ])
    def test_bad_setting_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}"):
            TrainConfig(**{field: value})

    def test_pool_of_one_batch_accepted(self):
        assert TrainConfig(batch=8, buffer_capacity=8).buffer_capacity == 8


class TestStoredTargets:
    """The learner's per-slot target values give the bits of a target pass
    per step."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.sampled_from([8, 64]),
           scale=st.sampled_from([0.1, 1.0, 10.0]), data=st.data())
    def test_a_row_has_the_same_bits_wherever_it_sits(self, seed, rows, scale, data):
        """At the pass sizes the stored values are computed at, a row's Q
        values do not depend on its companions or its position in the
        pass. A BLAS under which they do fails here."""
        net = DeviceScoringNetwork([state_width(4), *TrainConfig().hidden_sizes, 4],
                                   device_feature_index(4), rng(90))
        r = rng(seed)
        first, second = r.normal(scale=scale, size=(2, rows, state_width(4)))
        i = data.draw(st.integers(0, rows - 1), label="position in the first pass")
        j = data.draw(st.integers(0, rows - 1), label="position in the second pass")
        second[j] = first[i]
        q_first, _ = net.forward_batch(first)
        q_second, _ = net.forward_batch(second)
        assert np.array_equal(q_first[i], q_second[j])

    # target passes in each case's 300 steps, as recorded (they follow the
    # replay draws: re-record them under a new numpy, as test_golden_training's
    # digests); a refresh may run several, but no step more than REFRESH_PASSES
    PASSES = {(8, 30, 6): 280, (8, 60, 5): 282, (64, 200, 3): 173, (6, 30, 5): 290,
              (8, 400, 50): 167}

    @pytest.mark.parametrize("batch, capacity, sync", [
        (8, 30, 6),     # the values stay on: the pool wraps below 8 * 6 slots
        (8, 60, 5),     # the pool crosses 8 * 5 = 40 slots, then wraps
        (64, 200, 3),   # the reference batch; the pool crosses 192 slots
        (8, 400, 50),   # a sync leaves many more stale slots than a refresh takes
        (6, 30, 5),     # not a multiple of 4: a pass every step
    ])
    def test_side_by_side_with_a_pass_per_step(self, tmp_path, monkeypatch,
                                               batch, capacity, sync):
        """Weights, target weights, Adam moments and every loss equal the
        oracle's bit for bit, across syncs, ring wraps, the pool rule and a
        checkpoint round trip; the stored values run fewer target passes
        than a pass per step, as many as recorded."""
        config = TrainConfig(batch=batch, buffer_capacity=capacity,
                             target_sync_steps=sync, planned_steps=400)
        learners = [DqnLearner(config, 5, rng(80), rng(81), rng(82)) for _ in range(2)]
        passes = []
        counted = dqn_core.compute_targets

        def counting(*args):
            passes[-1] += 1
            return counted(*args)

        monkeypatch.setattr(dqn_core, "compute_targets", counting)
        r = rng(83)
        losses, pool = ([], []), []
        for step in range(300):
            if step == 220:
                for k, learner in enumerate(learners):
                    save_checkpoint(learner, tmp_path / f"{k}.npz")
                learners = [load_checkpoint(tmp_path / f"{k}.npz") for k in range(2)]
            s, s2 = r.normal(size=(2, state_width(4)))
            reward = float(r.normal())
            actions = [learner.act(s) for learner in learners]
            assert actions[0] == actions[1]
            passes.append(0)
            learners[0].observe(s, actions[0], reward, s2)
            oracle_observe(learners[1], s, actions[1], reward, s2)
            pool.append(len(learners[0].buffer))
            for k, learner in enumerate(learners):
                losses[k].append(learner.last_loss)
        ours, oracle = learners
        assert losses[0] == losses[1]
        for a, b in ((ours.net.flat, oracle.net.flat),
                     (ours.target_net.flat, oracle.target_net.flat),
                     (ours.opt.m, oracle.opt.m), (ours.opt.v, oracle.opt.v)):
            assert np.array_equal(a, b)
        assert ours.opt.step_count > 150
        training = [k for k, size in enumerate(pool) if size >= batch]
        assert all(passes[k] == 1 for k in training
                   if batch % 4 or pool[k] > batch * sync)
        assert max(passes) <= dqn_core.REFRESH_PASSES
        assert (sum(passes) < len(training)) == (batch % 4 == 0)
        assert sum(passes) == self.PASSES[batch, capacity, sync]


class TestLearnerAndCheckpoint:
    def make_learner(self, planned=1000):
        config = TrainConfig(batch=8, buffer_capacity=64, planned_steps=planned,
                             hidden_sizes=(8, 8), episodes=3)
        return DqnLearner(config, 5, rng(31), rng(32), rng(33))

    def test_epsilon_schedule_endpoints(self):
        learner = self.make_learner(planned=1000)
        assert learner.epsilon() == pytest.approx(1.0)
        learner.decision_steps = 600  # decay spans 60% of planned steps
        assert learner.epsilon() == pytest.approx(0.05)
        learner.decision_steps = 300
        assert learner.epsilon() == pytest.approx(0.525)

    def test_greedy_act_consumes_no_randomness(self):
        learner = self.make_learner()
        state = np.ones(state_width(4))
        before = learner.rng_explore.bit_generator.state["state"]["state"]
        learner.act(state, greedy=True)
        after = learner.rng_explore.bit_generator.state["state"]["state"]
        assert before == after
        assert learner.decision_steps == 0

    def test_checkpoint_round_trip_bitwise(self, tmp_path):
        learner = self.make_learner()
        r = rng(34)
        for _ in range(40):
            s, s2 = r.normal(size=state_width(4)), r.normal(size=state_width(4))
            a = learner.act(s)
            learner.observe(s, a, float(r.normal()), s2)
        path = tmp_path / "agent.npz"
        save_checkpoint(learner, path)
        loaded = load_checkpoint(path)
        for a, b in zip(learner.net.parameters(), loaded.net.parameters()):
            assert np.array_equal(a, b)
        for a, b in zip(learner.target_net.parameters(), loaded.target_net.parameters()):
            assert np.array_equal(a, b)
        for a, b in zip(learner.opt.m, loaded.opt.m):
            assert np.array_equal(a, b)
        assert loaded.opt.step_count == learner.opt.step_count
        assert loaded.decision_steps == learner.decision_steps
        assert loaded.rng_explore.bit_generator.state == learner.rng_explore.bit_generator.state
        path2 = tmp_path / "again.npz"
        save_checkpoint(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_checkpoint_records_the_device_count(self, tmp_path):
        path = tmp_path / "agent.npz"
        save_checkpoint(self.make_learner(), path)
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta_json"]).decode("utf-8"))
        assert meta["version"] == 4
        assert meta["n_devices"] == 4
        assert "n_actions" not in meta
        assert load_checkpoint(path).n_devices == 4

    @pytest.mark.parametrize("name, value", [("net_0", np.nan), ("adam_v", np.inf)])
    def test_non_finite_checkpoint_refused(self, tmp_path, name, value):
        """A NaN weight would make every greedy Q row NaN, and argmax would
        silently pick column 0."""
        path = tmp_path / "agent.npz"
        save_checkpoint(self.make_learner(), path)
        with np.load(path) as data:
            arrays = dict(data)
        arrays[name].flat[0] = value
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=f"checkpoint {name} holds non-finite values"):
            load_checkpoint(path)

    def test_old_checkpoint_version_refused(self, tmp_path):
        # version 3 recorded n_actions, and its Q rows held a run-locally column
        learner = self.make_learner()
        path = tmp_path / "old.npz"
        save_checkpoint(learner, path)
        with np.load(path) as data:
            arrays = dict(data)
        meta = json.loads(bytes(arrays["meta_json"]).decode("utf-8"))
        meta["version"] = 3
        meta["n_actions"] = meta.pop("n_devices") + 1
        arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode("utf-8"),
                                            dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="unsupported checkpoint version 3"):
            load_checkpoint(path)


class ToyTwoStateEnv:
    """Deterministic 2-state, 2-action MDP driven through the learner API.

    The MDP's two moves are the devices of a 2-device observation: state k
    is basis vector e_k in the aggregates, then a unit task with slack k on
    unit-capability devices with backlogs 0 and 1, normalized by unit
    scales. Action k moves to device k + 1.
    """

    TRANSITIONS = [[1, 0], [0, 1]]  # state -> action -> next state
    REWARDS = [[0.0, 1.0], [3.0, 1.0]]

    def __init__(self, horizon=40):
        self.horizon = horizon

    @staticmethod
    def embed(state: int) -> np.ndarray:
        return normalize_state(full_state(*(1.0 if k == state else 0.0 for k in range(5)),
                                          slack=state, backlog=(0.0, 1.0)), UNIT_NORMS)

    def run_episode(self, learner, learn=True) -> float:
        state = 0
        total = 0.0
        prev = None
        for _ in range(self.horizon):
            s_vec = self.embed(state)
            if prev is not None and learn:
                learner.observe(prev[0], prev[1], prev[2], s_vec)
            action = learner.act(s_vec, greedy=not learn)
            reward = self.REWARDS[state][action]
            nxt = self.TRANSITIONS[state][action]
            total += reward
            prev = (s_vec, action, reward)
            state = nxt
        if learn and prev is not None:
            learner.observe(prev[0], prev[1], prev[2], self.embed(state))
        return total


class TestToyMdp:
    def test_dqn_matches_value_iteration(self):
        env = ToyTwoStateEnv()
        _, optimal = value_iteration(env.TRANSITIONS, env.REWARDS, gamma=0.9)
        # delayed gratification: immediate-greedy in state 0 is suboptimal
        assert optimal == [0, 0]
        assert env.REWARDS[0][optimal[0]] < max(env.REWARDS[0])

        config = TrainConfig(gamma=0.9, batch=16, learning_rate=0.003,
                             buffer_capacity=4000, planned_steps=3200,
                             target_sync_steps=100, hidden_sizes=(16, 16),
                             episodes=80)
        learner = DqnLearner(config, 3, rng(35), rng(36), rng(37))
        for _ in range(80):
            env.run_episode(learner, learn=True)
        for state in (0, 1):
            q = learner.net.forward(env.embed(state))
            assert int(np.argmax(q)) == optimal[state], f"state {state}: q={q}"


class TestCheckpointNetworkKinds:
    """The network kind a learner carries survives save and load; a
    checkpoint naming no kind, or any other kind, is refused by name."""

    def trained(self):
        config = TrainConfig(batch=8, buffer_capacity=64, planned_steps=100,
                             hidden_sizes=(8, 8))
        learner = DqnLearner(config, 4, rng(51), rng(52), rng(53))
        r = rng(54)
        for _ in range(20):
            s, s2 = r.normal(size=state_width(3)), r.normal(size=state_width(3))
            learner.observe(s, learner.act(s), float(r.normal()), s2)
        return learner

    def test_round_trip(self, tmp_path):
        learner = self.trained()
        assert learner.net.kind == "device-scoring"
        path = tmp_path / "agent.npz"
        save_checkpoint(learner, path)
        loaded = load_checkpoint(path)
        assert type(loaded.net) is type(learner.net)
        assert type(loaded.target_net) is type(learner.target_net)
        for a, b in zip(learner.net.parameters(), loaded.net.parameters()):
            assert np.array_equal(a, b)
        for a, b in zip(learner.target_net.parameters(), loaded.target_net.parameters()):
            assert np.array_equal(a, b)
        assert np.array_equal(loaded.opt.m, learner.opt.m)
        assert np.array_equal(loaded.opt.v, learner.opt.v)
        x = rng(55).normal(size=state_width(3))
        assert np.array_equal(loaded.net.forward(x), learner.net.forward(x))
        again = tmp_path / "again.npz"
        save_checkpoint(loaded, again)
        assert path.read_bytes() == again.read_bytes()

    def rewrite_meta(self, path, edit, drop=()):
        """Edit the saved metadata in place, then delete the ``drop`` members."""
        with np.load(path) as data:
            arrays = dict(data)
        meta = json.loads(bytes(arrays["meta_json"]).decode("utf-8"))
        edit(meta)
        arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode("utf-8"),
                                            dtype=np.uint8)
        for name in drop:
            del arrays[name]
        np.savez(path, **arrays)

    @pytest.mark.parametrize("edit, drop, message", [
        (lambda meta: None, ("meta_json",), "has no member 'meta_json'"),
        (lambda meta: None, ("adam_v",), "has no member 'adam_v'"),
        (lambda meta: meta.pop("version"), (), "has no metadata key 'version'"),
        (lambda meta: meta.pop("decision_steps"), (), "has no metadata key 'decision_steps'"),
        (lambda meta: meta["config"].update(momentum=0.9), (),
         r"config has unknown keys \['momentum'\]"),
    ], ids=["meta_json", "adam_v", "version", "decision_steps", "momentum"])
    def test_foreign_archive_refused_naming_file_and_member(self, tmp_path, edit, drop,
                                                            message):
        """A refusal a command line can print, not a KeyError or TypeError."""
        path = tmp_path / "agent.npz"
        save_checkpoint(self.trained(), path)
        self.rewrite_meta(path, edit, drop)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: checkpoint {message}$"):
            load_checkpoint(path)

    def test_checkpoint_without_kind_refused(self, tmp_path):
        path = tmp_path / "agent.npz"
        save_checkpoint(self.trained(), path)
        self.rewrite_meta(path, lambda meta: meta.pop("network"))
        with pytest.raises(ValueError, match="network kind None"):
            load_checkpoint(path)

    def test_plain_kind_refused(self, tmp_path):
        """Neither the bare stack nor the retired dueling network is a kind
        a learner carries."""
        path = tmp_path / "agent.npz"
        save_checkpoint(self.trained(), path)
        for kind in ("plain", "dueling"):
            self.rewrite_meta(path, lambda meta: meta.update(network=kind))
            with pytest.raises(ValueError,
                               match=f"unsupported checkpoint network kind '{kind}'"):
                load_checkpoint(path)
