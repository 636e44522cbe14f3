import math
from collections import namedtuple
from dataclasses import fields

import numpy as np
import pytest

from conftest import UNIT_NORMS, full_state
from mecsched.experiment import TopologyConfig, build_topology
from mecsched.mdp_agent import (
    RewardParams,
    DqnScheduler,
    StateNorms,
    compute_reward,
    device_feature_index,
    normalize_state,
    state_width,
)
from mecsched.mec_model import EdgeDevice
from mecsched.scheduler_port import SchedulerPort
from mecsched.sim_engine import DecisionContext, observe_state
from mecsched.task_graph import Task


def make_ctx(obs, task_id=1):
    return DecisionContext(
        now=0.0, app_id=1, task_id=task_id,
        valid_actions=(1, 2, 3, 4), finish_if=lambda m: 0.0, observe=lambda: obs,
    )


Transition = namedtuple("Transition", "state action reward next_state")


class RecordingLearner:
    """Scripted stand-in for the value learner of a 4-device fleet: it
    answers device columns 0..3."""

    n_devices = 4

    def __init__(self, actions):
        self.actions = list(actions)
        self.seen: list[Transition] = []

    def act(self, state, greedy=False):
        return self.actions.pop(0)

    def observe(self, state, action, reward, next_state):
        self.seen.append(Transition(state, action, reward, next_state))


class TestReward:
    def test_utility_term(self):
        r = compute_reward(500.0, 10.0, 0.0, 0.0, 0.0, 10.0, RewardParams(beta=0.6, psi=0, eta=0))
        assert r == pytest.approx(0.6 * math.log2(500.0), rel=1e-12)

    def test_duration_term(self):
        params = RewardParams(beta=0.0, psi=5.0, eta=0.0)
        r = compute_reward(500.0, 10.0, 1.0, 0.5, 0.1, 10.0, params)
        assert r == pytest.approx(-5.0 * 1.6 / 500.0, rel=1e-12)

    def test_on_time_has_no_penalty(self):
        params = RewardParams(beta=0.0, psi=0.0, eta=40.0)
        assert compute_reward(500.0, 2.0, 0.0, 0.0, 0.0, 2.0, params) == 0.0

    def test_early_finish_is_a_bonus(self):
        params = RewardParams(beta=0.0, psi=0.0, eta=40.0)
        r = compute_reward(500.0, 3.0, 0.0, 0.0, 0.0, 2.0, params)
        assert r == pytest.approx(40.0 / 500.0, rel=1e-12)  # -P with P negative

    def test_clamped_variant_floors_bonus(self):
        params = RewardParams(beta=0.0, psi=0.0, eta=40.0, clamp_early=True)
        assert compute_reward(500.0, 3.0, 0.0, 0.0, 0.0, 2.0, params) == 0.0

    def test_dummy_workload_rejected(self):
        with pytest.raises(ValueError):
            compute_reward(0.0, 1.0, 0.0, 0.0, 0.0, 0.0, RewardParams())

    def test_monotone_in_queue_delay_and_lateness(self):
        params = RewardParams()
        base = compute_reward(300.0, 1.0, 0.5, 0.5, 0.1, 1.1, params)
        worse_queue = compute_reward(300.0, 1.0, 0.5, 0.9, 0.1, 1.1, params)
        later = compute_reward(300.0, 1.0, 0.5, 0.5, 0.1, 1.6, params)
        assert worse_queue < base
        assert later < base

    def test_closed_form_decomposition(self):
        rng = np.random.default_rng(0)
        params = RewardParams(beta=0.6, psi=5.0, eta=40.0)
        for _ in range(200):
            rho = float(rng.uniform(1.0, 1000.0))
            lct = float(rng.uniform(0.0, 20.0))
            arr = float(rng.uniform(0.0, 10.0))
            q = float(rng.uniform(0.0, 10.0))
            ex = float(rng.uniform(0.0, 2.0))
            fin = float(rng.uniform(0.0, 30.0))
            expected = (0.6 * math.log2(rho)
                        - 5.0 * (arr + q + ex) / rho
                        - 40.0 * (fin - lct) / rho)
            got = compute_reward(rho, lct, arr, q, ex, fin, params)
            assert got == pytest.approx(expected, rel=1e-12)


class TestNormalization:
    def test_identity_scaling(self):
        raw = full_state(1000.0, 1000.0, 24000.0, 10000.0, 10000.0, task_workload=500.0,
                         slack=1.0, backlog=(0.1, 0.1), capability=(5000.0, 5000.0))
        assert np.allclose(normalize_state(raw, StateNorms()), np.ones(state_width(2)))

    def test_zero_state(self):
        raw = full_state(0.0, 0.0, 0.0, 0.0, 0.0, task_workload=0.0)
        assert np.allclose(normalize_state(raw, StateNorms()), np.zeros(state_width(2)))

    def test_reference_topology_magnitudes(self):
        raw = full_state(12 * 440.0, 1000.0, 24000.0, 2500.0, 30000.0, task_workload=300.0,
                         slack=2.0, backlog=(0.05, 0.3, 0.0, 0.0),
                         capability=(6000.0, 5500.0, 5000.0, 4500.0))
        vec = normalize_state(raw, StateNorms())
        assert vec.max() <= 10.0
        assert vec[0] == pytest.approx(5.28)

    def test_positive_scales_required(self):
        """Every scale is refused by name when it is not positive and finite:
        a NaN one would make every observation NaN, an infinite one would
        zero its components."""
        for field in fields(StateNorms):
            for value in (0.0, -1.0, math.nan, math.inf):
                with pytest.raises(ValueError,
                                   match=f"^{field.name} must be positive and finite"):
                    StateNorms(**{field.name: value})


class TestLayout:
    """``state_width`` and ``device_feature_index``, from which the learner
    takes its whole shape, agree with what ``normalize_state`` lays out."""

    @pytest.mark.parametrize("n_devices", [1, 2, 4, 8])
    def test_device_rows_hold_each_devices_features(self, n_devices):
        tc = TopologyConfig(n_devices=n_devices)
        devices = [EdgeDevice(m, tc.capability_levels, current_level=m % 5,
                              queue_free_at=0.25 * m) for m in range(1, n_devices + 1)]
        now, rho, lct = 0.5, 320.0, 2.0
        obs = observe_state(now, build_topology(tc), devices, [Task(3, rho)], {3: lct})
        state = normalize_state(obs, StateNorms())
        assert state.shape == (state_width(n_devices),)
        rows = state[device_feature_index(n_devices)]
        for d, row in zip(devices, rows):
            backlog = max(d.queue_free_at - now, 0.0)
            assert row.tolist() == [rho / 500.0, (lct - now) / 1.0, backlog / 0.1,
                                    rho / d.capability / 0.1]


class TestDqnScheduler:
    def test_is_a_scheduler_port(self):
        agent = DqnScheduler(RecordingLearner([]), 4)
        assert isinstance(agent, SchedulerPort)
        ready = [Task(2, 100.0), Task(1, 400.0)]
        agent.order_ready(None, ready)
        assert ready == [Task(2, 100.0), Task(1, 400.0)]

    def test_first_step_stores_nothing(self):
        learner = RecordingLearner([1])
        agent = DqnScheduler(learner, 4, norms=UNIT_NORMS)
        action = agent.decide(make_ctx(full_state(1, 0, 0, 0, 0)))
        assert action == 2  # column 1 is device 2
        assert learner.seen == []

    @pytest.mark.parametrize("column", [0, 3])
    def test_column_becomes_device_id(self, column):
        agent = DqnScheduler(RecordingLearner([column]), 4, norms=UNIT_NORMS)
        assert agent.decide(make_ctx(full_state(1, 0, 0, 0, 0))) == column + 1

    def test_second_step_stores_one_transition(self):
        learner = RecordingLearner([1, 2])
        agent = DqnScheduler(learner, 4, norms=UNIT_NORMS)
        s1 = full_state(1, 0, 0, 0, 0)
        s2 = full_state(0, 1, 0, 0, 0)
        agent.decide(make_ctx(s1))
        agent.notify_outcome(2.5)
        agent.decide(make_ctx(s2))
        assert len(learner.seen) == 1
        tr = learner.seen[0]
        assert tr.action == 1
        assert tr.reward == 2.5
        assert np.array_equal(tr.state, [1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1])
        assert np.array_equal(tr.next_state, [0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 1])

    def test_stream_is_contiguous(self):
        learner = RecordingLearner([1, 2, 3, 4])
        agent = DqnScheduler(learner, 4, norms=UNIT_NORMS)
        states = [full_state(float(k), 0, 0, 0, 0) for k in range(4)]
        for k, s in enumerate(states):
            agent.decide(make_ctx(s))
            agent.notify_outcome(float(k))
        agent.end_episode(full_state(9, 9, 9, 9, 9))
        assert len(learner.seen) == 4
        for a, b in zip(learner.seen, learner.seen[1:]):
            assert np.allclose(a.next_state, b.state)

    def test_episode_end_flushes_final_transition(self):
        learner = RecordingLearner([3])
        agent = DqnScheduler(learner, 4, norms=UNIT_NORMS)
        agent.decide(make_ctx(full_state(1, 0, 0, 0, 0)))
        agent.notify_outcome(1.5)
        final = full_state(0, 0, 0, 0, 0)
        agent.end_episode(final)
        assert len(learner.seen) == 1
        assert np.array_equal(learner.seen[0].next_state, [0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1])

    def test_no_transition_bridges_episodes(self):
        learner = RecordingLearner([1, 2])
        agent = DqnScheduler(learner, 4, norms=UNIT_NORMS)
        agent.decide(make_ctx(full_state(1, 0, 0, 0, 0)))
        agent.notify_outcome(1.0)
        agent.end_episode(full_state(0, 0, 0, 0, 0))
        agent.decide(make_ctx(full_state(2, 0, 0, 0, 0)))
        agent.notify_outcome(2.0)
        agent.end_episode(full_state(0, 0, 0, 0, 0))
        assert len(learner.seen) == 2
        assert learner.seen[0].reward == 1.0
        assert learner.seen[1].reward == 2.0
        assert learner.seen[1].state[0] == 2.0

    def test_learner_of_another_fleet_refused(self):
        for n_devices in (3, 5):
            with pytest.raises(ValueError, match=f"learner scores 4 devices, but the "
                                                 f"fleet has {n_devices}"):
                DqnScheduler(RecordingLearner([0]), n_devices)

    def test_eval_mode_never_trains(self):
        learner = RecordingLearner([1, 2, 3])
        agent = DqnScheduler(learner, 4, norms=UNIT_NORMS, training=False)
        for k in range(3):
            agent.decide(make_ctx(full_state(float(k), 0, 0, 0, 0)))
            agent.notify_outcome(float(k))
        agent.end_episode(full_state(0, 0, 0, 0, 0))
        assert learner.seen == []
