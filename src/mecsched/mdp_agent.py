"""MDP layer between the simulator and a value learner.

Each scheduling decision is one MDP step: the agent observes the system and
the task at hand, picks a target device for that task, and one step later
receives the reward for that pick. The observation holds five fleet
aggregates, the placed task's workload and slack (latest completion time
minus now), and each device's backlog (seconds until its queue drains) and
current capability; the network sees each device's capability as the
placed task's execution time on it. The reward trades off a log-workload
utility against a normalized duration term (input wait + queue wait +
execution, seconds from the decision instant) and a normalized lateness
penalty relative to the task's latest completion time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .scheduler_port import SchedulerPort

__all__ = [
    "StateVector",
    "StateNorms",
    "RewardParams",
    "compute_reward",
    "normalize_state",
    "state_width",
    "device_feature_index",
    "DqnScheduler",
]


@dataclass(slots=True)
class StateVector:
    """(sum of inter-device rates, uplink rate, sum of capabilities,
    ready-queue workload, device-queue workload), then the placed task's
    workload and slack, then per-device backlog and capability in device-id
    order: ``state_width(len(backlog))`` numbers in all.

    One is built per observed decision, so the class is slotted rather than
    frozen; nothing hashes it.
    """

    sum_inter_rate: float  # Mbps
    uplink_rate: float  # Mbps
    sum_capability: float  # MIPS
    ready_workload: float  # MI
    queued_workload: float  # MI
    task_workload: float  # MI; 0 when no task is being placed
    task_slack: float  # s, lct - now
    backlog: tuple[float, ...]  # s until each device's queue drains
    capability: tuple[float, ...]  # MIPS, current level of each device


def state_width(n_devices: int) -> int:
    """Length of the flattened observation of an ``n_devices`` fleet."""
    return 5 + 2 + 2 * n_devices


def device_feature_index(n_devices: int) -> np.ndarray:
    """Positions in the normalized observation of each device's feature row:
    (task workload, task slack, backlog, execution time), one per device."""
    m = np.arange(n_devices)
    return np.stack([np.full(n_devices, 5), np.full(n_devices, 6),
                     7 + m, 7 + n_devices + m], axis=1)


@dataclass(frozen=True)
class StateNorms:
    """Per-component scales applied before feeding the network; each must
    be positive and finite."""

    rate: float = 1000.0  # Mbps
    capability: float = 24000.0  # MIPS, fleet sum
    workload: float = 10000.0  # MI, ready and queued sums
    task_workload: float = 500.0  # MI
    slack: float = 1.0  # s
    device_time: float = 0.1  # s, backlog and execution time

    def __post_init__(self) -> None:
        for f in fields(self):
            if not 0.0 < getattr(self, f.name) < math.inf:
                raise ValueError(f"{f.name} must be positive and finite, "
                                 f"got {getattr(self, f.name)!r}")


@functools.lru_cache(maxsize=None)
def _scales(norms: StateNorms, n_devices: int) -> np.ndarray:
    """Per-component scales of an ``n_devices`` fleet's observation."""
    return np.array([norms.rate, norms.rate, norms.capability, norms.workload,
                     norms.workload, norms.task_workload, norms.slack,
                     *[norms.device_time] * (2 * n_devices)], dtype=float)


def normalize_state(raw: StateVector, norms: StateNorms) -> np.ndarray:
    """Scaled network input.

    Each device's capability enters as the placed task's execution time on
    it (workload / capability), next to its backlog: the two seconds the
    device adds to the task's finish.
    """
    rho = raw.task_workload
    flat = np.array([
        raw.sum_inter_rate, raw.uplink_rate, raw.sum_capability,
        raw.ready_workload, raw.queued_workload, rho, raw.task_slack,
        *raw.backlog, *(rho / c for c in raw.capability),
    ])
    return flat / _scales(norms, len(raw.backlog))


@dataclass(frozen=True)
class RewardParams:
    beta: float = 0.6  # utility weight
    psi: float = 5.0  # duration weight
    eta: float = 40.0  # lateness weight
    clamp_early: bool = False  # if True, early finishes earn no bonus

    def __post_init__(self) -> None:
        for name in ("beta", "psi", "eta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")


def compute_reward(
    workload: float,
    lct: float,
    arrival_wait: float,
    queue_wait: float,
    exec_time: float,
    finish: float,
    params: RewardParams,
) -> float:
    """Utility minus duration minus lateness, all per unit workload.

    The three duration inputs are seconds measured from the decision instant
    and sum to ``finish - now``: the wait for the last input to arrive, the
    further wait for the device's queue to drain, and the execution time.
    Lateness keeps its sign by default, so finishing ahead of the latest
    completion time yields a bonus; ``clamp_early`` floors it at zero.
    """
    if workload <= 0:
        raise ValueError("reward is undefined for zero-workload (dummy) tasks")
    utility = params.beta * math.log2(workload)
    duration = params.psi * (arrival_wait + queue_wait + exec_time) / workload
    lateness = finish - lct
    if params.clamp_early and lateness < 0:
        lateness = 0.0
    penalty = params.eta * lateness / workload
    return utility - duration - penalty


class DqnScheduler(SchedulerPort):
    """Event-driven decision layer bridging the simulator to a Q-learner.

    Keeps the last decision's (state, action) and the last reward reported
    to ``notify_outcome``. ``decide`` reads the observation (the only
    scheduler that does) and, when training, first hands the learner the
    transition it completes, then asks for a Q column 0..M-1, returning its
    device id, the column plus one; ``end_episode`` completes the last
    transition. A learner of another fleet size is refused.
    """

    def __init__(self, learner, n_devices: int, norms: StateNorms | None = None,
                 training: bool = True):
        if learner.n_devices != n_devices:
            raise ValueError(f"learner scores {learner.n_devices} devices, "
                             f"but the fleet has {n_devices}")
        self.learner = learner
        self.norms = norms if norms is not None else StateNorms()
        self.training = training
        self._pending: tuple[np.ndarray, int] | None = None
        self._reward = 0.0

    def decide(self, ctx) -> int:
        state = normalize_state(ctx.observation, self.norms)
        if self.training and self._pending is not None:
            self.learner.observe(*self._pending, self._reward, state)
        action = self.learner.act(state, greedy=not self.training)
        self._pending = (state, action)
        return action + 1

    def notify_outcome(self, reward: float) -> None:
        self._reward = reward

    def end_episode(self, observation: StateVector) -> None:
        if self.training and self._pending is not None:
            self.learner.observe(*self._pending, self._reward,
                                 normalize_state(observation, self.norms))
        self._pending = None
