"""Edge device fleet: capability Markov chains, FCFS queues, timing rules.

Devices are indexed 1..M; index 0 is the fictitious device standing in for
the mobile user, which hosts only the two dummy tasks. Each device has a
single processing element serving its queue FCFS, and a capability (MIPS)
that walks a Markov chain over discrete levels, stepping when the device
completes a task.

Timing rules, all in seconds:
  execution      workload / capability (0 for dummies)
  transfer       0 on the same device; data/uplink for home-device uploads
                 and downloads; data/uplink + data/inter_rate when the
                 upload/download is relayed through the home device;
                 data/inter_rate between two real devices
  completion     max(device free time, latest input arrival, now) + execution
                 (applied by the event kernel, sim_engine.run)

The transfer rules live in ``transfer_times``, which gives one output's
delays to a list of target devices in one call, reading the topology's rate
rows without checking the device ids; the kernel's planner calls it once per
parent output. ``transfer_time`` is the one-edge, one-target form: it checks
that the topology links every device it names, then asks ``transfer_times``.

Queue bookkeeping: a device owns its FCFS queue of (app, task, MI) entries
and keeps their MI total in the attribute ``queued_mi``, which
``observe_state`` reads at every decision. Only ``enqueue`` and ``pop_head``
keep that total, so callers must treat it as read-only. ``enqueue`` appends
and adds the entry's MI to the total, which leaves it equal, bit for bit, to
a left-to-right sum over the queue; ``pop_head`` checks that the completing
task is the head and re-sums what is left, once per completion. ``queue`` is
a read-only tuple, so the queue itself cannot be changed around them.

Float sums: ``ordered_sum`` adds left to right from 0.0, as builtin ``sum``
does on Python 3.11. From 3.12 on, ``sum`` of floats is compensated and can
differ in the last bits, so the kernel's simulated sums go through
``ordered_sum``, or the same loop written out, to stay the same on every
interpreter.

Chain sampling: each transition row's cumulative distribution is computed
once, as ``Generator.choice`` computes it on every call (``cumsum``, then
divided by its last entry), and a step draws one uniform and bisects the
row to the right; the levels drawn and the generator state afterwards are
those of ``rng.choice(len(row), p=row)``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .task_graph import Edge, Task

__all__ = [
    "EdgeDevice",
    "CapabilityChain",
    "NetworkTopology",
    "Assignment",
    "execution_time",
    "transfer_time",
    "transfer_times",
    "transition_capability",
    "ordered_sum",
    "check_transition_matrix",
]

MU_DEVICE = 0  # pseudo-device hosting dummy tasks


def ordered_sum(values: Iterable[float]) -> float:
    """``((0.0 + v0) + v1) + ...``: an uncompensated left-to-right float sum.

    A plain loop, because builtin ``sum`` is compensated on Python >= 3.12
    (``sum([1e16, 1.0, -1e16])`` is 1.0 there, 0.0 on 3.11), and
    ``reduce(add, values, 0.0)``, which adds the same operands in the same
    order, takes about 1.6 times as long from 30 operands on. (The two can
    differ only in which NaN comes out when two NaNs meet.)
    """
    total = 0.0
    for v in values:
        total += v
    return float(total)


@dataclass
class EdgeDevice:
    """One edge device: a single FCFS processing element."""

    ecd_id: int
    capability_levels: tuple[float, ...]  # MIPS, level 0 first
    current_level: int = 0
    queue_free_at: float = 0.0
    # MI queued, the executing task included; read-only (see the module notes)
    queued_mi: float = field(default=0.0, init=False, repr=False)
    _queue: deque = field(default_factory=deque, init=False, repr=False)  # (app, task, MI)

    def __post_init__(self) -> None:
        if self.ecd_id < 1:
            raise ValueError("real devices are numbered from 1")
        if not self.capability_levels or not all(
                0.0 < c < math.inf for c in self.capability_levels):
            raise ValueError("capability levels must be positive and finite")
        if not 0 <= self.current_level < len(self.capability_levels):
            raise ValueError("current_level out of range")

    @property
    def capability(self) -> float:
        return self.capability_levels[self.current_level]

    @property
    def queue(self) -> tuple[tuple[int, int, float], ...]:
        """(app, task, MI) of every assigned task not yet completed, head first."""
        return tuple(self._queue)

    def enqueue(self, app_id: int, task_id: int, mi: float) -> None:
        self._queue.append((app_id, task_id, mi))
        self.queued_mi += mi

    def pop_head(self, app_id: int, task_id: int) -> None:
        """Remove the completing task, which must be the head of the queue,
        and re-sum what is left."""
        queue = self._queue
        if not queue or queue[0][:2] != (app_id, task_id):
            raise RuntimeError("completion out of FCFS order")
        queue.popleft()
        # ordered_sum's loop over the entries' MI: handing it a list of them
        # costs about 0.7 us more per completion on a 30-entry queue
        total = 0.0
        for _, _, mi in queue:
            total += mi
        self.queued_mi = total


def check_transition_matrix(matrix, name: str = "transition matrix") -> np.ndarray:
    """``matrix`` as a new float array; ValueError, opening with ``name``,
    unless it is square and non-empty, its entries finite and non-negative,
    and each row sums to 1."""
    try:
        matrix = np.array(matrix, dtype=float)
    except ValueError:  # ragged rows
        matrix = None
    if matrix is None or matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] \
            or not matrix.size:
        raise ValueError(f"{name} must be square and non-empty")
    if not (np.isfinite(matrix).all() and (matrix >= 0).all()):
        raise ValueError(f"{name} entries must be finite and non-negative")
    if np.abs(matrix.sum(axis=1) - 1.0).max() > 1e-12:
        raise ValueError(f"{name} rows must sum to 1")
    return matrix


class CapabilityChain:
    """Markov chain over capability levels, sampled from a private stream."""

    def __init__(self, transition_matrix, rng: np.random.Generator):
        matrix = check_transition_matrix(transition_matrix)
        matrix.setflags(write=False)
        self.transition_matrix = matrix
        cdfs = []
        for row in matrix:
            cdf = row.cumsum()
            cdf /= cdf[-1]
            cdfs.append(tuple(cdf.tolist()))
        self._cdfs = tuple(cdfs)
        self.rng = rng

    def sample_next(self, level: int) -> int:
        return bisect_right(self._cdfs[level], self.rng.random())


def transition_capability(device: EdgeDevice, chain: CapabilityChain) -> int:
    """Step the device's capability level; affects only later starts."""
    device.current_level = chain.sample_next(device.current_level)
    return device.current_level


@dataclass(frozen=True)
class NetworkTopology:
    """Transmission rates of the fleet, Mbps.

    ``inter_ecd_rate[m-1, mp-1]`` is the directed rate between real devices
    m and m'; the diagonal is unused. ``uplink_rate`` connects each mobile
    user to its home device.
    """

    inter_ecd_rate: np.ndarray
    uplink_rate: float

    def __post_init__(self) -> None:
        matrix = np.array(self.inter_ecd_rate, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("inter_ecd_rate must be square")
        matrix.setflags(write=False)
        object.__setattr__(self, "inter_ecd_rate", matrix)
        rates = self.link_rates
        if not ((rates > 0) & (rates < math.inf)).all():
            raise ValueError("all inter-device rates must be positive and finite")
        if not 0.0 < self.uplink_rate < math.inf:
            raise ValueError("uplink rate must be positive and finite")

    @cached_property
    def link_rates(self) -> np.ndarray:
        """The matrix without its diagonal: each pair m != m', row by row."""
        rates = self.inter_ecd_rate[~np.eye(self.n_devices, dtype=bool)]
        rates.setflags(write=False)
        return rates

    @cached_property
    def _rates(self) -> tuple[tuple[float, ...], ...]:
        return tuple(tuple(row) for row in self.inter_ecd_rate.tolist())

    @property
    def n_devices(self) -> int:
        return self.inter_ecd_rate.shape[0]

    @cached_property
    def sum_rate(self) -> float:
        """Sum over ordered pairs m != m' of the full mesh (read on every
        decision, so computed once)."""
        return float(self.link_rates.sum())

    @cached_property
    def max_rate(self) -> float:
        """Fastest link in the system, uplink included (read once per
        prepared app, so computed once)."""
        if self.n_devices < 2:
            return float(self.uplink_rate)
        return float(max(self.link_rates.max(), self.uplink_rate))


@dataclass(slots=True)
class Assignment:
    """Where and when one task runs; the kernel builds one per task, so the
    class is slotted rather than frozen."""

    ecd_id: int  # 0 only for dummies
    start: float
    finish: float

    def __post_init__(self) -> None:
        if self.finish < self.start:
            raise ValueError("finish before start")


def execution_time(task: Task, device: EdgeDevice) -> float:
    return task.workload / device.capability


def transfer_time(
    edge: Edge,
    src_ecd: int,
    dst_ecd: int,
    topo: NetworkTopology,
    home_ecd: int,
) -> float:
    """Data transfer delay for one edge given both endpoint devices; KeyError
    for a device pair the topology does not link."""
    n = topo.n_devices
    if not (MU_DEVICE <= src_ecd <= n and MU_DEVICE <= dst_ecd <= n
            and 1 <= home_ecd <= n):
        raise KeyError(f"no link for devices ({src_ecd}, {dst_ecd}), home {home_ecd}")
    return transfer_times(edge.data_size, src_ecd, (dst_ecd,), topo, home_ecd)[0]


def transfer_times(
    data: float,
    src_ecd: int,
    targets: Sequence[int],
    topo: NetworkTopology,
    home_ecd: int,
) -> list[float]:
    """Delays of moving ``data`` megabits from ``src_ecd`` to each device of
    ``targets``, in order: the timing rules of the module docstring, read
    from the topology's rate rows without checking the ids, which must lie
    in 0..M (``home_ecd`` in 1..M)."""
    rows = topo._rates
    up = data / topo.uplink_rate
    delays = []  # appended in a loop: cheaper than a comprehension for a few targets
    if src_ecd == MU_DEVICE:  # upload from the mobile user, relayed unless to home
        row = rows[home_ecd - 1]
        for m in targets:
            delays.append(0.0 if m == MU_DEVICE else up if m == home_ecd
                          else up + data / row[m - 1])
        return delays
    row = rows[src_ecd - 1]
    for m in targets:  # a download to the mobile user is relayed unless sent from home
        delays.append(0.0 if m == src_ecd else data / row[m - 1] if m != MU_DEVICE
                      else up if src_ecd == home_ecd else up + data / row[home_ecd - 1])
    return delays
