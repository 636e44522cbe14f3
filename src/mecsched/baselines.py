"""Non-learning schedulers: random, greedy earliest-finish and HEFT-style.

All of these plug into the same scheduler port as the learned policy and are
subject to the same readiness, FCFS and single-assignment rules enforced by
the kernel.
"""

from __future__ import annotations

import numpy as np

from .mec_model import NetworkTopology
from .scheduler_port import DecisionContext, SchedulerPort
from .task_graph import Task, TaskGraph

__all__ = [
    "RandomScheduler",
    "GreedyEftScheduler",
    "HeftStyleScheduler",
    "upward_rank",
]


class RandomScheduler(SchedulerPort):
    """Uniform choice over the real devices."""

    def __init__(self, n_devices: int, rng: np.random.Generator):
        if n_devices < 1:
            raise ValueError("need at least one device")
        self.n_devices = n_devices
        self.rng = rng

    def decide(self, ctx: DecisionContext) -> int:
        return int(self.rng.integers(1, self.n_devices + 1))


class GreedyEftScheduler(SchedulerPort):
    """Earliest finish time under current queues and capability levels.

    Ties go to the lowest device id.
    """

    def decide(self, ctx: DecisionContext) -> int:
        best, best_finish = None, None
        for m in ctx.valid_actions:
            finish = ctx.finish_if(m)
            if best_finish is None or finish < best_finish:
                best, best_finish = m, finish
        return int(best)


def upward_rank(graph: TaskGraph, mean_capability: float, mean_rate: float) -> dict[int, float]:
    """Classic list-scheduling priority: expected work below each task.

    Compute times use the fleet's mean capability and edge transfers a single
    mean rate; larger rank means further from the sink.
    """
    tasks = graph.tasks
    ranks: dict[int, float] = {}
    for i in reversed(graph.topological_order()):
        exec_est = tasks[i].workload / mean_capability
        best_child = 0.0
        for edge in graph.child_edges(i):
            comm = edge.data_size / mean_rate
            best_child = max(best_child, comm + ranks[edge.dst])
        ranks[i] = exec_est + best_child
    return ranks


class HeftStyleScheduler(GreedyEftScheduler):
    """Upward-rank ordering with earliest-finish device selection.

    Ready batches are walked in descending upward rank instead of ascending
    LCT; devices are chosen by actual finish time and work is appended to the
    FCFS queue (no slot insertion, which the single-PE model forbids).
    """

    def __init__(self, topo: NetworkTopology, capability_levels) -> None:
        self.mean_capability = float(np.mean(capability_levels))
        rates = list(topo.link_rates) + [topo.uplink_rate]
        self.mean_rate = float(np.mean(rates))
        # app id -> (the graph ranked, its ranks by task id)
        self._ranks: dict[int, tuple[TaskGraph, dict[int, float]]] = {}

    def order_ready(self, graph: TaskGraph, ready: list[Task]) -> None:
        """Sort by descending upward rank, ties by task id. A graph is
        ranked the first time it is seen; a later graph reusing its app id
        (the next workload of a reused scheduler) is ranked afresh."""
        cached = self._ranks.get(graph.app_id)
        if cached is None or cached[0] is not graph:
            cached = self._ranks[graph.app_id] = (
                graph, upward_rank(graph, self.mean_capability, self.mean_rate))
        ranks = cached[1]
        ready.sort(key=lambda t: (-ranks[t.task_id], t.task_id))
