"""Synthetic workload generation: layered fan-in/fan-out DAGs, Poisson
arrivals, and slack-based deadlines.

The built-in 25-task shape mirrors an astronomy-pipeline layout: one head
task fans out to 8 parallel tasks, a second 8-task layer draws from several
of them, a 7-task layer reduces pairs, and a single tail task merges
everything. Workloads and transfer sizes are randomized per instance inside
clamped ranges; the topology itself is fixed so runs stay comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .task_graph import Edge, Task, TaskGraph

__all__ = [
    "WorkloadSpec",
    "generate",
    "critical_path_seconds",
    "montage25_edges",
]


@dataclass(frozen=True)
class WorkloadSpec:
    n_apps: int = 10
    lam: float = 9.0
    arrival_mode: str = "gap"  # "gap": lam = mean seconds between arrivals;
    #                            "rate": lam = arrivals per second
    graph_shape: str = "montage25"
    workload_range: tuple[float, float] = (100.0, 500.0)  # MI clamp
    bc_range: tuple[float, float] = (1e-3, 1e-2)  # seconds clamp
    mean_rate: float = 520.0  # Mbps, fleet-average link speed
    deadline_factor: float = 6.0
    deadline_capability: float = 5000.0  # MIPS used for the slack baseline
    n_devices: int = 4

    def __post_init__(self) -> None:
        if self.n_apps < 1:
            raise ValueError("n_apps must be >= 1")
        if self.n_devices < 1:
            raise ValueError("n_devices must be >= 1")
        for name in ("lam", "mean_rate", "deadline_factor", "deadline_capability"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {getattr(self, name)!r}")
        if self.arrival_mode not in ("gap", "rate"):
            raise ValueError("arrival_mode must be 'gap' or 'rate'")
        if self.graph_shape not in _SHAPES:
            raise ValueError(f"graph_shape must be one of {tuple(_SHAPES)}, "
                             f"got {self.graph_shape!r}")
        # a real task needs a positive workload; a transfer may take no time
        pair = self.workload_range
        if len(pair) != 2 or not 0.0 < pair[0] <= pair[1] < math.inf:
            raise ValueError(f"workload_range must be two finite numbers "
                             f"0 < low <= high, got {pair!r}")
        pair = self.bc_range
        if len(pair) != 2 or not 0.0 <= pair[0] <= pair[1] < math.inf:
            raise ValueError(f"bc_range must be two finite numbers "
                             f"0 <= low <= high, got {pair!r}")

    @property
    def mean_gap(self) -> float:
        return self.lam if self.arrival_mode == "gap" else 1.0 / self.lam


def montage25_edges() -> tuple[int, list[tuple[int, int]]]:
    """Fixed 25-task layered topology; returns (n_tasks, edge list).

    Layers: head 1; fan-out 2..9; cross layer 10..17 with three parents
    each; reduce layer 18..24 joining neighbor pairs; tail 25.
    """
    edges: list[tuple[int, int]] = []
    fan = list(range(2, 10))
    cross = list(range(10, 18))
    reduce_layer = list(range(18, 25))
    edges.extend((1, t) for t in fan)
    for j, t in enumerate(cross):
        for offset in (0, 1, 4):
            edges.append((fan[(j + offset) % 8], t))
    for k, t in enumerate(reduce_layer):
        edges.append((cross[k], t))
        edges.append((cross[k + 1], t))
    edges.extend((t, 25) for t in reduce_layer)
    return 25, edges


_SHAPES = {"montage25": montage25_edges}


def shape_real_task_count(name: str) -> int:
    if name not in _SHAPES:
        raise ValueError(f"unknown graph shape {name!r}")
    return _SHAPES[name]()[0]


def _clamp(value: float, lo: float, hi: float) -> float:
    """``min(max(value, lo), hi)`` for ``lo <= hi``, without the two calls."""
    return lo if value < lo else hi if value > hi else value


def generate(spec: WorkloadSpec, rng: np.random.Generator) -> list[TaskGraph]:
    """Draw ``n_apps`` applications with exponential inter-arrival gaps from
    ``rng``.

    Edge transfer sizes come from a base communication time ``bc`` clamped to
    ``bc_range`` and scaled by the fleet's mean link rate; dummy edges use
    the same rule. Home devices are uniform over the fleet.

    Each app is built once, at its final shape: task 0 feeds every entry
    task and every exit task feeds the sink, task K+1 (edges to entries and
    from exits in ascending id order, after the shape's own), and the
    deadline is ``release + deadline_factor`` times the transfer-free
    critical path at ``deadline_capability``. A shape whose edges leave ids
    1..K or form a cycle is refused before anything is drawn.
    """
    n_tasks, edge_pairs = _SHAPES[spec.graph_shape]()
    if not all(1 <= i <= n_tasks for pair in edge_pairs for i in pair):
        raise ValueError(f"graph shape {spec.graph_shape!r} must use contiguous "
                         f"task ids 1..{n_tasks}")

    targets = {d for _, d in edge_pairs}
    sources = {s for s, _ in edge_pairs}
    entries = [i for i in range(1, n_tasks + 1) if i not in targets]
    exits = [i for i in range(1, n_tasks + 1) if i not in sources]
    sink = n_tasks + 1
    endpoints = [*edge_pairs, *((0, i) for i in entries), *((i, sink) for i in exits)]
    # the apps' common structure, for the critical path; refuses a cycle
    template = TaskGraph(0, 0.0, 0.0, 1, tuple(Task(i, 0.0) for i in range(sink + 1)),
                         tuple(Edge(s, d, 0.0) for s, d in endpoints))
    try:
        template.topological_order()
    except ValueError as err:
        raise ValueError(f"graph shape {spec.graph_shape!r}: {err}") from None

    graphs: list[TaskGraph] = []
    clock = 0.0
    lo_w, hi_w = spec.workload_range
    lo_bc, hi_bc = spec.bc_range

    # each run of draws from one distribution is one block draw, which takes
    # the same values from the stream as the same number of scalar draws
    def draw_data(k: int) -> list[float]:
        return [_clamp(bc, lo_bc, hi_bc) * spec.mean_rate
                for bc in rng.uniform(0.0, 1.5 * hi_bc, size=k).tolist()]

    for n in range(1, spec.n_apps + 1):
        clock += float(rng.exponential(spec.mean_gap))
        drawn = rng.uniform(0.0, 1.2 * hi_w, size=n_tasks).tolist()
        workloads = [0.0, *[_clamp(w, lo_w, hi_w) for w in drawn], 0.0]  # by task id
        data = draw_data(len(edge_pairs))
        home = int(rng.integers(1, spec.n_devices + 1))
        data += draw_data(len(entries))
        data += draw_data(len(exits))
        base = _critical_path(template, workloads, spec.deadline_capability)
        graphs.append(TaskGraph(
            app_id=n,
            release_time=clock,
            deadline=clock + spec.deadline_factor * base,
            home_ecd=home,
            tasks=tuple([Task(i, w) for i, w in enumerate(workloads)]),
            edges=tuple([Edge(s, d, x) for (s, d), x in zip(endpoints, data)]),
        ))
    return graphs


def _critical_path(graph: TaskGraph, workloads, capability: float) -> float:
    """Longest compute chain through ``graph``'s DAG with task ``i`` weighing
    ``workloads[i]`` MI, assuming one task per device and free transfers."""
    longest: dict[int, float] = {}
    for i in graph.topological_order():
        own = workloads[i] / capability
        best = 0.0
        for p in graph.parents_of(i):
            best = max(best, longest[p])
        longest[i] = best + own
    return max(longest.values())


def critical_path_seconds(graph: TaskGraph, capability: float) -> float:
    """Longest compute chain assuming one task per device and free transfers."""
    if capability <= 0:
        raise ValueError("capability must be positive")
    return _critical_path(graph, {t.task_id: t.workload for t in graph.tasks}, capability)
