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
from dataclasses import dataclass, replace

import numpy as np

from .task_graph import Edge, Task, TaskGraph, augment_with_dummies

__all__ = [
    "WorkloadSpec",
    "generate",
    "assign_deadline",
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
        for name in ("workload_range", "bc_range"):
            pair = getattr(self, name)
            if len(pair) != 2 or not 0.0 <= pair[0] <= pair[1] < math.inf:
                raise ValueError(f"{name} must be two finite numbers "
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
    return min(max(value, lo), hi)


def generate(spec: WorkloadSpec, rng: np.random.Generator) -> list[TaskGraph]:
    """Draw ``n_apps`` applications with exponential inter-arrival gaps from
    ``rng``.

    Edge transfer sizes come from a base communication time ``bc`` clamped to
    ``bc_range`` and scaled by the fleet's mean link rate; dummy edges use
    the same rule. Home devices are uniform over the fleet.
    """
    n_tasks, edge_pairs = _SHAPES[spec.graph_shape]()

    targets = {d for _, d in edge_pairs}
    sources = {s for s, _ in edge_pairs}
    entries = [i for i in range(1, n_tasks + 1) if i not in targets]
    exits = [i for i in range(1, n_tasks + 1) if i not in sources]

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
        workloads = rng.uniform(0.0, 1.2 * hi_w, size=n_tasks).tolist()
        tasks = tuple(Task(n, i, _clamp(w, lo_w, hi_w))
                      for i, w in enumerate(workloads, start=1))
        edges = tuple(Edge(s, d, data)
                      for (s, d), data in zip(edge_pairs, draw_data(len(edge_pairs))))
        home = int(rng.integers(1, spec.n_devices + 1))
        raw = TaskGraph(
            app_id=n,
            release_time=clock,
            deadline=float("inf"),  # placeholder until assign_deadline
            home_ecd=home,
            tasks=tasks,
            edges=edges,
        )
        graph = augment_with_dummies(
            raw,
            offload_sizes=draw_data(len(entries)),
            result_sizes=draw_data(len(exits)),
        )
        graphs.append(assign_deadline(graph, spec.deadline_capability, spec.deadline_factor))
    return graphs


def critical_path_seconds(graph: TaskGraph, capability: float) -> float:
    """Longest compute chain assuming one task per device and free transfers."""
    if capability <= 0:
        raise ValueError("capability must be positive")
    longest: dict[int, float] = {}
    for i in graph.topological_order():
        own = graph.task(i).workload / capability
        best = 0.0
        for p in graph.parents_of(i):
            best = max(best, longest[p])
        longest[i] = best + own
    return max(longest.values())


def assign_deadline(graph: TaskGraph, capability: float = 5000.0,
                    factor: float = 6.0) -> TaskGraph:
    """Deadline = release + factor * transfer-free critical path."""
    base = critical_path_seconds(graph, capability)
    return replace(graph, deadline=graph.release_time + factor * base)
