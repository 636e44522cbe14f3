from __future__ import annotations

import math
import os
import struct

# One BLAS thread unless the caller chose a count, set before numpy is first
# imported: the suite's matrices are small, and OpenBLAS would start a thread
# per core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from dataclasses import replace  # noqa: E402
from typing import Sequence  # noqa: E402

import numpy as np  # noqa: E402
import pytest

from mecsched.experiment import ExperimentConfig, TopologyConfig, build_topology
from mecsched.mdp_agent import StateNorms, StateVector
from mecsched.task_graph import Edge, Task, TaskGraph, compute_lct
from mecsched.workload import critical_path_seconds


@pytest.fixture
def topo_config() -> TopologyConfig:
    return TopologyConfig()


@pytest.fixture
def topology(topo_config):
    return build_topology(topo_config)


@pytest.fixture
def default_config() -> ExperimentConfig:
    return ExperimentConfig()


def augment_with_dummies(
    raw: TaskGraph,
    offload_sizes: Sequence[float],
    result_sizes: Sequence[float],
) -> TaskGraph:
    """Bracket a dummy-free DAG with an upload source and a result sink.

    ``raw`` must hold real tasks with ids 1..K and edges among them. A new
    task 0 gains edges to every entry task (data per ``offload_sizes``,
    aligned with entries in ascending id order) and a new task K+1 gains
    edges from every exit task (``result_sizes`` likewise). ValueError if
    ``raw`` has a cycle. ``generate`` builds its apps in this layout.
    """
    if not raw.tasks:
        raise ValueError("cannot augment an empty task set")
    ids = sorted(t.task_id for t in raw.tasks)
    if ids != list(range(1, len(ids) + 1)):
        raise ValueError("raw graph must use contiguous task ids starting at 1")
    entries, exits = entries_and_exits(raw)
    if len(offload_sizes) != len(entries):
        raise ValueError(
            f"offload_sizes has {len(offload_sizes)} entries, graph has {len(entries)}"
        )
    if len(result_sizes) != len(exits):
        raise ValueError(
            f"result_sizes has {len(result_sizes)} entries, graph has {len(exits)}"
        )

    sink = len(raw.tasks) + 1
    tasks = (
        Task(0, 0.0),
        *raw.tasks,
        Task(sink, 0.0),
    )
    edges = list(raw.edges)
    edges.extend(Edge(0, i, float(s)) for i, s in zip(entries, offload_sizes))
    edges.extend(Edge(i, sink, float(s)) for i, s in zip(exits, result_sizes))
    graph = replace(raw, tasks=tasks, edges=tuple(edges))
    graph.topological_order()  # raises on cycles; the dummies add none
    return graph


def entries_and_exits(raw: TaskGraph) -> tuple[list[int], list[int]]:
    """The real tasks of a dummy-free graph without parents and without
    children, in ascending id order, read from its edges: with ids 1..K it
    has no shape."""
    ids = sorted(t.task_id for t in raw.tasks)
    targets = {e.dst for e in raw.edges}
    sources = {e.src for e in raw.edges}
    return [i for i in ids if i not in targets], [i for i in ids if i not in sources]


def edge_data(graph: TaskGraph, src: int, dst: int) -> float:
    """Megabits on the edge ``src -> dst``."""
    return next(e.data_size for e in graph.edges if (e.src, e.dst) == (src, dst))


def assign_deadline(graph: TaskGraph, capability: float = 5000.0,
                    factor: float = 6.0) -> TaskGraph:
    """Deadline = release + factor * transfer-free critical path, the rule
    ``generate`` applies."""
    base = critical_path_seconds(graph, capability)
    return replace(graph, deadline=graph.release_time + factor * base)


def make_graph(edges, workloads, app_id=1, release=0.0, deadline=10.0, home=1,
               dummy_data=10.0):
    """Small-graph builder: real tasks 1..K, dummies and deadline attached.

    ``edges`` maps (src, dst) -> megabits between real tasks; ``workloads``
    maps real task id -> MI.
    """
    tasks = tuple(Task(i, float(workloads[i])) for i in sorted(workloads))
    raw = TaskGraph(
        app_id=app_id,
        release_time=release,
        deadline=deadline,
        home_ecd=home,
        tasks=tasks,
        edges=tuple(Edge(s, d, float(v)) for (s, d), v in sorted(edges.items())),
    )
    entries, exits = entries_and_exits(raw)
    return augment_with_dummies(
        raw,
        offload_sizes=[dummy_data] * len(entries),
        result_sizes=[dummy_data] * len(exits),
    )


def make_chain_graph(workloads, app_id=1, release=0.0, deadline=10.0, home=1,
                     edge_data=0.0, dummy_data=0.0):
    """Linear chain of real tasks with uniform edge sizes."""
    n = len(workloads)
    loads = {i + 1: w for i, w in enumerate(workloads)}
    edges = {(i, i + 1): edge_data for i in range(1, n)}
    return make_graph(edges, loads, app_id=app_id, release=release,
                      deadline=deadline, home=home, dummy_data=dummy_data)


def random_app(rng: np.random.Generator, app_id: int, n_real: int,
               release: float = 0.0) -> TaskGraph:
    """Random DAG with positive workloads and random transfer sizes."""
    workloads = {i: float(rng.uniform(50.0, 500.0)) for i in range(1, n_real + 1)}
    edges = {}
    for i in range(2, n_real + 1):
        if rng.random() < 0.75:
            k = int(rng.integers(1, min(i - 1, 3) + 1))
            for p in rng.choice(np.arange(1, i), size=k, replace=False):
                edges[(int(p), i)] = float(rng.uniform(0.0, 200.0))
    graph = make_graph(
        edges, workloads, app_id=app_id, release=release,
        deadline=release + float(rng.uniform(1.0, 20.0)),
        home=1, dummy_data=float(rng.uniform(0.0, 100.0)),
    )
    return graph


def real_tasks(graph: TaskGraph) -> tuple[Task, ...]:
    """The graph's tasks other than the source and sink dummies."""
    return tuple(t for t in graph.tasks if t.task_id not in (0, graph.sink_id))


def waiting_counts(graph: TaskGraph, completed: set[int]) -> list[int]:
    """Per task id, the parents not in ``completed``: the counts the kernel
    keeps for ``collect_ready``."""
    return [sum(p not in completed for p in graph.parents_of(t.task_id))
            for t in graph.tasks]


def with_lct(graph: TaskGraph, topo, max_capability=6000.0) -> TaskGraph:
    return compute_lct(graph, max_capability=max_capability,
                       max_rate=topo.max_rate, uplink_rate=topo.uplink_rate)


UNIT_NORMS = StateNorms(*[1.0] * 6)


def full_state(*aggregates, task_workload=1.0, slack=0.0, backlog=(0.0, 0.0),
               capability=None) -> StateVector:
    """A full-width observation: the five aggregates as given (zeros after
    the last one given), the placed task, and one backlog and capability
    per device. Capability defaults to 1 per device, so that with the
    default task workload of 1, normalizing by ``UNIT_NORMS`` gives the raw
    array back."""
    head = [float(a) for a in aggregates] + [0.0] * (5 - len(aggregates))
    if capability is None:
        capability = (1.0,) * len(backlog)
    return StateVector(*head, float(task_workload), float(slack),
                       tuple(map(float, backlog)), tuple(map(float, capability)))


def same_float(a, b) -> bool:
    """Equal bit for bit, or both NaN: IEEE 754 leaves open which operand's
    payload and sign an add of two NaNs returns, and CPython's specialized
    float add and ``float.__add__`` pick differently."""
    return math.isnan(a) and math.isnan(b) or struct.pack("<d", a) == struct.pack("<d", b)
