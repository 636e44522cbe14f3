"""DAG applications: validation, priorities, file I/O.

An application is a DAG of tasks bracketed by two zero-workload dummy tasks:
task 0 models the upload of input data from the mobile user and the highest
task id models the return of results. Real tasks carry a workload in millions
of instructions (MI); edges carry transfer sizes in megabits.

Scheduling priority is the latest completion time (LCT) of each task, a
deadline propagated backwards through the DAG under best-case compute and
transfer assumptions. Ready tasks are dispatched in ascending LCT order.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Iterable

__all__ = [
    "Task",
    "Edge",
    "TaskGraph",
    "WorkloadFormatError",
    "validate",
    "compute_lct",
    "build_priority_list",
    "load_workload_file",
    "save_workload_file",
]


@dataclass(frozen=True, slots=True)
class Task:
    task_id: int
    workload: float  # MI; exactly 0 for the two dummy tasks


@dataclass(frozen=True, slots=True)
class Edge:
    src: int
    dst: int
    data_size: float  # megabits


@dataclass(frozen=True)
class TaskGraph:
    """One application: release time, deadline, home device and its DAG."""

    app_id: int
    release_time: float
    deadline: float
    home_ecd: int
    tasks: tuple[Task, ...]  # ordered by task_id
    edges: tuple[Edge, ...]
    lct: tuple[float, ...] | None = None  # seconds, by task id; set by compute_lct

    @cached_property
    def _key(self) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
        """The task ids and edge endpoints, in order: what the shape and the
        structural checks are keyed by."""
        return (tuple([t.task_id for t in self.tasks]),
                tuple([(e.src, e.dst) for e in self.edges]))

    @cached_property
    def _shape(self) -> _Shape:
        return _shape_of(*self._key)

    @property
    def sink_id(self) -> int:
        return self._shape.sink

    @cached_property
    def _parent_edges(self) -> dict[int, tuple[Edge, ...]]:
        edges = self.edges
        return {t: tuple(edges[k] for k in positions)
                for t, positions in self._shape.parent_edges.items()}

    def task(self, task_id: int) -> Task:
        return self.tasks[self._shape.position[task_id]]

    def parents_of(self, task_id: int) -> tuple[int, ...]:
        return self._shape.parents[task_id]

    def parent_edges(self, task_id: int) -> tuple[Edge, ...]:
        """Incoming edges of a task, in parent-id order."""
        return self._parent_edges[task_id]

    def children_of(self, task_id: int) -> tuple[int, ...]:
        return self._shape.children[task_id]

    def edge_data(self, src: int, dst: int) -> float:
        return self.edges[self._shape.edge_position[(src, dst)]].data_size

    def topological_order(self) -> list[int]:
        """Kahn order over all tasks; raises ValueError on a cycle."""
        order = self._shape.order
        if order is None:
            raise ValueError("task graph contains a cycle")
        return list(order)


@dataclass(frozen=True)
class _Shape:
    """What a graph's task ids and edge endpoints determine on their own.

    Graphs with the same ids and endpoints in the same order (every app of a
    ``generate`` call, the same apps loaded from a file, and the prepared
    copy of each) get the same ``_Shape`` from ``_shape_of``, which is
    keyed by exactly those; it holds no task or size, and nothing mutates it.
    An endpoint that is not a task id raises KeyError here, so
    ``_structure_faults`` checks endpoints before it asks for the shape.
    """

    position: dict[int, int]  # task id -> index into tasks
    parents: dict[int, tuple[int, ...]]
    children: dict[int, tuple[int, ...]]
    parent_edges: dict[int, tuple[int, ...]]  # indices into edges, parent-id order
    child_edges: dict[int, tuple[int, ...]]  # indices into edges, child-id order
    edge_position: dict[tuple[int, int], int]  # (src, dst) -> index into edges
    order: tuple[int, ...] | None  # Kahn order, ties by id; None on a cycle
    sink: int  # the highest task id


@lru_cache(maxsize=256)
def _shape_of(ids: tuple[int, ...], endpoints: tuple[tuple[int, int], ...]) -> _Shape:
    parent_lists: dict[int, list[int]] = {i: [] for i in ids}
    child_lists: dict[int, list[int]] = {i: [] for i in ids}
    for src, dst in endpoints:
        parent_lists[dst].append(src)
        child_lists[src].append(dst)
    parents = {i: tuple(sorted(v)) for i, v in parent_lists.items()}
    children = {i: tuple(sorted(v)) for i, v in child_lists.items()}
    edge_position = {pair: k for k, pair in enumerate(endpoints)}

    indeg = {i: len(parents[i]) for i in ids}
    frontier = sorted(i for i, d in indeg.items() if d == 0)
    order: list[int] = []
    while frontier:
        node = frontier.pop(0)
        order.append(node)
        for child in children[node]:
            indeg[child] -= 1
            if indeg[child] == 0:
                bisect.insort(frontier, child)  # sorted, for determinism
    return _Shape(
        position={i: k for k, i in enumerate(ids)},
        parents=parents,
        children=children,
        parent_edges={t: tuple(edge_position[(p, t)] for p in ps) for t, ps in parents.items()},
        child_edges={t: tuple(edge_position[(t, c)] for c in cs) for t, cs in children.items()},
        edge_position=edge_position,
        order=tuple(order) if len(order) == len(ids) else None,
        sink=max(ids),
    )


class WorkloadFormatError(ValueError):
    """Raised on malformed workload files, with line context."""


def validate(graph: TaskGraph) -> tuple[str, ...]:
    """Every broken invariant of a TaskGraph, empty when the graph is sound;
    never raises.

    The structural faults come first, computed once per distinct shape key
    (``_structure_faults``); the graph's own values follow: dummy and real
    workloads, data sizes, release, deadline and home. The first and last
    task are the dummies.
    """
    bad = list(_structure_faults(*graph._key))
    tasks = graph.tasks
    last = len(tasks) - 1
    for k, t in enumerate(tasks):
        if k == 0 or k == last:
            if t.workload != 0:
                bad.append(f"dummy workload nonzero (task {t.task_id})")
        elif t.workload <= 0:
            bad.append(f"real task {t.task_id} has non-positive workload")
    for e in graph.edges:
        if e.data_size < 0:
            bad.append(f"negative data size on edge {e.src}->{e.dst}")
    if graph.release_time < 0:
        bad.append("release_time must be >= 0")
    if not graph.release_time < graph.deadline:
        bad.append("release_time must be strictly before deadline")
    if graph.home_ecd < 1:
        bad.append("home_ecd must be a real device id (>= 1)")
    return tuple(bad)


@lru_cache(maxsize=256)
def _structure_faults(ids: tuple[int, ...],
                      endpoints: tuple[tuple[int, int], ...]) -> tuple[str, ...]:
    """The broken structural invariants of every graph with these task ids
    and edge endpoints: id range, edges, cycle, source and sink, parents and
    children, reachability."""
    if not ids:
        return ("empty graph",)
    if ids != tuple(range(len(ids))):
        return ("task ids not contiguous from 0",)
    sink = ids[-1]
    known = range(sink + 1)

    # the shape is built from the endpoints, so they are checked first
    bad: list[str] = []
    seen_pairs = set()
    for pair in endpoints:
        src, dst = pair
        if src == dst:
            bad.append(f"self edge on task {src}")
        if src not in known or dst not in known:
            bad.append(f"edge {src}->{dst} references unknown task")
        if pair in seen_pairs:
            bad.append(f"duplicate edge {src}->{dst}")
        seen_pairs.add(pair)
    if bad:
        return tuple(bad)

    shape = _shape_of(ids, endpoints)
    if shape.order is None:
        return ("cycle",)
    parents, children = shape.parents, shape.children
    if parents[0]:
        bad.append("source task 0 has parents")
    if children[sink]:
        bad.append(f"sink task {sink} has children")
    for i in ids[1:-1]:
        if not parents[i]:
            bad.append(f"real task {i} has no parents")
        if not children[i]:
            bad.append(f"real task {i} has no children")

    reach_fwd = _reachable(children, 0)
    reach_bwd = _reachable(parents, sink)
    for i in ids:
        if i not in reach_fwd:
            bad.append(f"task {i} unreachable from source")
        if i not in reach_bwd:
            bad.append(f"task {i} cannot reach sink")
    return tuple(bad)


def _reachable(step: dict[int, tuple[int, ...]], start: int) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        for nxt in step[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def compute_lct(
    graph: TaskGraph,
    max_capability: float,
    max_rate: float,
    uplink_rate: float,
) -> TaskGraph:
    """A copy of the graph, sharing its tasks and edges, with its ``lct``
    column filled by backward propagation; task ids must be 0..K in order.

    Parents of the sink get ``deadline - result_data / uplink_rate``; any
    task with real children gets the minimum over children of
    ``child_lct - child_workload / max_capability - edge_data / max_rate``.
    A task that both feeds the sink and has real children takes the tighter
    of the two bounds. Tasks are visited in reverse Kahn order, and each
    one's children in id order through the shape's child-edge positions.
    """
    if max_capability <= 0 or max_rate <= 0 or uplink_rate <= 0:
        raise ValueError("capability and rates must be positive")
    tasks = graph.tasks
    if any(t.task_id != k for k, t in enumerate(tasks)):
        raise ValueError(f"app {graph.app_id}: task ids must be 0..K in order")
    shape = graph._shape
    if shape.order is None:
        raise ValueError("task graph contains a cycle")
    edges, sink, deadline = graph.edges, shape.sink, graph.deadline
    lct = [deadline] * len(tasks)  # every entry but the sink's is overwritten
    for i in reversed(shape.order):
        if i == sink:
            continue
        bounds: list[float] = []
        for k in shape.child_edges[i]:
            edge = edges[k]
            j = edge.dst
            if j == sink:
                bounds.append(deadline - edge.data_size / uplink_rate)
            else:
                bounds.append(lct[j] - tasks[j].workload / max_capability
                              - edge.data_size / max_rate)
        lct[i] = min(bounds)
    return replace(graph, lct=tuple(lct))


def build_priority_list(graph: TaskGraph) -> tuple[int, ...]:
    """Real task ids in ascending LCT order, equal LCTs broken by task id."""
    lct = graph.lct
    if lct is None:
        raise ValueError(f"app {graph.app_id}: priorities require lct; "
                         f"run compute_lct first")
    # ids are 0..K (compute_lct checked), and the stable sort keeps id order
    return tuple(sorted(range(1, len(lct) - 1), key=lct.__getitem__))


# ---------------------------------------------------------------------------
# Workload file format
#
#   app <n> release <r> deadline <d> home <m>
#   task <id> <workload_MI>
#   edge <src> <dst> <megabits>
#
# Whitespace-delimited, '#' starts a comment, task 0 and the highest id are
# the dummies. Floats are written with repr() so files round-trip exactly.
# ---------------------------------------------------------------------------


def load_workload_file(path) -> list[TaskGraph]:
    graphs: list[TaskGraph] = []
    header: tuple[int, float, float, int] | None = None
    header_lines: dict[int, int] = {}  # app id -> line of its header
    tasks: list[Task] = []
    edges: list[Edge] = []

    def flush() -> None:
        nonlocal header, tasks, edges
        if header is None:
            return
        app_id, release, deadline, home = header
        graph = TaskGraph(
            app_id=app_id,
            release_time=release,
            deadline=deadline,
            home_ecd=home,
            tasks=tuple(sorted(tasks, key=lambda t: t.task_id)),
            edges=tuple(edges),
        )
        violations = validate(graph)
        if violations:
            raise WorkloadFormatError(
                f"line {header_lines[app_id]}: app {app_id} invalid: {'; '.join(violations)}"
            )
        graphs.append(graph)
        header, tasks, edges = None, [], []

    with open(path, "r", encoding="utf-8") as fh:
        # text mode turns every line ending into "\n", so these are the
        # lines that iterating over the file gives
        lines = fh.read().split("\n")
    for lineno, line in enumerate(lines, start=1):
        fields = (line.split("#", 1)[0] if "#" in line else line).split()
        if not fields:
            continue
        kind = fields[0]
        if kind == "app":
            flush()
        try:
            if kind == "edge":
                if header is None:
                    raise ValueError("edge line before any app header")
                if len(fields) != 4:
                    raise ValueError("expected: edge <src> <dst> <megabits>")
                data = float(fields[3])
                if not 0 <= data < math.inf:
                    raise ValueError(f"data size must be finite and >= 0, got {fields[3]}")
                edges.append(Edge(int(fields[1]), int(fields[2]), data))
            elif kind == "task":
                if header is None:
                    raise ValueError("task line before any app header")
                if len(fields) != 3:
                    raise ValueError("expected: task <id> <workload_MI>")
                workload = float(fields[2])
                if not 0 <= workload < math.inf:
                    raise ValueError(f"workload must be finite and >= 0, got {fields[2]}")
                tasks.append(Task(int(fields[1]), workload))
            elif kind == "app":
                if len(fields) != 8 or fields[2] != "release" or fields[4] != "deadline" or fields[6] != "home":
                    raise ValueError("expected: app <n> release <r> deadline <d> home <m>")
                release, deadline = float(fields[3]), float(fields[5])
                if not math.isfinite(release):
                    raise ValueError(f"release must be finite, got {fields[3]}")
                if not math.isfinite(deadline):
                    raise ValueError(f"deadline must be finite, got {fields[5]}")
                header = (int(fields[1]), release, deadline, int(fields[7]))
                if header[0] in header_lines:
                    raise ValueError(f"app {header[0]} repeats the app id of line "
                                     f"{header_lines[header[0]]}")
                header_lines[header[0]] = lineno
            else:
                raise ValueError(f"unknown record kind {kind!r}")
        except ValueError as exc:
            raise WorkloadFormatError(f"line {lineno}: {exc}") from None
    flush()
    return graphs


def save_workload_file(graphs: Iterable[TaskGraph], path) -> None:
    lines: list[str] = []
    for g in graphs:
        lines.append(f"app {g.app_id} release {g.release_time!r} "
                     f"deadline {g.deadline!r} home {g.home_ecd}\n")
        lines.extend([f"task {t.task_id} {t.workload!r}\n" for t in g.tasks])
        lines.extend([f"edge {e.src} {e.dst} {e.data_size!r}\n" for e in g.edges])
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
