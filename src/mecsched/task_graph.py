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

import heapq
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
    tasks: tuple[Task, ...]  # task k has id k
    edges: tuple[Edge, ...]
    lct: tuple[float, ...] | None = None  # seconds, by task id; set by compute_lct

    @cached_property
    def _key(self) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
        """The task ids and edge endpoints, in order: what the shape is
        keyed by."""
        return (tuple([t.task_id for t in self.tasks]),
                tuple([(e.src, e.dst) for e in self.edges]))

    @cached_property
    def _shape(self) -> _Shape:
        shape = _shape_of(*self._key)
        if shape.parents is None:
            raise ValueError(f"app {self.app_id}: {'; '.join(shape.faults)}")
        return shape

    @property
    def sink_id(self) -> int:
        return len(self.tasks) - 1

    @cached_property
    def _parent_edges(self) -> tuple[tuple[Edge, ...], ...]:
        edges = self.edges
        return tuple([tuple([edges[k] for k in positions])
                      for positions in self._shape.parent_edges])

    def parents_of(self, task_id: int) -> tuple[int, ...]:
        return self._shape.parents[task_id]

    def parent_edges(self, task_id: int) -> tuple[Edge, ...]:
        """Incoming edges of a task, in parent-id order."""
        return self._parent_edges[task_id]

    def children_of(self, task_id: int) -> tuple[int, ...]:
        return self._shape.children[task_id]

    def child_edges(self, task_id: int) -> tuple[Edge, ...]:
        """Outgoing edges of a task, in child-id order."""
        edges = self.edges
        return tuple([edges[k] for k in self._shape.child_edges[task_id]])

    def topological_order(self) -> list[int]:
        """Kahn order over all tasks; raises ValueError on a cycle."""
        order = self._shape.order
        if order is None:
            raise ValueError(f"app {self.app_id}: task graph contains a cycle")
        return list(order)


@dataclass(frozen=True)
class _Shape:
    """What a graph's task ids and edge endpoints determine on their own:
    its structural faults and, by task id, its adjacency.

    Graphs with the same ids and endpoints in the same order (every app of a
    ``generate`` call, the same apps loaded from a file, and the prepared
    copy of each) get the same ``_Shape`` from ``_shape_of``, which is
    keyed by exactly those; it holds no task or size, and nothing mutates it.
    When the ids are not 0..K or an endpoint is bad, only ``faults`` is set.
    """

    faults: tuple[str, ...]  # empty when the structure is sound
    parents: tuple[tuple[int, ...], ...] | None = None
    children: tuple[tuple[int, ...], ...] | None = None
    parent_edges: tuple[tuple[int, ...], ...] | None = None  # edge indices, parent-id order
    child_edges: tuple[tuple[int, ...], ...] | None = None  # edge indices, child-id order
    order: tuple[int, ...] | None = None  # Kahn order, ties by id; None on a cycle


@lru_cache(maxsize=256)
def _shape_of(ids: tuple[int, ...], endpoints: tuple[tuple[int, int], ...]) -> _Shape:
    n = len(ids)
    if ids != tuple(range(n)):
        return _Shape(("task ids must be 0..K in order",))
    if n < 2:
        return _Shape(("need a source and a sink task",))
    faults: list[str] = []
    seen = set()
    for pair in endpoints:
        src, dst = pair
        if src == dst:
            faults.append(f"self edge on task {src}")
        if not (0 <= src < n and 0 <= dst < n):
            faults.append(f"edge {src}->{dst} references unknown task")
        if pair in seen:
            faults.append(f"duplicate edge {src}->{dst}")
        seen.add(pair)
    if faults:
        return _Shape(tuple(faults))

    # (neighbour id, edge position) per task; ids are unique per list
    into: list[list[tuple[int, int]]] = [[] for _ in ids]
    out: list[list[tuple[int, int]]] = [[] for _ in ids]
    for k, (src, dst) in enumerate(endpoints):
        into[dst].append((src, k))
        out[src].append((dst, k))
    for pairs in (*into, *out):
        pairs.sort()
    parents = tuple([tuple([p for p, _ in v]) for v in into])
    children = tuple([tuple([c for c, _ in v]) for v in out])

    indeg = [len(p) for p in parents]
    frontier = [i for i in ids if not indeg[i]]  # a heap: ascending already
    order: list[int] = []
    while frontier:
        node = heapq.heappop(frontier)  # the smallest ready id, for determinism
        order.append(node)
        for child in children[node]:
            indeg[child] -= 1
            if not indeg[child]:
                heapq.heappush(frontier, child)

    sink = n - 1
    if len(order) < n:
        faults.append("cycle")
    else:
        if parents[0]:
            faults.append("source task 0 has parents")
        if not children[0]:
            faults.append("source task 0 has no children")
        if children[sink]:
            faults.append(f"sink task {sink} has children")
        if not parents[sink]:
            faults.append(f"sink task {sink} has no parents")
        # with these, every task lies on a path from the source to the sink
        for i in range(1, sink):
            if not parents[i]:
                faults.append(f"real task {i} has no parents")
            if not children[i]:
                faults.append(f"real task {i} has no children")
    return _Shape(
        faults=tuple(faults),
        parents=parents,
        children=children,
        parent_edges=tuple([tuple([k for _, k in v]) for v in into]),
        child_edges=tuple([tuple([k for _, k in v]) for v in out]),
        order=tuple(order) if len(order) == n else None,
    )


class WorkloadFormatError(ValueError):
    """Raised on malformed workload files, with line context."""


def validate(graph: TaskGraph) -> tuple[str, ...]:
    """Every broken invariant of a TaskGraph, empty when the graph is sound;
    never raises.

    The structural faults come first, found once per distinct shape; the
    graph's own values follow: dummy and real workloads, data sizes,
    release, deadline and home. The first and last task are the dummies.
    """
    bad = list(_shape_of(*graph._key).faults)
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


def compute_lct(
    graph: TaskGraph,
    max_capability: float,
    max_rate: float,
    uplink_rate: float,
) -> TaskGraph:
    """A copy of the graph, sharing its tasks and edges, with its ``lct``
    column filled by backward propagation; refuses, naming the app, any
    structural fault ``validate`` reports.

    Parents of the sink get ``deadline - result_data / uplink_rate``; any
    task with real children gets the minimum over children of
    ``child_lct - child_workload / max_capability - data_size / max_rate``.
    A task that both feeds the sink and has real children takes the tighter
    of the two bounds. Tasks are visited in reverse Kahn order, and each
    one's children in id order through the shape's child-edge positions.
    """
    if max_capability <= 0 or max_rate <= 0 or uplink_rate <= 0:
        raise ValueError("capability and rates must be positive")
    shape = _shape_of(*graph._key)
    if shape.faults:
        raise ValueError(f"app {graph.app_id}: {'; '.join(shape.faults)}")
    tasks, edges, deadline = graph.tasks, graph.edges, graph.deadline
    sink = len(tasks) - 1
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
