"""Event-driven scheduling kernel.

Two event kinds drive the run: application arrivals and task completions.
An event completes a task of one application only, so only that
application's priority list can gain ready tasks (all parents completed).
Readiness is counted, not scanned: each application keeps, by task id, the
parents not yet completed, which every event lowers for its task's
children. The sink follows the same rule: it is placed when its count
reaches 0, and completes once every parent's output has reached the user. The
kernel pops the ready prefix, the graph's own ``Task``s in ascending order
of the prepared graph's ``lct`` column, lets the pluggable scheduler reorder
it (``order_ready``), and walks it asking the scheduler for a target device
per task. One planner gives a placement's (data ready, start, execution
time) per device, in a single pass over the task's parent outputs that takes
each output's transfer delays to every planned device from one
``transfer_times`` call: the first ``finish_if`` of a decision plans the
whole fleet, and a commit that no scheduler asked about (random, DQN,
scripted) plans the chosen device only. The plan the scheduler saw is the
one committed. The decision's observation (``observe_state``, whose slack
comes from the ``lct`` column) is computed, by the context's ``observe``
callable, only when something reads it: the scheduler during ``decide``, or
the kernel when it records trace rows. Either way it comes from the state
before the commit. A commitment updates the chosen device's FCFS queue
before the next decision, schedules the task's completion event, and hands
the decision's reward, a float, to the scheduler's ``notify_outcome``.

A device's capability level steps along its Markov chain when the device
completes a task; executions already committed are never re-timed, so the
speed used for a task is the level in force at its assignment instant.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

from .mdp_agent import RewardParams, StateVector, compute_reward
from .mec_model import (
    MU_DEVICE,
    Assignment,
    CapabilityChain,
    EdgeDevice,
    NetworkTopology,
    execution_time,
    ordered_sum,
    transfer_time,
    transfer_times,
    transition_capability,
)
from .scheduler_port import DecisionContext, SchedulerPort
from .task_graph import Edge, Task, TaskGraph, build_priority_list

__all__ = [
    "DecisionContext",
    "SchedulerPort",
    "SchedulingError",
    "DeadlockError",
    "SimulationTrace",
    "collect_ready",
    "observe_state",
    "run",
]

ARRIVAL = "arrival"
COMPLETION = "completion"

TRACE_COLUMNS = (
    "time", "event", "app", "task", "device", "start", "finish",
    "rate_sum", "uplink", "cap_sum", "ready_mi", "queued_mi",
    "action", "reward", "level",
)


class SchedulingError(RuntimeError):
    """A scheduler returned an invalid device id."""


class DeadlockError(RuntimeError):
    """The event queue drained while applications were still incomplete."""


def collect_ready(
    pending: list[int],
    waiting: list[int],
    graph: TaskGraph,
) -> list[Task]:
    """Pop the ready prefix of one application's priority list, as the
    graph's tasks.

    ``waiting`` counts, by task id, the parents not yet completed; a task is
    ready at 0. The list is in ascending (LCT, task id) order, so the prefix
    is too; it is consumed in place. Task ids are 0..K in order, as the
    graph's shape requires, so a task sits at its id in ``graph.tasks``.
    """
    tasks = graph.tasks
    ready: list[Task] = []
    for head in pending:
        if waiting[head]:
            break
        ready.append(tasks[head])
    del pending[:len(ready)]
    return ready


def observe_state(
    now: float,
    topo: NetworkTopology,
    devices: Sequence[EdgeDevice],
    ready: Sequence[Task],
    lct: Sequence[float],
) -> StateVector:
    """System summary at a decision instant.

    The five aggregates are fleet rates, the capability sum and outstanding
    work; the queued workload counts every task assigned to a device whose
    completion has not fired yet, the executing one at full weight (each
    device's running total ``queued_mi``, added up in device order). The
    head of ``ready`` is the task being placed: its workload and slack
    (``lct[task_id] - now``, ``lct`` being its graph's column) follow the
    aggregates, both 0 when nothing is ready. Last come each device's
    backlog (seconds from now until its queue drains, 0 when idle) and
    current capability, in device-id order.

    Every sum adds left to right from 0.0, the sum ``ordered_sum`` gives,
    written out as loops that build no list and call no method: this runs
    at every decision that records trace rows or feeds the DQN.
    """
    # the record is built positionally: keywords cost more on this path
    sum_capability = 0.0
    queued = 0.0
    capability = []
    backlog = []
    for d in devices:
        c = d.capability_levels[d.current_level]  # d.capability, without the call
        capability.append(c)
        sum_capability += c
        queued += d.queued_mi
        free_at = d.queue_free_at
        backlog.append(0.0 if free_at < now else free_at - now)
    ready_workload = 0.0
    for t in ready:
        ready_workload += t.workload
    if ready:
        head = ready[0]
        task_workload = head.workload
        task_slack = lct[head.task_id] - now
    else:
        task_workload = task_slack = 0.0
    return StateVector(topo.sum_rate, topo.uplink_rate, sum_capability, ready_workload,
                       queued, task_workload, task_slack, tuple(backlog),
                       tuple(capability))


class SimulationTrace:
    """Chronological record of one run plus per-application results."""

    def __init__(self) -> None:
        self.rows: list[tuple] = []
        self.assignments: dict[tuple[int, int], Assignment] = {}
        self.app_makespans: dict[int, float] = {}
        self.app_deadlines: dict[int, float] = {}
        self.rewards: list[float] = []

    @property
    def decisions(self) -> dict[tuple[int, int], int]:
        """Each placed real task's device, in commit order, as a fresh dict
        read from ``assignments`` (where dummies sit on device 0)."""
        return {k: a.ecd_id for k, a in self.assignments.items() if a.ecd_id != MU_DEVICE}

    @property
    def cumulative_reward(self) -> float:
        return ordered_sum(self.rewards)

    def violations(self) -> dict[int, bool]:
        return {
            app: self.app_makespans[app] > self.app_deadlines[app]
            for app in self.app_makespans
        }

    def violation_rate(self) -> float:
        flags = self.violations()
        if not flags:
            return 0.0
        return 100.0 * sum(flags.values()) / len(flags)

    def avg_makespan(self) -> float:
        if not self.app_makespans:
            return 0.0
        return ordered_sum(self.app_makespans.values()) / len(self.app_makespans)

    def to_csv(self, path) -> None:
        write_csv(path, TRACE_COLUMNS, self.rows)


def write_csv(path, header, rows) -> None:
    """Rows under a header line, comma-separated: None as an empty field,
    anything else as its ``str`` (a float's is its ``repr``, which round-trips
    exactly)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines([",".join(header) + "\n"]
                      + [",".join(["" if v is None else str(v) for v in row]) + "\n"
                         for row in rows])


def run(
    apps: Iterable[TaskGraph],
    topo: NetworkTopology,
    devices: Sequence[EdgeDevice],
    scheduler: SchedulerPort,
    chains: Sequence[CapabilityChain],
    reward_params: RewardParams | None = None,
    record_rows: bool = True,
) -> SimulationTrace:
    """Simulate all applications to completion under the given scheduler.

    ``devices`` must be numbered 1..M in list order, and the topology must
    link at least M devices; anything else is refused before simulating.
    """
    params = reward_params if reward_params is not None else RewardParams()
    apps = list(apps)
    if len(chains) != len(devices):
        raise ValueError("need one capability chain per device")
    ids = tuple(d.ecd_id for d in devices)
    if ids != tuple(range(1, len(devices) + 1)):
        raise ValueError(f"fleet ecd_ids must be 1..{len(devices)} in list order, "
                         f"got {ids}")
    if len(devices) > topo.n_devices:
        raise ValueError(f"fleet has {len(devices)} devices, but the topology "
                         f"links only {topo.n_devices}")
    for graph in apps:
        if not 1 <= graph.home_ecd <= len(devices):
            raise ValueError(
                f"app {graph.app_id}: home device {graph.home_ecd} not in fleet"
            )

    if len({g.app_id for g in apps}) != len(apps):
        raise ValueError("duplicate app ids")
    # per application: its graph, its priority list, and, indexed by task
    # id, the parents not yet completed and each placed task's
    # (device, finish)
    books = {g.app_id: (g, list(build_priority_list(g)),
                        [len(g.parents_of(i)) for i in range(len(g.tasks))],
                        [None] * len(g.tasks))
             for g in apps}
    trace = SimulationTrace()
    valid_actions = ids

    # events are (time, seq, kind, app, task, device); seq breaks time ties
    heap: list[tuple[float, int, str, int, int, int]] = []
    seq = 0

    def push(time: float, kind: str, app_id: int, task_id: int, ecd_id: int) -> None:
        nonlocal seq
        heapq.heappush(heap, (time, seq, kind, app_id, task_id, ecd_id))
        seq += 1

    for graph in apps:
        push(graph.release_time, ARRIVAL, graph.app_id, 0, 0)

    def parent_outputs(task_id: int) -> list[tuple[Edge, int, float]]:
        """(edge, device, finish) of each parent of a task of the current
        application, in parent-id order."""
        return [(edge, *placed[edge.src]) for edge in graph.parent_edges(task_id)]

    def place_sink() -> None:
        """Place the current application's sink: its results reach the
        user once every parent's output has."""
        sink = graph.sink_id
        finish = max(done + transfer_time(edge, src, MU_DEVICE, topo, graph.home_ecd)
                     for edge, src, done in parent_outputs(sink))
        trace.assignments[(graph.app_id, sink)] = Assignment(MU_DEVICE, finish, finish)
        push(finish, COMPLETION, graph.app_id, sink, MU_DEVICE)

    # (data ready, start, execution time) of the current task per planned
    # device; cleared for every decision.
    plans: dict[int, tuple[float, float, float]] = {}

    def plan(targets: Sequence[int]) -> None:
        """Plan the current task on each device of ``targets`` in one pass
        over its parents' outputs. The running maximum starts at ``now`` and
        moves on a strict ``>``, which gives the value of
        ``max(max(finish + transfer), now)``."""
        home = graph.home_ecd
        ready_at = [now] * len(targets)
        for edge, src, finish in outputs:
            for k, hop in enumerate(transfer_times(edge.data_size, src, targets, topo, home)):
                arrival = finish + hop
                if arrival > ready_at[k]:
                    ready_at[k] = arrival
        for m, data_ready in zip(targets, ready_at):
            device = devices[m - 1]
            plans[m] = (data_ready, max(device.queue_free_at, data_ready),
                        execution_time(task, device))

    def finish_if(m: int) -> float:
        if not plans:
            plan(valid_actions)
        if m not in plans:
            raise SchedulingError(
                f"no device {m!r} to plan task ({app_id},{task.task_id}) on; "
                f"valid: {valid_actions}"
            )
        _, start, exec_time = plans[m]
        return start + exec_time

    def observe_pending() -> StateVector:
        """The observation of the decision being made, from the state before
        its commit; the context calls this on its first read only."""
        return observe_state(now, topo, devices, ready[idx:], graph.lct)

    now = 0.0
    while heap:
        now, _, kind, app_id, task_id, ecd_id = heapq.heappop(heap)
        graph, pending, waiting, placed = books[app_id]
        if kind == ARRIVAL:
            trace.assignments[(app_id, 0)] = Assignment(MU_DEVICE, now, now)
            placed[0] = (MU_DEVICE, now)
            if record_rows:
                trace.rows.append((now, ARRIVAL, app_id, 0, 0, now, now,
                                   None, None, None, None, None, None, None, None))
        else:
            level = None
            if ecd_id != MU_DEVICE:
                device = devices[ecd_id - 1]
                device.pop_head(app_id, task_id)
                level = transition_capability(device, chains[ecd_id - 1])
            else:
                a = trace.assignments[(app_id, task_id)]
                trace.app_makespans[app_id] = a.finish - graph.release_time
                trace.app_deadlines[app_id] = graph.deadline
            if record_rows:
                a = trace.assignments[(app_id, task_id)]
                trace.rows.append((now, COMPLETION, app_id, task_id, ecd_id,
                                   a.start, a.finish,
                                   None, None, None, None, None, None, None, level))

        # the sink is ready by the rule every task follows, once its last
        # parent completes; the source completes at its arrival, placed above
        sink = graph.sink_id
        for child in graph.children_of(task_id):
            waiting[child] -= 1
            if child == sink and not waiting[sink]:
                place_sink()

        # only this event's application can have gained ready tasks
        ready = collect_ready(pending, waiting, graph)
        if ready:
            scheduler.order_ready(graph, ready)

        for idx, task in enumerate(ready):
            outputs = parent_outputs(task.task_id)
            plans.clear()
            # records are built positionally: keywords cost more than the
            # construction itself on this once-per-decision path
            ctx = DecisionContext(now, app_id, task.task_id, valid_actions, finish_if,
                                  observe_pending)
            action = scheduler.decide(ctx)
            if action not in valid_actions:
                raise SchedulingError(
                    f"scheduler chose device {action!r} for task "
                    f"({app_id},{task.task_id}); valid: {valid_actions}"
                )
            if record_rows:
                obs = ctx.observation  # the row needs the aggregates
            ctx.close()
            if action not in plans:
                plan((action,))
            data_ready, start, exec_time = plans[action]
            arrival_wait = data_ready - now
            queue_wait = start - data_ready
            finish = start + exec_time
            device = devices[action - 1]
            trace.assignments[(app_id, task.task_id)] = Assignment(action, start, finish)
            placed[task.task_id] = (action, finish)
            device.queue_free_at = finish
            device.enqueue(app_id, task.task_id, task.workload)
            push(finish, COMPLETION, app_id, task.task_id, action)

            reward = compute_reward(
                task.workload, graph.lct[task.task_id], arrival_wait, queue_wait,
                exec_time, finish, params,
            )
            trace.rewards.append(reward)
            scheduler.notify_outcome(reward)
            if record_rows:
                trace.rows.append((now, "decide", app_id, task.task_id, action,
                                   start, finish,
                                   obs.sum_inter_rate, obs.uplink_rate,
                                   obs.sum_capability, obs.ready_workload,
                                   obs.queued_workload, action, reward, None))

    unfinished = [g.app_id for g in apps if g.app_id not in trace.app_makespans]
    if unfinished:
        raise DeadlockError(f"event queue drained with apps unfinished: {unfinished}")

    scheduler.end_episode(observe_state(now, topo, devices, [], ()))
    return trace
