"""Independent reference implementations used to cross-check the package.

Nothing here imports simulator internals beyond the plain data types and
the scheduler port: the schedule evaluator re-derives all timing from the
timing rules with its own event loop, the scripted scheduler replays a
fixed assignment through the port, the gradient oracle uses central finite
differences, and the policy oracle is tabular value iteration. The
observation oracle keeps the earlier formula of the kernel's
``observe_state``, which the package must match bit for bit. The structure
oracle keeps the earlier dict-keyed derivation of a graph's adjacency and,
in a second pass, its faults, with a two-way reachability search. The
learning-step oracle runs every optimizer step on targets from its own
pass of the target network, as the learner did before it kept a target
value per replay slot.
"""

from __future__ import annotations

import bisect
from functools import reduce
from operator import add
from types import SimpleNamespace

import numpy as np

from mecsched.dqn_core import compute_targets, train_step
from mecsched.mdp_agent import StateVector
from mecsched.scheduler_port import DecisionContext, SchedulerPort


class ScriptedScheduler(SchedulerPort):
    """Replays a fixed (app, task) -> device mapping; used for replay and
    brute-force checks."""

    def __init__(self, decisions: dict[tuple[int, int], int]):
        self.decisions = dict(decisions)

    def decide(self, ctx: DecisionContext) -> int:
        return self.decisions[(ctx.app_id, ctx.task_id)]


def oracle_transfer(data, src_dev, dst_dev, rates, uplink, home):
    """Transfer seconds for one edge; ``rates`` maps (m, m') -> Mbps."""
    if src_dev == dst_dev:
        return 0.0
    if src_dev == 0:
        t = data / uplink
        if dst_dev != home:
            t += data / rates[(home, dst_dev)]
        return t
    if dst_dev == 0:
        t = data / uplink
        if src_dev != home:
            t += data / rates[(src_dev, home)]
        return t
    return data / rates[(src_dev, dst_dev)]


def edge_sizes(graph):
    """Megabits by ``(src, dst)``."""
    return {(e.src, e.dst): e.data_size for e in graph.edges}


def oracle_lct(graph, max_capability, max_rate, uplink_rate):
    """Latest completion time per task id, by the lookup walk ``compute_lct``
    replaced: reverse topological order, children in id order, workloads by
    id and edge sizes by endpoints."""
    sink = graph.sink_id
    data = edge_sizes(graph)
    lct = {sink: graph.deadline}
    for i in reversed(graph.topological_order()):
        if i == sink:
            continue
        bounds = []
        for j in graph.children_of(i):
            if j == sink:
                bounds.append(graph.deadline - data[(i, sink)] / uplink_rate)
            else:
                bounds.append(
                    lct[j]
                    - graph.tasks[j].workload / max_capability
                    - data[(i, j)] / max_rate
                )
        lct[i] = min(bounds)
    return lct


def oracle_shape_of(ids, endpoints):
    """Dict-keyed adjacency of a graph with these task ids and edge
    endpoints (every endpoint must be a task id): positions, parents,
    children, parent- and child-edge positions, edge positions by
    ``(src, dst)``, the Kahn order with ties by id (``None`` on a cycle)
    and the sink."""
    parent_lists = {i: [] for i in ids}
    child_lists = {i: [] for i in ids}
    for src, dst in endpoints:
        parent_lists[dst].append(src)
        child_lists[src].append(dst)
    parents = {i: tuple(sorted(v)) for i, v in parent_lists.items()}
    children = {i: tuple(sorted(v)) for i, v in child_lists.items()}
    edge_position = {pair: k for k, pair in enumerate(endpoints)}

    indeg = {i: len(parents[i]) for i in ids}
    frontier = sorted(i for i, d in indeg.items() if d == 0)
    order = []
    while frontier:
        node = frontier.pop(0)
        order.append(node)
        for child in children[node]:
            indeg[child] -= 1
            if indeg[child] == 0:
                bisect.insort(frontier, child)
    return SimpleNamespace(
        position={i: k for k, i in enumerate(ids)},
        parents=parents,
        children=children,
        parent_edges={t: tuple(edge_position[(p, t)] for p in ps) for t, ps in parents.items()},
        child_edges={t: tuple(edge_position[(t, c)] for c in cs) for t, cs in children.items()},
        edge_position=edge_position,
        order=tuple(order) if len(order) == len(ids) else None,
        sink=max(ids),
    )


def oracle_structure_faults(ids, endpoints):
    """The broken structural invariants of every graph with these task ids
    and edge endpoints: id range, edges, cycle, source and sink, parents and
    children, reachability from the source and to the sink."""
    if not ids:
        return ("empty graph",)
    if ids != tuple(range(len(ids))):
        return ("task ids not contiguous from 0",)
    sink = ids[-1]
    known = range(sink + 1)

    bad = []
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

    shape = oracle_shape_of(ids, endpoints)
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


def _reachable(step, start):
    seen = {start}
    stack = [start]
    while stack:
        for nxt in step[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def oracle_collect_ready(pending, completed, graph):
    """Pop the ready prefix of one application's priority list, as the
    graph's tasks, by the set scan the kernel's parent counters replaced: a
    head is ready once ``(app, parent)`` is in ``completed`` for each of its
    parents. ``pending`` is consumed in place."""
    app_id = graph.app_id
    tasks = []
    for head in pending:
        if any((app_id, p) not in completed for p in graph.parents_of(head)):
            break
        tasks.append(graph.tasks[head])
    del pending[:len(tasks)]
    return tasks


def evaluate_schedule(graphs, assignment, rates, uplink, level_traces):
    """Directly evaluate task timings for fixed assignments.

    graphs        list of TaskGraph (lct columns filled)
    assignment    dict (app_id, task_id) -> device id, real tasks only
    rates         dict (m, m') -> Mbps
    uplink        Mbps
    level_traces  dict device -> list of MIPS values; entry k applies from
                  the k-th completion on that device onwards

    Returns (finish times dict keyed (app, task), makespans dict keyed app).

    The walk mirrors the specified mechanism: arrival and completion events
    in (time, insertion) order, ready tasks popped from the head of each
    application's ascending-LCT list once all parents completed, merged
    ascending by (lct, app, task), committed one at a time FCFS.
    """
    graphs = {g.app_id: g for g in graphs}
    data = {app_id: edge_sizes(g) for app_id, g in graphs.items()}
    order = {}
    for app_id, g in graphs.items():
        real = [t.task_id for t in g.tasks if t.task_id not in (0, g.sink_id)]
        order[app_id] = sorted(real, key=lambda i: (g.lct[i], i))

    finish: dict[tuple[int, int], float] = {}
    on_device: dict[tuple[int, int], int] = {}
    completed: set[tuple[int, int]] = set()
    free: dict[int, float] = {m: 0.0 for m in level_traces}
    n_done: dict[int, int] = {m: 0 for m in level_traces}

    events: list[tuple[float, int, str, int, int, int]] = []
    seq = 0
    for app_id in sorted(graphs):
        events.append((graphs[app_id].release_time, seq, "arrival", app_id, 0, 0))
        seq += 1

    def arrival_time(app_id, parent, child, target):
        g = graphs[app_id]
        hop = oracle_transfer(
            data[app_id][(parent, child)], on_device[(app_id, parent)], target,
            rates, uplink, g.home_ecd,
        )
        return finish[(app_id, parent)] + hop

    while events:
        events.sort(key=lambda e: (e[0], e[1]))
        now, _, kind, app_id, task_id, dev = events.pop(0)
        if kind == "arrival":
            finish[(app_id, 0)] = now
            on_device[(app_id, 0)] = 0
            completed.add((app_id, 0))
        else:
            completed.add((app_id, task_id))
            n_done[dev] += 1

        ready = []
        for a in sorted(graphs):
            g = graphs[a]
            ready.extend((g.lct[t.task_id], a, t.task_id)
                         for t in oracle_collect_ready(order[a], completed, g))
        ready.sort()
        for _, a, t in ready:
            g = graphs[a]
            m = assignment[(a, t)]
            arrivals = [arrival_time(a, p, t, m) for p in g.parents_of(t)]
            trace = level_traces[m]
            mips = trace[min(n_done[m], len(trace) - 1)]
            start = max(free[m], max(arrivals), now)
            fin = start + g.tasks[t].workload / mips
            finish[(a, t)] = fin
            on_device[(a, t)] = m
            free[m] = fin
            events.append((fin, seq, "completion", a, t, m))
            seq += 1

    makespans = {}
    for app_id, g in graphs.items():
        sink = g.sink_id
        fin = max(arrival_time(app_id, p, sink, 0) for p in g.parents_of(sink))
        finish[(app_id, sink)] = fin
        makespans[app_id] = fin - g.release_time
    return finish, makespans


def fd_loss_gradients(net, states, actions, targets, h=1e-5, probes=None, rng=None):
    """Central-difference gradients of the picked-action squared error.

    With ``probes`` set, only that many randomly chosen coordinates per
    parameter tensor are evaluated; returns a list of (flat_index, value)
    lists aligned with net.parameters().
    """
    states = np.asarray(states, dtype=float)
    actions = np.asarray(actions, dtype=int)
    targets = np.asarray(targets, dtype=float)

    def loss() -> float:
        q, _ = net.forward_batch(states)
        d = q[np.arange(len(actions)), actions] - targets
        return float(np.mean(d * d))

    results = []
    for p in net.parameters():
        flat = p.ravel()
        if probes is None:
            idx = np.arange(flat.size)
        else:
            idx = rng.choice(flat.size, size=min(probes, flat.size), replace=False)
        pairs = []
        for i in idx:
            orig = flat[i]
            flat[i] = orig + h
            lo = loss()
            flat[i] = orig - h
            hi = loss()
            flat[i] = orig
            pairs.append((int(i), (lo - hi) / (2.0 * h)))
        results.append(pairs)
    return results


def oracle_observe(learner, state, action, reward, next_state) -> None:
    """``learner.observe`` with a target pass per step: store the
    transition and, once the pool holds a batch, sample one, compute its
    targets from one ``compute_targets`` pass over the sampled next states
    and take one ``train_step``. Works on the learner's own pool, networks
    and optimizer, and draws the same replay numbers."""
    buf = learner.buffer
    buf.add(state, action, reward, next_state)
    if len(buf) >= learner.config.batch:
        idx, states, actions = buf.sample(learner.config.batch)
        targets = compute_targets(buf.rewards[idx], buf.next_states[idx],
                                  learner.target_net, learner.config.gamma)
        learner.last_loss = train_step(learner.net, states, actions, targets, learner.opt)


def value_iteration(transitions, rewards, gamma, sweeps=2000):
    """Optimal policy of a finite MDP; transitions[s][a] -> s', rewards[s][a]."""
    n_states = len(transitions)
    n_actions = len(transitions[0])
    values = np.zeros(n_states)
    for _ in range(sweeps):
        new = np.array([
            max(rewards[s][a] + gamma * values[transitions[s][a]] for a in range(n_actions))
            for s in range(n_states)
        ])
        if np.abs(new - values).max() < 1e-12:
            values = new
            break
        values = new
    policy = [
        int(np.argmax([rewards[s][a] + gamma * values[transitions[s][a]]
                       for a in range(n_actions)]))
        for s in range(n_states)
    ]
    return values, policy


def oracle_observe_state(now, topo, devices, ready, lct):
    """The observation by ``reduce(add, ..., 0.0)`` sums over throw-away
    lists, as ``observe_state`` computed it before its plain loops; each
    device's queued MI is its running total ``queued_mi``."""
    def left_sum(values):
        return float(reduce(add, values, 0.0))

    head = ready[0] if ready else None
    capability = tuple([d.capability for d in devices])
    return StateVector(
        sum_inter_rate=topo.sum_rate,
        uplink_rate=topo.uplink_rate,
        sum_capability=left_sum(capability),
        ready_workload=left_sum([t.workload for t in ready]),
        queued_workload=left_sum([d.queued_mi for d in devices]),
        task_workload=head.workload if head else 0.0,
        task_slack=lct[head.task_id] - now if head else 0.0,
        backlog=tuple([0.0 if d.queue_free_at < now else d.queue_free_at - now
                       for d in devices]),
        capability=capability,
    )
