"""Property tests of the event kernel over random multi-app workloads.

Each example draws 1-3 applications with equal or overlapping release
times, 2-3 devices on multi-level capability chains, asymmetric link rates
and a random fixed assignment, then runs the kernel under a scripted
placement, greedy-EFT, the random scheduler or an untrained greedy DQN, and
checks it against the independent oracle and against invariants of the
timing model.

The kernel's cached bookkeeping is checked against fresh computations: each
device's running queue total against a left-to-right sum of its queue at
every decision, every plan (``finish_if`` and the committed finish) against
a recomputation from ``transfer_time`` and ``execution_time``, capability
draws against ``rng.choice`` on a twin stream, and workload generation's
block draws against scalar draws on a twin stream. The fleet-wide
``transfer_times`` is checked against the oracle for every device triple,
``compute_lct``'s positional walk against the lookup walk it replaced,
``collect_ready``'s parent counters against the set scan they replaced,
one ``generate`` plus ``prepare_graphs`` against a budget of two shape
lookups per app, a graph's one-pass shape against the earlier two-pass
derivation with its reachability search, and ``observe_state``'s loops against the ``reduce`` sums
they replaced, bit for bit (any NaN for any NaN).
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    assign_deadline,
    augment_with_dummies,
    edge_data,
    entries_and_exits,
    make_graph,
    real_tasks,
    same_float,
    waiting_counts,
)
from oracles import (
    ScriptedScheduler,
    evaluate_schedule,
    oracle_collect_ready,
    oracle_lct,
    oracle_observe_state,
    oracle_shape_of,
    oracle_structure_faults,
    oracle_transfer,
)
from mecsched.baselines import GreedyEftScheduler, HeftStyleScheduler, RandomScheduler
from mecsched.dqn_core import DqnLearner, TrainConfig
from mecsched.experiment import TopologyConfig, build_topology, prepare_graphs
from mecsched.mdp_agent import DqnScheduler
from mecsched.mec_model import (
    CapabilityChain,
    EdgeDevice,
    NetworkTopology,
    execution_time,
    transfer_time,
    transfer_times,
)
from mecsched.sim_engine import collect_ready, observe_state, run
from mecsched.task_graph import (
    Edge,
    Task,
    TaskGraph,
    _shape_of,
    build_priority_list,
    compute_lct,
)
from mecsched.workload import (
    WorkloadSpec,
    critical_path_seconds,
    generate,
    montage25_edges,
)

MATRICES = {
    2: ((0.5, 0.5), (0.25, 0.75)),
    3: ((0.5, 0.25, 0.25), (0.25, 0.5, 0.25), (0.125, 0.375, 0.5)),
}
PROPERTY_SETTINGS = settings(
    max_examples=80, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def scenarios(draw):
    n_dev = draw(st.integers(2, 3))
    n_levels = draw(st.integers(2, 3))
    levels = tuple(draw(st.lists(st.sampled_from([4000.0, 4500.0, 5000.0, 5500.0, 6000.0]),
                                 min_size=n_levels, max_size=n_levels, unique=True)))
    rates = {(a, b): draw(st.sampled_from([220.0, 440.0, 880.0]))
             for a in range(1, n_dev + 1) for b in range(1, n_dev + 1) if a != b}
    uplink = draw(st.sampled_from([500.0, 1000.0]))
    release_time = st.one_of(st.sampled_from([0.0, 0.05]), st.floats(0.0, 0.2))
    graphs = []
    for app_id in range(1, draw(st.integers(1, 3)) + 1):
        n_real = draw(st.integers(1, 5))
        workloads = {i: draw(st.floats(50.0, 500.0)) for i in range(1, n_real + 1)}
        edges = {}
        for i in range(2, n_real + 1):
            for p in draw(st.sets(st.integers(1, i - 1), max_size=2)):
                edges[(p, i)] = draw(st.floats(0.0, 200.0))
        release = draw(release_time)
        graphs.append(make_graph(
            edges, workloads, app_id=app_id, release=release,
            deadline=release + draw(st.floats(0.5, 5.0)),
            home=draw(st.integers(1, n_dev)), dummy_data=draw(st.floats(0.0, 100.0)),
        ))
    assignment = {(g.app_id, t.task_id): draw(st.integers(1, n_dev))
                  for g in graphs for t in real_tasks(g)}
    chain_seeds = [draw(st.integers(0, 2**16)) for _ in range(n_dev)]
    return n_dev, levels, rates, uplink, graphs, assignment, chain_seeds


SCHEDULERS = ("scripted", "greedy_eft", "random", "dqn")


def make_scheduler(kind, scenario, topo):
    """A fresh scheduler of the given kind; equal scenarios give equal runs."""
    n_dev, levels, assignment = scenario[0], scenario[1], scenario[5]
    if kind == "scripted":
        return ScriptedScheduler(assignment)
    if kind == "greedy_eft":
        return GreedyEftScheduler()
    if kind == "heft":
        return HeftStyleScheduler(topo, levels)
    if kind == "random":
        return RandomScheduler(n_dev, np.random.default_rng(7))
    rngs = [np.random.default_rng(seed) for seed in (11, 12, 13)]
    return DqnScheduler(DqnLearner(TrainConfig(), n_dev + 1, *rngs), n_dev, training=False)


class QueueAudit:
    """Delegates to a scheduler; at every decision, checks each device's
    running queue total against a fresh left-to-right sum of its queue, and
    the observed queued workload against a left-to-right sum of those."""

    def __init__(self, inner, devices):
        self.inner = inner
        self.devices = devices
        self.decisions = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def decide(self, ctx):
        # explicit left-to-right sums: builtin sum is compensated on
        # Python >= 3.12 and may differ from the kernel in the last bits
        fleet = 0.0
        for device in self.devices:
            total = 0.0
            for _, _, mi in device.queue:
                total += mi
            assert device.queued_mi == total
            fleet += total
        assert ctx.observation.queued_workload == fleet
        self.decisions += 1
        return self.inner.decide(ctx)


class PlanAudit:
    """Delegates to a scheduler; at every decision, recomputes the task's
    finish time on every device as ``max(device free time,
    max(max(parent finish + transfer_time), now)) + execution_time``. With
    ``ask``, checks every ``finish_if`` against it (``==``) before the
    scheduler decides; either way, keeps the chosen device's value for the
    committed finish (``check``)."""

    def __init__(self, inner, graphs, topo, devices, ask):
        self.inner = inner
        self.graphs = {g.app_id: g for g in graphs}
        self.topo = topo
        self.devices = devices
        self.ask = ask
        self.placed = {(g.app_id, 0): (0, g.release_time) for g in graphs}
        self.expected = {}

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def decide(self, ctx):
        graph = self.graphs[ctx.app_id]
        task = graph.tasks[ctx.task_id]
        finishes = {}
        for m in ctx.valid_actions:
            arrivals = []
            for edge in graph.parent_edges(task.task_id):
                src, done = self.placed[(ctx.app_id, edge.src)]
                arrivals.append(done + transfer_time(edge, src, m, self.topo, graph.home_ecd))
            device = self.devices[m - 1]
            start = max(device.queue_free_at, max(max(arrivals), ctx.now))
            finishes[m] = start + execution_time(task, device)
            if self.ask:
                assert ctx.finish_if(m) == finishes[m]
        action = self.inner.decide(ctx)
        self.placed[(ctx.app_id, task.task_id)] = (action, finishes[action])
        self.expected[(ctx.app_id, task.task_id)] = finishes[action]
        return action

    def check(self, trace):
        assert self.expected == {key: trace.assignments[key].finish
                                 for key in trace.decisions}


def simulate(scenario, kind="scripted", audit=False, plan_audit=None):
    """Run the kernel on a scenario under a fresh scheduler of the given kind;
    returns (graphs, trace, the oracle's level traces). ``plan_audit`` wraps
    the scheduler in a ``PlanAudit`` whose ``ask`` it gives."""
    n_dev, levels, rates, uplink, graphs, assignment, chain_seeds = scenario
    matrix = np.zeros((n_dev, n_dev))
    for (a, b), rate in rates.items():
        matrix[a - 1, b - 1] = rate
    topo = NetworkTopology(matrix, uplink)
    graphs = [compute_lct(g, max(levels), topo.max_rate, uplink) for g in graphs]
    transitions = MATRICES[len(levels)]
    devices = [EdgeDevice(m, levels) for m in range(1, n_dev + 1)]
    chains = [CapabilityChain(transitions, np.random.default_rng(s)) for s in chain_seeds]
    scheduler = make_scheduler(kind, scenario, topo)
    if audit:
        scheduler = QueueAudit(scheduler, devices)
    if plan_audit is not None:
        scheduler = PlanAudit(scheduler, graphs, topo, devices, plan_audit)
    trace = run(graphs, topo, devices, scheduler, chains)
    if audit:
        assert scheduler.decisions == len(assignment)
    if plan_audit is not None:
        scheduler.check(trace)

    # the capability after k completions on a device: replay its chain
    level_traces = {}
    for m, seed in enumerate(chain_seeds, start=1):
        replay = CapabilityChain(transitions, np.random.default_rng(seed))
        level, speeds = 0, [levels[0]]
        for _ in assignment:
            level = replay.sample_next(level)
            speeds.append(levels[level])
        level_traces[m] = speeds
    return graphs, trace, level_traces


def check_oracle_and_critical_path(scenario, kind):
    graphs, trace, level_traces = simulate(scenario, kind)
    _, levels, rates, uplink, _, _, _ = scenario
    finish, makespans = evaluate_schedule(graphs, trace.decisions, rates, uplink,
                                          level_traces)
    assert set(finish) == set(trace.assignments)
    for key, a in trace.assignments.items():
        assert abs(finish[key] - a.finish) <= 1e-9
    for g in graphs:
        assert abs(makespans[g.app_id] - trace.app_makespans[g.app_id]) <= 1e-9
        assert trace.app_makespans[g.app_id] >= critical_path_seconds(g, max(levels)) - 1e-9


def check_fcfs_without_overlap(scenario, kind):
    _, trace, _ = simulate(scenario, kind)
    n_dev = scenario[0]
    committed = {m: [] for m in range(1, n_dev + 1)}
    for key, m in trace.decisions.items():  # in commit order
        committed[m].append(key)
    completed = {m: [(row[2], row[3]) for row in trace.rows
                     if row[1] == "completion" and row[4] == m]
                 for m in committed}
    for m, keys in committed.items():
        assert completed[m] == keys
        runs = [trace.assignments[k] for k in keys]
        for earlier, later in zip(runs, runs[1:]):
            assert later.start >= earlier.finish


def check_no_start_before_inputs_or_decision(scenario, kind):
    graphs, trace, _ = simulate(scenario, kind)
    _, _, rates, uplink, _, _, _ = scenario
    decided_at = {(row[2], row[3]): row[0] for row in trace.rows if row[1] == "decide"}
    for g in graphs:
        for t in real_tasks(g):
            key = (g.app_id, t.task_id)
            a = trace.assignments[key]
            assert a.start >= decided_at[key]
            for p in g.parents_of(t.task_id):
                pa = trace.assignments[(g.app_id, p)]
                hop = oracle_transfer(edge_data(g, p, t.task_id), pa.ecd_id, a.ecd_id,
                                      rates, uplink, g.home_ecd)
                assert a.start >= pa.finish + hop


def check_rerun_identical(scenario, kind):
    _, first, _ = simulate(scenario, kind)
    _, second, _ = simulate(scenario, kind)
    assert first.rows == second.rows
    assert first.assignments == second.assignments
    assert first.rewards == second.rewards


@PROPERTY_SETTINGS
@given(scenarios(), st.booleans())
def test_matches_oracle_and_critical_path(scenario, greedy):
    # greedy-EFT plans every device before it commits one of the plans
    check_oracle_and_critical_path(scenario, "greedy_eft" if greedy else "scripted")


@PROPERTY_SETTINGS
@given(scenarios())
def test_devices_serve_fcfs_without_overlap(scenario):
    check_fcfs_without_overlap(scenario, "scripted")


@PROPERTY_SETTINGS
@given(scenarios())
def test_no_start_before_inputs_or_decision(scenario):
    check_no_start_before_inputs_or_decision(scenario, "scripted")


@PROPERTY_SETTINGS
@given(scenarios())
def test_rerun_gives_identical_trace(scenario):
    check_rerun_identical(scenario, "scripted")


@pytest.mark.parametrize("kind", ["random", "dqn"])
@PROPERTY_SETTINGS
@given(scenarios())
def test_random_and_learned_schedulers_keep_invariants(kind, scenario):
    check_oracle_and_critical_path(scenario, kind)
    check_fcfs_without_overlap(scenario, kind)
    check_no_start_before_inputs_or_decision(scenario, kind)
    check_rerun_identical(scenario, kind)


@pytest.mark.parametrize("kind", SCHEDULERS)
@PROPERTY_SETTINGS
@given(scenarios())
def test_queue_totals_equal_fresh_sums(kind, scenario):
    simulate(scenario, kind, audit=True)


@pytest.mark.parametrize("kind", ["greedy_eft", "heft", "scripted", "random"])
@pytest.mark.parametrize("ask", [True, False])
@PROPERTY_SETTINGS
@given(scenarios())
def test_plans_equal_recomputed_finish_times(kind, ask, scenario):
    # ask: every device is planned at the first finish_if; otherwise the
    # scripted and random commits plan the chosen device alone
    simulate(scenario, kind, plan_audit=ask)


@st.composite
def stochastic_matrices(draw):
    """Row-stochastic matrices of 1-6 levels, zero entries included."""
    n = draw(st.integers(1, 6))
    rows = []
    for _ in range(n):
        weights = draw(st.lists(st.sampled_from([0.0, 0.0, 0.1, 0.5, 1.0, 3.0]),
                                min_size=n, max_size=n)
                       .filter(lambda w: sum(w) > 0)
                       .map(np.array))
        rows.append(weights / weights.sum())
    return np.array(rows)


@PROPERTY_SETTINGS
@given(stochastic_matrices(), st.integers(0, 2**32 - 1))
def test_sample_next_matches_choice_on_twin_stream(matrix, seed):
    chain = CapabilityChain(matrix, np.random.default_rng(seed))
    twin = np.random.default_rng(seed)
    level = twin_level = 0
    for _ in range(200):
        level = chain.sample_next(level)
        twin_level = int(twin.choice(len(matrix), p=matrix[twin_level]))
        assert level == twin_level
    assert chain.rng.bit_generator.state == twin.bit_generator.state


def scalar_generate(spec, rng):
    """Reference for ``generate``: one scalar draw per value, in the order
    the generator consumes them."""
    n_tasks, edge_pairs = montage25_edges()
    lo_w, hi_w = spec.workload_range
    lo_bc, hi_bc = spec.bc_range

    def draw_data():
        bc = min(max(float(rng.uniform(0.0, 1.5 * hi_bc)), lo_bc), hi_bc)
        return bc * spec.mean_rate

    graphs, clock = [], 0.0
    for n in range(1, spec.n_apps + 1):
        clock += float(rng.exponential(spec.mean_gap))
        tasks = tuple(Task(i, min(max(float(rng.uniform(0.0, 1.2 * hi_w)), lo_w), hi_w))
                      for i in range(1, n_tasks + 1))
        edges = tuple(Edge(s, d, draw_data()) for s, d in edge_pairs)
        home = int(rng.integers(1, spec.n_devices + 1))
        raw = TaskGraph(n, clock, float("inf"), home, tasks, edges)
        entries, exits = entries_and_exits(raw)
        graph = augment_with_dummies(raw, [draw_data() for _ in entries],
                                     [draw_data() for _ in exits])
        graphs.append(assign_deadline(graph, spec.deadline_capability, spec.deadline_factor))
    return graphs


@PROPERTY_SETTINGS
@given(st.integers(1, 4), st.floats(50.0, 600.0), st.floats(0.0, 1.0, exclude_min=True),
       st.floats(1e-4, 0.05), st.floats(0.0, 1.0), st.integers(1, 8),
       st.integers(0, 2**32 - 1))
def test_generate_matches_scalar_draws_on_twin_stream(n_apps, hi_w, lo_w_frac, hi_bc,
                                                      lo_bc_frac, n_devices, seed):
    spec = WorkloadSpec(n_apps=n_apps, lam=5.0, workload_range=(lo_w_frac * hi_w, hi_w),
                        bc_range=(lo_bc_frac * hi_bc, hi_bc), n_devices=n_devices)
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    assert generate(spec, rng) == scalar_generate(spec, twin)
    assert rng.bit_generator.state == twin.bit_generator.state


@PROPERTY_SETTINGS
@given(st.lists(st.floats(1.0, 2000.0), min_size=12, max_size=12),
       st.floats(100.0, 2000.0), st.floats(0.0, 500.0))
def test_transfer_times_match_oracle_for_every_device_pair(rate_values, uplink, data):
    """Every (src, dst, home) of a 4-device fleet, the mobile user's device 0
    included, bit for bit; one call per (src, home) with every target."""
    pairs = [(a, b) for a in range(1, 5) for b in range(1, 5) if a != b]
    rates = dict(zip(pairs, rate_values))
    matrix = np.zeros((4, 4))
    for (a, b), rate in rates.items():
        matrix[a - 1, b - 1] = rate
    topo = NetworkTopology(matrix, uplink)
    targets = (0, 1, 2, 3, 4)
    for home in range(1, 5):
        for src in targets:
            expected = [oracle_transfer(data, src, dst, rates, uplink, home) for dst in targets]
            assert transfer_times(data, src, targets, topo, home) == expected
            assert [transfer_time(Edge(0, 1, data), src, dst, topo, home)
                    for dst in targets] == expected


@st.composite
def sink_feeding_dags(draw):
    """A bracketed DAG whose real tasks may feed the sink and have real
    children at once, with its edges listed in a random order."""
    n_real = draw(st.integers(1, 8))
    sink = n_real + 1
    data = st.floats(0.0, 300.0)
    endpoints = set()
    for i in range(2, n_real + 1):
        for p in draw(st.sets(st.integers(1, i - 1), max_size=3)):
            endpoints.add((p, i))
    has_parent = {d for _, d in endpoints}
    has_child = {s for s, _ in endpoints}
    for i in range(1, n_real + 1):
        if i not in has_parent:
            endpoints.add((0, i))
        if i not in has_child or draw(st.booleans()):
            endpoints.add((i, sink))
    order = draw(st.permutations(sorted(endpoints)))
    release = draw(st.floats(0.0, 5.0))
    tasks = (Task(0, 0.0),
             *(Task(i, draw(st.floats(1.0, 900.0))) for i in range(1, sink)),
             Task(sink, 0.0))
    return TaskGraph(1, release, release + draw(st.floats(0.01, 10.0)), 1, tasks,
                     tuple(Edge(s, d, draw(data)) for s, d in order))


@PROPERTY_SETTINGS
@given(sink_feeding_dags(), st.sampled_from([4000.0, 6000.0]), st.floats(100.0, 1000.0),
       st.floats(100.0, 1000.0))
def test_compute_lct_matches_lookup_walk(graph, max_cap, max_rate, uplink):
    out = compute_lct(graph, max_cap, max_rate, uplink)
    lct = oracle_lct(graph, max_cap, max_rate, uplink)
    assert list(out.lct) == [lct[t.task_id] for t in graph.tasks]
    assert out == TaskGraph(graph.app_id, graph.release_time, graph.deadline, graph.home_ecd,
                            graph.tasks, graph.edges,
                            tuple(lct[t.task_id] for t in graph.tasks))


@PROPERTY_SETTINGS
@given(sink_feeding_dags(), st.data())
def test_collect_ready_pops_what_the_set_scan_pops(graph, data):
    graph = compute_lct(graph, 6000.0, 440.0, 1000.0)
    completed = data.draw(st.sets(st.sampled_from([t.task_id for t in graph.tasks])))
    priority = build_priority_list(graph)
    keep = data.draw(st.lists(st.booleans(), min_size=len(priority), max_size=len(priority)))
    pending = [i for i, kept in zip(priority, keep) if kept]
    # the kernel's bookkeeping: parent counts, less one per completed parent
    waiting = [len(graph.parents_of(t.task_id)) for t in graph.tasks]
    for done in completed:
        for child in graph.children_of(done):
            waiting[child] -= 1
    assert waiting == waiting_counts(graph, completed)
    expected_pending = list(pending)
    expected = oracle_collect_ready(expected_pending,
                                    {(graph.app_id, i) for i in completed}, graph)
    assert collect_ready(pending, waiting, graph) == expected
    assert pending == expected_pending


@PROPERTY_SETTINGS
@given(st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_generate_and_prepare_look_each_app_shape_up_at_most_twice(n_apps, seed):
    tc = TopologyConfig()
    spec = WorkloadSpec(n_apps=n_apps, n_devices=tc.n_devices)
    _shape_of.cache_clear()
    prepare_graphs(generate(spec, np.random.default_rng(seed)), tc, build_topology(tc))
    info = _shape_of.cache_info()
    assert info.hits + info.misses <= 2 * n_apps


@st.composite
def drawn_structures(draw):
    """Task ids and edge endpoints of 1-8 tasks: drawn forward edges, often
    bracketed by the first and last task into a sound DAG, and in half the
    examples one or two drawn pairs that may be self edges, duplicates,
    unknown ids (-1 and K + 1) or close a cycle, in a drawn order; now and
    then the ids are shuffled."""
    n = draw(st.integers(1, 8))
    forward = [(s, d) for s in range(n) for d in range(s + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(forward), max_size=len(forward)))
    pairs = {p for p, kept in zip(forward, keep) if kept}
    if draw(st.booleans()):
        pairs |= {(0, i) for i in range(1, n) if all(d != i for _, d in pairs)}
        pairs |= {(i, n - 1) for i in range(n - 1) if all(s != i for s, _ in pairs)}
    extra = []
    if draw(st.booleans()):
        node = st.integers(-1, n)
        extra = draw(st.lists(st.tuples(node, node), min_size=1, max_size=2))
    endpoints = draw(st.permutations(sorted(pairs) + extra))
    ids = tuple(range(n))
    if draw(st.integers(0, 7)) == 0:
        ids = tuple(draw(st.permutations(ids)))
    return ids, tuple(endpoints)


@settings(PROPERTY_SETTINGS, max_examples=400)
@given(drawn_structures())
def test_shape_matches_the_two_pass_oracle(structure):
    """Sound exactly when the oracle is, a one-task graph excepted, and on a
    sound graph the same adjacency and Kahn order, task id by task id."""
    ids, endpoints = structure
    shape = _shape_of(ids, endpoints)
    faults = oracle_structure_faults(ids, endpoints)
    if len(ids) == 1 and not faults:
        # one task is its own source and sink to the oracle; refused now
        assert shape.faults == ("need a source and a sink task",)
        return
    assert (not shape.faults) == (not faults), (shape.faults, faults)
    if faults:
        return
    oracle = oracle_shape_of(ids, endpoints)
    for i in ids:
        assert shape.parents[i] == oracle.parents[i]
        assert shape.children[i] == oracle.children[i]
        assert shape.parent_edges[i] == oracle.parent_edges[i]
        assert shape.child_edges[i] == oracle.child_edges[i]
    assert shape.order == oracle.order


# observation inputs, signed zeros, NaN and infinities included
ODD_FLOATS = st.one_of(
    st.floats(-1e6, 1e6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324]),
)
# summands: mostly values whose sum depends on the order they are added in
SUMMANDS = st.one_of(st.sampled_from([0.1, 0.2, 0.3, 0.7, 1e16, -1e16]), ODD_FLOATS)


# more examples than the others: few of them draw a sum whose order matters
@settings(PROPERTY_SETTINGS, max_examples=300)
@given(st.integers(1, 8), st.data())
def test_observe_state_matches_the_reduce_oracle_bit_for_bit(n_dev, data):
    now = data.draw(st.one_of(st.floats(0.0, 10.0), ODD_FLOATS))
    devices = []
    for m in range(1, n_dev + 1):
        levels = data.draw(st.lists(st.floats(1.0, 1e5), min_size=1, max_size=4))
        device = EdgeDevice(m, tuple(levels), data.draw(st.integers(0, len(levels) - 1)))
        # the device frees before, at or after now, or at an odd time
        device.queue_free_at = data.draw(st.one_of(
            st.just(now), st.floats(-5.0, 5.0).map(lambda d: now + d), ODD_FLOATS))
        mis = data.draw(st.lists(SUMMANDS, max_size=8))
        for task_id, mi in enumerate(mis):
            device.enqueue(1, task_id, mi)
        for task_id in range(data.draw(st.integers(0, len(mis)))):
            device.pop_head(1, task_id)
        devices.append(device)
    workloads = data.draw(st.lists(SUMMANDS, max_size=6))
    ids = data.draw(st.permutations(range(len(workloads))))
    ready = [Task(i, w) for i, w in zip(ids, workloads)]
    lct = data.draw(st.lists(ODD_FLOATS, min_size=len(ready), max_size=len(ready)))
    rates = np.full((n_dev, n_dev), 440.0)
    topo = NetworkTopology(rates, 1000.0)

    got = observe_state(now, topo, devices, ready, lct)
    want = oracle_observe_state(now, topo, devices, ready, lct)
    for name in ("sum_inter_rate", "uplink_rate", "sum_capability", "ready_workload",
                 "queued_workload", "task_workload", "task_slack"):
        assert same_float(getattr(got, name), getattr(want, name)), name
    for name in ("backlog", "capability"):
        assert len(getattr(got, name)) == len(getattr(want, name)) == n_dev, name
        assert all(map(same_float, getattr(got, name), getattr(want, name))), name
