"""Property tests of the event kernel over random multi-app workloads.

Each example draws 1-3 applications with equal or overlapping release
times, 2-3 devices on multi-level capability chains, asymmetric link rates
and a random fixed assignment, then runs the kernel with a
ScriptedScheduler (or greedy-EFT) and checks it against the independent
oracle and against invariants of the timing model.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_graph
from oracles import evaluate_schedule, oracle_transfer
from mecsched.baselines import GreedyEftScheduler
from mecsched.mec_model import CapabilityChain, EdgeDevice, NetworkTopology
from mecsched.sim_engine import ScriptedScheduler, run
from mecsched.task_graph import compute_lct
from mecsched.workload import critical_path_seconds

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
                  for g in graphs for t in g.real_tasks()}
    chain_seeds = [draw(st.integers(0, 2**16)) for _ in range(n_dev)]
    return n_dev, levels, rates, uplink, graphs, assignment, chain_seeds


def simulate(scenario, scheduler=None):
    """Run the kernel on a scenario, by default with its scripted assignment;
    returns (graphs, trace, the oracle's level traces)."""
    n_dev, levels, rates, uplink, graphs, assignment, chain_seeds = scenario
    matrix = np.zeros((n_dev, n_dev))
    for (a, b), rate in rates.items():
        matrix[a - 1, b - 1] = rate
    topo = NetworkTopology(matrix, uplink)
    graphs = [compute_lct(g, max(levels), topo.max_rate, uplink) for g in graphs]
    transitions = MATRICES[len(levels)]
    devices = [EdgeDevice(m, levels) for m in range(1, n_dev + 1)]
    chains = [CapabilityChain(transitions, np.random.default_rng(s)) for s in chain_seeds]
    trace = run(graphs, topo, devices, scheduler or ScriptedScheduler(assignment), chains)

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


@PROPERTY_SETTINGS
@given(scenarios(), st.booleans())
def test_matches_oracle_and_critical_path(scenario, greedy):
    # greedy-EFT plans every device before it commits one of the plans
    graphs, trace, level_traces = simulate(scenario, GreedyEftScheduler() if greedy else None)
    _, levels, rates, uplink, _, _, _ = scenario
    finish, makespans = evaluate_schedule(graphs, trace.decisions, rates, uplink,
                                          level_traces)
    assert set(finish) == set(trace.assignments)
    for key, a in trace.assignments.items():
        assert abs(finish[key] - a.finish) <= 1e-9
    for g in graphs:
        assert abs(makespans[g.app_id] - trace.app_makespans[g.app_id]) <= 1e-9
        assert trace.app_makespans[g.app_id] >= critical_path_seconds(g, max(levels)) - 1e-9


@PROPERTY_SETTINGS
@given(scenarios())
def test_devices_serve_fcfs_without_overlap(scenario):
    _, trace, _ = simulate(scenario)
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


@PROPERTY_SETTINGS
@given(scenarios())
def test_no_start_before_inputs_or_decision(scenario):
    graphs, trace, _ = simulate(scenario)
    _, _, rates, uplink, _, _, _ = scenario
    decided_at = {(row[2], row[3]): row[0] for row in trace.rows if row[1] == "decide"}
    for g in graphs:
        for t in g.real_tasks():
            key = (g.app_id, t.task_id)
            a = trace.assignments[key]
            assert a.start >= decided_at[key]
            for p in g.parents_of(t.task_id):
                pa = trace.assignments[(g.app_id, p)]
                hop = oracle_transfer(g.edge_data(p, t.task_id), pa.ecd_id, a.ecd_id,
                                      rates, uplink, g.home_ecd)
                assert a.start >= pa.finish + hop


@PROPERTY_SETTINGS
@given(scenarios())
def test_rerun_gives_identical_trace(scenario):
    _, first, _ = simulate(scenario)
    _, second, _ = simulate(scenario)
    assert first.rows == second.rows
    assert first.assignments == second.assignments
    assert first.rewards == second.rewards
