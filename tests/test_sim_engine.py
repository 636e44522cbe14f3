import itertools

import numpy as np
import pytest

from conftest import (
    edge_data,
    make_chain_graph,
    make_graph,
    random_app,
    real_tasks,
    waiting_counts,
    with_lct,
)
from oracles import ScriptedScheduler, evaluate_schedule
from mecsched import rng as rngmod
from mecsched import sim_engine
from mecsched.experiment import TopologyConfig, build_chains, build_devices
from mecsched.mdp_agent import RewardParams, StateNorms, compute_reward, normalize_state
from mecsched.mec_model import CapabilityChain, EdgeDevice, NetworkTopology
from mecsched.sim_engine import (
    SchedulerPort,
    SchedulingError,
    SimulationTrace,
    collect_ready,
    observe_state,
    run,
    write_csv,
)
from mecsched.task_graph import Task, build_priority_list, compute_lct


def identity_chains(n, levels=1):
    return [CapabilityChain(np.eye(levels), np.random.default_rng(m))
            for m in range(n)]


def simple_devices(mips_list):
    return [EdgeDevice(m + 1, (mips,)) for m, mips in enumerate(mips_list)]


class TestCollectReady:
    def test_blocked_head_stays(self, topology):
        graph = with_lct(make_chain_graph([100.0, 200.0]), topology)
        pending = [1, 2]
        ready = collect_ready(pending, waiting_counts(graph, {0}), graph)
        assert [r.task_id for r in ready] == [1]
        assert pending == [2]  # child blocked until task 1 completes

    def test_diamond_pops_both_branches(self, topology):
        edges = {(1, 2): 1.0, (1, 3): 1.0, (2, 4): 1.0, (3, 4): 1.0}
        loads = {1: 100.0, 2: 200.0, 3: 300.0, 4: 100.0}
        graph = with_lct(make_graph(edges, loads), topology)
        # task 1 already dispatched and completed
        pending = [t for t in build_priority_list(graph) if t != 1]
        ready = collect_ready(pending, waiting_counts(graph, {0, 1}), graph)
        ids = [r.task_id for r in ready]
        assert set(ids) == {2, 3}
        assert pending == [4]
        lcts = [graph.lct[r.task_id] for r in ready]
        assert lcts == sorted(lcts)

    def test_everything_consumed_gives_empty(self, topology):
        graph = with_lct(make_chain_graph([100.0]), topology)
        assert collect_ready([], waiting_counts(graph, {0}), graph) == []


class TestObserveState:
    def test_capability_sum(self, topology):
        devices = simple_devices([6000.0] * 4)
        s = observe_state(0.0, topology, devices, [], ())
        assert s.sum_capability == pytest.approx(24000.0)

    def test_idle_system_zero_workloads(self, topology):
        s = observe_state(0.0, topology, simple_devices([6000.0] * 4), [], ())
        assert s.ready_workload == 0.0
        assert s.queued_workload == 0.0

    def test_full_mesh_rate_sum(self, topology):
        s = observe_state(0.0, topology, simple_devices([6000.0] * 4), [], ())
        assert s.sum_inter_rate == pytest.approx(12 * 440.0)
        assert s.uplink_rate == pytest.approx(1000.0)

    def test_workload_accounting(self, topology):
        devices = simple_devices([6000.0] * 4)
        devices[1].enqueue(1, 3, 400.0)
        devices[2].enqueue(1, 4, 100.0)
        ready = [Task(5, 250.0)]
        s = observe_state(0.0, topology, devices, ready, {5: 1.0})
        assert s.queued_workload == pytest.approx(500.0)
        assert s.ready_workload == pytest.approx(250.0)

    def test_task_and_device_components(self, topology):
        devices = simple_devices([6000.0, 5000.0, 4000.0, 6000.0])
        devices[1].queue_free_at = 2.5
        devices[2].queue_free_at = 0.5  # drained before now
        ready = [Task(5, 250.0), Task(1, 100.0)]
        s = observe_state(1.0, topology, devices, ready, {5: 3.0, 1: 4.0})
        assert s.task_workload == 250.0
        assert s.task_slack == pytest.approx(2.0)
        assert s.backlog == (0.0, 1.5, 0.0, 0.0)
        assert s.capability == (6000.0, 5000.0, 4000.0, 6000.0)
        assert normalize_state(s, StateNorms()).shape == (15,)

    def test_sums_are_not_compensated(self, topology):
        # a compensated sum (builtin sum from Python 3.12 on) gives 1.0 here
        cancelling = (1e16, 1.0, -1e16)
        devices = simple_devices([6000.0] * 3)
        for dev, mi in zip(devices, cancelling):
            dev.enqueue(1, dev.ecd_id, mi)
        ready = [Task(k, mi) for k, mi in enumerate(cancelling)]
        s = observe_state(0.0, topology, devices, ready, (1.0,) * len(ready))
        assert s.ready_workload == 0.0
        assert s.queued_workload == 0.0
        trace = SimulationTrace()
        trace.rewards = list(cancelling)
        trace.app_makespans = dict(enumerate(cancelling))
        assert trace.cumulative_reward == 0.0
        assert trace.avg_makespan() == 0.0


class TestRewardInputs:
    def test_durations_sum_to_finish_minus_now(self, topology, monkeypatch):
        # task 1 waits for its upload; task 2 waits for a busy device
        graph = with_lct(make_chain_graph([100.0, 200.0], edge_data=50.0,
                                          dummy_data=20.0), topology)
        devices = simple_devices([5000.0, 5000.0])
        devices[0].queue_free_at = 5.0

        calls = []  # (now, compute_reward's arguments, its result)

        def recording_reward(*args):
            reward = compute_reward(*args)
            calls.append((sched.now, args, reward))
            return reward

        monkeypatch.setattr(sim_engine, "compute_reward", recording_reward)

        class Recording(ScriptedScheduler):
            def __init__(self, decisions):
                super().__init__(decisions)
                self.rewards = []

            def decide(self, ctx):
                self.now = ctx.now
                return super().decide(ctx)

            def notify_outcome(self, reward):
                self.rewards.append(reward)

        sched = Recording({(1, 1): 2, (1, 2): 1})
        trace = run([graph], topology, devices, sched, identity_chains(2))
        assert len(calls) == 2
        for (now, args, _), task_id in zip(calls, (1, 2)):
            workload, lct, arrival_wait, queue_wait, exec_time, finish, params = args
            task, placed = graph.tasks[task_id], trace.assignments[(1, task_id)]
            assert (workload, lct, finish) == (task.workload, graph.lct[task_id], placed.finish)
            assert arrival_wait + queue_wait + exec_time == pytest.approx(
                finish - now, rel=1e-12)
            assert placed.start - now == pytest.approx(arrival_wait + queue_wait, rel=1e-12)
            assert params == RewardParams()
        (_, first, _), (_, second, _) = calls
        assert first[2] > 0.0 and first[3] == 0.0  # arrival_wait, queue_wait
        assert second[3] > 0.0
        assert trace.assignments[(1, 2)].start == pytest.approx(5.0)
        assert sched.rewards == [reward for _, _, reward in calls] == trace.rewards


class TestRun:
    def test_minimal_run_three_assignments(self, topology):
        graph = with_lct(make_graph({}, {1: 100.0}), topology)
        trace = run([graph], topology, simple_devices([5000.0]),
                    ScriptedScheduler({(1, 1): 1}), identity_chains(1))
        assert set(trace.assignments) == {(1, 0), (1, 1), (1, 2)}
        assert 1 in trace.app_makespans

    def test_two_apps_same_release_merge_ready(self, topology):
        g1 = with_lct(make_chain_graph([100.0], app_id=1, deadline=9.0), topology)
        g2 = with_lct(make_chain_graph([100.0], app_id=2, deadline=8.0), topology)
        trace = run([g1, g2], topology, simple_devices([5000.0, 5000.0]),
                    ScriptedScheduler({(1, 1): 1, (2, 1): 2}), identity_chains(2))
        assert len(trace.app_makespans) == 2

    def test_fcfs_starts_follow_enqueue_order(self, topology):
        rng = np.random.default_rng(11)
        graphs = [with_lct(random_app(rng, n, 6, release=0.1 * n), topology)
                  for n in (1, 2)]
        decisions = {(g.app_id, t.task_id): 1 for g in graphs for t in real_tasks(g)}
        trace = run(graphs, topology, simple_devices([5000.0]),
                    ScriptedScheduler(decisions), identity_chains(1))
        ordered = sorted(
            (a for key, a in trace.assignments.items() if a.ecd_id == 1),
            key=lambda a: a.start,
        )
        for earlier, later in zip(ordered, ordered[1:]):
            assert earlier.finish <= later.start + 1e-12

    def test_every_real_task_assigned_once(self, topology):
        rng = np.random.default_rng(12)
        graphs = [with_lct(random_app(rng, n, int(rng.integers(1, 8)), release=0.05 * n),
                           topology) for n in (1, 2, 3)]
        decisions = {(g.app_id, t.task_id): int(rng.integers(1, 5))
                     for g in graphs for t in real_tasks(g)}
        tc = TopologyConfig()
        trace = run(graphs, topology, build_devices(tc), ScriptedScheduler(decisions),
                    build_chains(tc, 5, "cap", 0))
        for g in graphs:
            for t in real_tasks(g):
                assert (g.app_id, t.task_id) in trace.assignments
        assert len(trace.decisions) == sum(len(real_tasks(g)) for g in graphs)

    def test_decisions_are_the_real_tasks_assignments_in_commit_order(self, topology):
        rng = np.random.default_rng(13)
        graphs = [with_lct(random_app(rng, n, 5, release=0.05 * n), topology)
                  for n in (1, 2)]
        decisions = {(g.app_id, t.task_id): int(rng.integers(1, 5))
                     for g in graphs for t in real_tasks(g)}
        tc = TopologyConfig()
        trace = run(graphs, topology, build_devices(tc), ScriptedScheduler(decisions),
                    build_chains(tc, 6, "cap", 0))
        committed = [(row[2], row[3]) for row in trace.rows if row[1] == "decide"]
        assert list(trace.decisions) == committed
        assert trace.decisions == decisions
        trace.decisions.clear()  # a fresh dict each read: the trace keeps its own
        assert trace.decisions == decisions

    def test_invalid_device_rejected(self, topology):
        graph = with_lct(make_graph({}, {1: 100.0}), topology)

        class Bad(SchedulerPort):
            def decide(self, ctx):
                return 0

        with pytest.raises(SchedulingError):
            run([graph], topology, simple_devices([5000.0]), Bad(), identity_chains(1))

    def test_app_without_lct_refused_by_name(self, topology):
        ready = with_lct(make_graph({}, {1: 100.0}, app_id=1), topology)
        bare = make_graph({}, {1: 100.0}, app_id=7)  # compute_lct never ran
        with pytest.raises(ValueError, match=r"^app 7: priorities require lct"):
            run([ready, bare], topology, simple_devices([5000.0]),
                ScriptedScheduler({(1, 1): 1, (7, 1): 1}), identity_chains(1))

    @pytest.mark.parametrize("bad", [0, 5, -1])
    def test_finish_if_rejects_devices_outside_the_fleet(self, topology, bad):
        graph = with_lct(make_graph({}, {1: 100.0}), topology)
        tc = TopologyConfig()

        class Probe(SchedulerPort):
            def decide(self, ctx):
                ctx.finish_if(bad)
                return 1

        with pytest.raises(SchedulingError, match=rf"no device {bad} .*valid: \(1, 2, 3, 4\)"):
            run([graph], topology, build_devices(tc), Probe(), build_chains(tc, 5, "cap", 0))

    def test_fleet_out_of_id_order_refused(self, topology):
        graph = with_lct(make_graph({}, {1: 100.0}), topology)
        devices = [EdgeDevice(m, (5000.0,)) for m in (2, 1, 3, 4)]
        with pytest.raises(ValueError, match=r"1\.\.4 in list order, got \(2, 1, 3, 4\)"):
            run([graph], topology, devices, ScriptedScheduler({(1, 1): 1}),
                identity_chains(4))

    def test_fleet_larger_than_topology_refused(self, topology):
        graph = with_lct(make_graph({}, {1: 100.0}), topology)
        with pytest.raises(ValueError, match=r"5 devices, but the topology links only 4"):
            run([graph], topology, simple_devices([5000.0] * 5),
                ScriptedScheduler({(1, 1): 5}), identity_chains(5))

    def test_same_seed_identical_traces(self, topology):
        rng = np.random.default_rng(13)
        graphs = [with_lct(random_app(rng, n, 5, release=0.02 * n), topology)
                  for n in (1, 2)]
        tc = TopologyConfig()

        def one(seed):
            from mecsched.baselines import RandomScheduler
            sched = RandomScheduler(4, rngmod.stream(seed, "p"))
            return run(graphs, topology, build_devices(tc), sched,
                       build_chains(tc, seed, "cap", 0))

        a, b = one(9), one(9)
        assert a.rows == b.rows
        assert a.app_makespans == b.app_makespans

    def test_replay_reproduces_finish_times(self, topology):
        rng = np.random.default_rng(14)
        graphs = [with_lct(random_app(rng, n, 6, release=0.03 * n), topology)
                  for n in (1, 2)]
        tc = TopologyConfig()
        from mecsched.baselines import RandomScheduler
        first = run(graphs, topology, build_devices(tc),
                    RandomScheduler(4, rngmod.stream(21, "p")),
                    build_chains(tc, 21, "cap", 0))
        second = run(graphs, topology, build_devices(tc),
                     ScriptedScheduler(first.decisions), build_chains(tc, 21, "cap", 0))
        assert first.assignments == second.assignments

    def test_dependency_gap_detected_as_deadlock(self, topology):
        # a priority list referencing a never-completing parent cannot drain
        graph = with_lct(make_chain_graph([100.0, 200.0]), topology)
        pending = [2]  # head depends on task 1 which never runs
        assert collect_ready(pending, waiting_counts(graph, {0}), graph) == []
        assert pending == [2]

    def test_degenerate_app_without_real_tasks(self, topology):
        from mecsched.task_graph import Edge, Task, TaskGraph
        graph = TaskGraph(1, 1.0, 2.0, 1, (Task(0, 0.0), Task(1, 0.0)),
                          (Edge(0, 1, 0.0),))
        graph = compute_lct(graph, 6000.0, topology.max_rate, topology.uplink_rate)
        trace = run([graph], topology, simple_devices([5000.0]),
                    ScriptedScheduler({}), identity_chains(1))
        assert trace.app_makespans[1] == pytest.approx(0.0)

    def test_trace_csv_round_layout(self, topology, tmp_path):
        graph = with_lct(make_graph({}, {1: 100.0}), topology)
        trace = run([graph], topology, simple_devices([5000.0]),
                    ScriptedScheduler({(1, 1): 1}), identity_chains(1))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("time,event,app,task,device")
        assert len(lines) == len(trace.rows) + 1


class TestWriteCsv:
    def test_fields_are_exact_and_plain(self, tmp_path):
        path = tmp_path / "rows.csv"
        awkward = (0.1 + 0.2, 5e-324, -0.0)
        write_csv(path, ("a", "b", "c", "d", "e", "f", "g"),
                  [(*awkward, None, np.float64(0.1), 7, "decide")])
        header, row = path.read_text(encoding="utf-8").splitlines()
        assert header == "a,b,c,d,e,f,g"
        fields = row.split(",")
        # each float reads back to the same bits, the sign of -0.0 included
        assert [float(f).hex() for f in fields[:3]] == [v.hex() for v in awkward]
        assert fields[3:] == ["", "0.1", "7", "decide"]


class TestStartTimeBounds:
    def test_no_start_before_parent_data_arrives(self, topology):
        from mecsched.baselines import RandomScheduler
        from mecsched.mec_model import transfer_time
        from mecsched.task_graph import Edge

        rng = np.random.default_rng(31)
        tc = TopologyConfig()
        graphs = [with_lct(random_app(rng, n, int(rng.integers(2, 8)),
                                      release=0.05 * n), topology)
                  for n in (1, 2, 3)]
        trace = run(graphs, topology, build_devices(tc),
                    RandomScheduler(4, rngmod.stream(33, "p")),
                    build_chains(tc, 33, "cap", 0))
        for g in graphs:
            for t in real_tasks(g):
                a = trace.assignments[(g.app_id, t.task_id)]
                for p in g.parents_of(t.task_id):
                    pa = trace.assignments[(g.app_id, p)]
                    hop = transfer_time(Edge(p, t.task_id, edge_data(g, p, t.task_id)),
                                        pa.ecd_id, a.ecd_id, topology, g.home_ecd)
                    assert a.start >= pa.finish + hop - 1e-12

    def test_untrained_agent_never_picks_masked_action(self, topology):
        from mecsched.dqn_core import DqnLearner, TrainConfig
        from mecsched.mdp_agent import DqnScheduler

        rng = np.random.default_rng(34)
        tc = TopologyConfig()
        graphs = [with_lct(random_app(rng, n, 6, release=0.02 * n), topology)
                  for n in (1, 2)]
        config = TrainConfig(batch=8, buffer_capacity=512, planned_steps=100,
                             hidden_sizes=(8, 8), episodes=1)
        learner = DqnLearner(config, 5, rngmod.stream(35, "w"),
                             rngmod.stream(35, "e"), rngmod.stream(35, "r"))
        sched = DqnScheduler(learner, 4, training=True)
        trace = run(graphs, topology, build_devices(tc), sched,
                    build_chains(tc, 35, "cap", 0))
        assert 0 not in set(trace.decisions.values())
        assert set(trace.decisions.values()) <= {1, 2, 3, 4}


class TestOracleAgreement:
    def test_multi_app_interleaving_matches_direct_evaluation(self, topology):
        rng = np.random.default_rng(77)
        for trial in range(15):
            n_dev = 2
            graphs = [
                with_lct(random_app(rng, n, int(rng.integers(2, 6)),
                                    release=float(rng.uniform(0.0, 0.3))), topology)
                for n in (1, 2, 3)
            ]
            assignment = {
                (g.app_id, t.task_id): int(rng.integers(1, n_dev + 1))
                for g in graphs for t in real_tasks(g)
            }
            matrix = np.full((n_dev, n_dev), 440.0)
            np.fill_diagonal(matrix, 0.0)
            topo2 = NetworkTopology(matrix, 1000.0)
            rates = {(a, b): 440.0 for a in (1, 2) for b in (1, 2) if a != b}
            devices = simple_devices([6000.0, 4500.0])
            trace = run(graphs, topo2, devices, ScriptedScheduler(assignment),
                        identity_chains(n_dev), record_rows=False)
            finish, makespans = evaluate_schedule(
                graphs, assignment, rates, 1000.0, {1: [6000.0], 2: [4500.0]})
            for key, a in trace.assignments.items():
                assert finish[key] == pytest.approx(a.finish, abs=1e-9)
            for app_id, mk in makespans.items():
                assert mk == pytest.approx(trace.app_makespans[app_id], abs=1e-9)

    def test_simulator_matches_direct_evaluation(self, topology):
        rng = np.random.default_rng(42)
        tc = TopologyConfig()
        for trial in range(8):
            n_real = int(rng.integers(2, 6))
            graphs = [with_lct(random_app(rng, 1, n_real,
                                          release=float(rng.uniform(0, 0.5))), topology)]
            n_dev = 2
            real_ids = [t.task_id for t in real_tasks(graphs[0])]
            rates = {(a, b): 440.0 for a in range(1, n_dev + 1)
                     for b in range(1, n_dev + 1) if a != b}
            for combo in itertools.product(range(1, n_dev + 1), repeat=len(real_ids)):
                assignment = dict(zip(((1, t) for t in real_ids), combo))
                matrix = np.full((n_dev, n_dev), 440.0)
                np.fill_diagonal(matrix, 0.0)
                topo2 = NetworkTopology(matrix, 1000.0)
                devices = simple_devices([6000.0, 4000.0][:n_dev])
                trace = run(graphs, topo2, devices, ScriptedScheduler(assignment),
                            identity_chains(n_dev))
                finish, makespans = evaluate_schedule(
                    graphs, assignment, rates, 1000.0,
                    {1: [6000.0], 2: [4000.0]},
                )
                for key, a in trace.assignments.items():
                    assert finish[key] == pytest.approx(a.finish, abs=1e-9)
                assert makespans[1] == pytest.approx(trace.app_makespans[1], abs=1e-9)


class TestObservationOnRead:
    """A decision's observation is computed only when something reads it."""

    @pytest.fixture
    def observed(self, monkeypatch):
        """Arguments of every ``observe_state`` call the kernel makes."""
        calls = []
        original = sim_engine.observe_state

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(sim_engine, "observe_state", counting)
        return calls

    @staticmethod
    def simulate(topology, scheduler, record_rows):
        rng = np.random.default_rng(52)
        graphs = [with_lct(random_app(rng, n, 6, release=0.02 * n), topology)
                  for n in (1, 2, 3)]
        tc = TopologyConfig()
        return run(graphs, topology, build_devices(tc), scheduler,
                   build_chains(tc, 52, "cap", 0), record_rows=record_rows)

    @staticmethod
    def heuristic(name, topology):
        from mecsched.baselines import (
            GreedyEftScheduler,
            HeftStyleScheduler,
            RandomScheduler,
        )
        return {
            "random": lambda: RandomScheduler(4, rngmod.stream(53, "p")),
            "greedy_eft": GreedyEftScheduler,
            "heft": lambda: HeftStyleScheduler(topology, TopologyConfig().capability_levels),
        }[name]()

    @pytest.mark.parametrize("name", ["random", "greedy_eft", "heft"])
    def test_heuristics_observe_only_the_final_state(self, topology, observed, name):
        trace = self.simulate(topology, self.heuristic(name, topology), record_rows=False)
        assert len(trace.decisions) == 18
        assert len(observed) == 1
        assert observed[0][3] == []  # the final observation: nothing is ready

    @pytest.mark.parametrize("name", ["random", "greedy_eft", "heft"])
    def test_recorded_rows_observe_every_decision(self, topology, observed, name):
        trace = self.simulate(topology, self.heuristic(name, topology), record_rows=True)
        assert len(observed) == len(trace.decisions) + 1

    def test_untrained_dqn_observes_every_decision(self, topology, observed):
        from mecsched.dqn_core import DqnLearner, TrainConfig
        from mecsched.mdp_agent import DqnScheduler

        config = TrainConfig(batch=8, buffer_capacity=512, planned_steps=100,
                             hidden_sizes=(8, 8), episodes=1)
        learner = DqnLearner(config, 5, rngmod.stream(54, "w"),
                             rngmod.stream(54, "e"), rngmod.stream(54, "r"))
        trace = self.simulate(topology, DqnScheduler(learner, 4, training=False),
                              record_rows=False)
        assert len(observed) == len(trace.decisions) + 1

    def test_read_after_decide_gives_the_decision_time_value_or_raises(self, topology):
        class Keeper(SchedulerPort):
            """Reads the observation of every other decision, keeps every context."""

            def __init__(self):
                self.kept = []  # (context, observation read during decide or None)

            def decide(self, ctx):
                obs = ctx.observation if len(self.kept) % 2 else None
                self.kept.append((ctx, obs))
                return 1

            def notify_outcome(self, reward):
                ctx, obs = self.kept[-1]
                if obs is None:  # after the commit, an unread state is gone
                    with pytest.raises(RuntimeError, match="only while"):
                        ctx.observation

        class DeviceOne(SchedulerPort):
            def decide(self, ctx):
                return 1

        keeper = Keeper()
        trace = self.simulate(topology, keeper, record_rows=False)
        rows = self.simulate(topology, DeviceOne(), record_rows=True).rows
        decide_rows = [r for r in rows if r[1] == "decide"]
        assert len(keeper.kept) == len(decide_rows) == len(trace.decisions)
        for (ctx, obs), row in zip(keeper.kept, decide_rows):
            if obs is None:
                with pytest.raises(RuntimeError, match="only while"):
                    ctx.observation
            else:
                assert ctx.observation is obs
                assert (obs.sum_inter_rate, obs.uplink_rate, obs.sum_capability,
                        obs.ready_workload, obs.queued_workload) == row[7:12]

    def test_kept_context_finish_if_raises_after_close(self, topology):
        class Keeper(SchedulerPort):
            """Keeps its first context and asks it again in later decisions."""

            def __init__(self):
                self.first = None
                self.later = 0

            def decide(self, ctx):
                if self.first is None:
                    self.first = ctx
                    assert ctx.finish_if(2) > ctx.now
                else:
                    with pytest.raises(RuntimeError, match="only while"):
                        self.first.finish_if(2)
                    self.later += 1
                return 1

        keeper = Keeper()
        trace = self.simulate(topology, keeper, record_rows=False)
        assert keeper.later == len(trace.decisions) - 1 > 0


class TestPlanner:
    """The first ``finish_if`` of a decision plans the whole fleet; a commit
    nothing asked about plans the chosen device only."""

    class Counter(SchedulerPort):
        """Delegates to a scheduler and records the targets of the kernel's
        fleet-wide ``transfer_times`` calls during each ``decide`` and each
        commit (``decide`` returning to ``notify_outcome``)."""

        def __init__(self, inner, calls):
            self.inner = inner
            self.calls = calls
            self.in_decide: list[list[tuple[int, ...]]] = []
            self.in_commit: list[list[tuple[int, ...]]] = []
            self.parents: list[int] = []
            self.actions: list[int] = []

        def order_ready(self, graph, ready):
            self.graph = graph
            self.inner.order_ready(graph, ready)

        def decide(self, ctx):
            start = len(self.calls)
            action = self.inner.decide(ctx)
            self.in_decide.append(self.calls[start:])
            self.mark = len(self.calls)
            self.parents.append(len(self.graph.parents_of(ctx.task_id)))
            self.actions.append(action)
            return action

        def notify_outcome(self, reward):
            self.in_commit.append(self.calls[self.mark:])
            self.inner.notify_outcome(reward)

        def end_episode(self, observation):
            self.inner.end_episode(observation)

    @pytest.fixture
    def transfers(self, monkeypatch):
        calls = []
        original = sim_engine.transfer_times

        def counting(data, src, targets, topo, home):
            calls.append(tuple(targets))
            return original(data, src, targets, topo, home)

        monkeypatch.setattr(sim_engine, "transfer_times", counting)
        return calls

    @staticmethod
    def scheduler(name, topology, graphs):
        from mecsched.baselines import GreedyEftScheduler, RandomScheduler
        from mecsched.dqn_core import DqnLearner, TrainConfig
        from mecsched.mdp_agent import DqnScheduler

        if name == "scripted":
            return ScriptedScheduler({(g.app_id, t.task_id): 1 + (g.app_id + t.task_id) % 4
                                      for g in graphs for t in real_tasks(g)})
        if name == "random":
            return RandomScheduler(4, rngmod.stream(61, "p"))
        if name == "greedy_eft":
            return GreedyEftScheduler()
        config = TrainConfig(batch=8, buffer_capacity=512, planned_steps=100,
                             hidden_sizes=(8, 8), episodes=1)
        learner = DqnLearner(config, 5, rngmod.stream(61, "w"),
                             rngmod.stream(61, "e"), rngmod.stream(61, "r"))
        return DqnScheduler(learner, 4, training=True)

    @pytest.mark.parametrize("name", ["random", "dqn", "scripted", "greedy_eft"])
    def test_transfers_planned_per_decision(self, topology, transfers, name):
        rng = np.random.default_rng(61)
        graphs = [with_lct(random_app(rng, n, 6, release=0.02 * n), topology)
                  for n in (1, 2, 3)]
        tc = TopologyConfig()
        counter = self.Counter(self.scheduler(name, topology, graphs), transfers)
        trace = run(graphs, topology, build_devices(tc), counter,
                    build_chains(tc, 61, "cap", 0), record_rows=False)
        assert len(counter.in_commit) == len(trace.decisions) == 18
        if name == "greedy_eft":
            # all 4 devices planned once per parent in decide, the commit
            # reuses the plan
            assert counter.in_decide == [[(1, 2, 3, 4)] * k for k in counter.parents]
            assert counter.in_commit == [[]] * 18
        else:
            # nothing asked: one call per parent output, to the chosen device
            assert counter.in_decide == [[]] * 18
            assert counter.in_commit == [[(m,)] * k
                                         for m, k in zip(counter.actions, counter.parents)]
