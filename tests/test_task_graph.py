import pickle
import re
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from conftest import augment_with_dummies, edge_data, make_chain_graph, make_graph, random_app
from mecsched.task_graph import (
    Edge,
    Task,
    TaskGraph,
    WorkloadFormatError,
    _shape_of,
    build_priority_list,
    compute_lct,
    load_workload_file,
    save_workload_file,
    validate,
)


def eight_task_graph():
    # 6 real tasks, 2 entries, 2 exits -> 8 tasks after augmentation
    workloads = {1: 100.0, 2: 200.0, 3: 300.0, 4: 150.0, 5: 250.0, 6: 120.0}
    edges = {(1, 3): 5.0, (2, 3): 4.0, (2, 4): 3.0, (3, 5): 2.0, (4, 6): 1.0}
    return make_graph(edges, workloads)


class TestRecords:
    @pytest.mark.parametrize("record", [Task(1, 250.0), Edge(0, 1, 0.5)],
                             ids=["task", "edge"])
    def test_frozen_and_slotted(self, record):
        """``Task`` and ``Edge`` keep no ``__dict__`` and refuse assignment,
        and still compare, hash, copy with ``replace`` and pickle."""
        assert not hasattr(record, "__dict__")
        first = type(record).__slots__[0]
        with pytest.raises(FrozenInstanceError):
            setattr(record, first, 2)
        # a new name: FrozenInstanceError, or TypeError from CPython 3.11's
        # frozen-and-slotted __setattr__; refused either way
        with pytest.raises((AttributeError, TypeError)):
            record.extra = 2
        twin = pickle.loads(pickle.dumps(record))
        assert twin == record and hash(twin) == hash(record)
        assert getattr(replace(record, **{first: 2}), first) == 2


class TestValidate:
    def test_eight_task_graph_valid(self):
        graph = eight_task_graph()
        assert len(graph.tasks) == 8
        assert validate(graph) == ()

    def test_cycle_reported(self):
        tasks = (Task(0, 0.0), Task(1, 10.0), Task(2, 10.0), Task(3, 0.0))
        edges = (
            Edge(0, 1, 1.0), Edge(1, 2, 1.0), Edge(2, 1, 1.0), Edge(2, 3, 1.0),
        )
        graph = TaskGraph(1, 0.0, 10.0, 1, tasks, edges)
        violations = validate(graph)
        assert violations
        assert any("cycle" in v for v in violations)

    def test_nonzero_dummy_workload_reported(self):
        graph = eight_task_graph()
        tasks = tuple(
            Task(t.task_id, 7.0 if t.task_id == 0 else t.workload)
            for t in graph.tasks
        )
        bad = TaskGraph(1, 0.0, 10.0, 1, tasks, graph.edges)
        violations = validate(bad)
        assert any("dummy workload nonzero" in v for v in violations)

    @pytest.mark.parametrize("edge, violation", [
        (Edge(1, 9, 1.0), "edge 1->9 references unknown task"),
        (Edge(0, 1, 2.0), "duplicate edge 0->1"),
        (Edge(1, 1, 1.0), "self edge on task 1"),
    ])
    def test_bad_edge_reported_not_raised(self, edge, violation):
        graph = make_chain_graph([100.0])
        bad = TaskGraph(1, 0.0, 10.0, 1, graph.tasks, graph.edges + (edge,))
        assert violation in validate(bad)

    def test_release_must_precede_deadline(self):
        graph = make_chain_graph([100.0], release=5.0, deadline=5.0)
        assert validate(graph)

    def test_disconnected_real_task_reported(self):
        tasks = (Task(0, 0.0), Task(1, 10.0), Task(2, 10.0), Task(3, 0.0))
        edges = (Edge(0, 1, 1.0), Edge(1, 3, 1.0))
        graph = TaskGraph(1, 0.0, 10.0, 1, tasks, edges)
        violations = validate(graph)
        assert any("task 2" in v for v in violations)

    @pytest.mark.parametrize("tasks, edges, faults", [
        ((Task(0, 0.0),), (), ("need a source and a sink task",)),
        ((Task(0, 0.0), Task(1, 0.0)), (),
         ("source task 0 has no children", "sink task 1 has no parents")),
    ], ids=["one-task", "unlinked-dummies"])
    def test_source_and_sink_required_and_linked(self, tasks, edges, faults):
        graph = TaskGraph(1, 0.0, 10.0, 1, tasks, edges)
        assert validate(graph) == faults
        assert not validate(replace(graph, tasks=(Task(0, 0.0), Task(1, 0.0)),
                                    edges=(Edge(0, 1, 1.0),)))

    def test_structural_and_value_faults_both_listed(self):
        tasks = (Task(0, 0.0), Task(1, -1.0), Task(2, 10.0), Task(3, 0.0))
        edges = (Edge(0, 1, 1.0), Edge(1, 2, 1.0), Edge(2, 1, 1.0), Edge(2, 3, 1.0))
        graph = TaskGraph(1, 5.0, 5.0, 1, tasks, edges)
        assert validate(graph) == ("cycle", "real task 1 has non-positive workload",
                                   "release_time must be strictly before deadline")


class TestAugment:
    def test_entries_and_exits_bracketed(self):
        graph = eight_task_graph()
        # entries 1,2 and exits 5,6 -> 4 new dummy edges on 5 real ones
        assert len(graph.edges) == 9
        assert graph.parents_of(1) == (0,)
        assert graph.parents_of(2) == (0,)
        assert graph.children_of(5) == (7,)
        assert graph.children_of(6) == (7,)
        assert graph.tasks[0].workload == 0.0
        assert graph.tasks[7].workload == 0.0

    def test_single_task_becomes_chain(self):
        graph = make_graph({}, {1: 100.0}, dummy_data=10.0)
        assert [t.task_id for t in graph.tasks] == [0, 1, 2]
        assert edge_data(graph, 0, 1) == 10.0
        assert edge_data(graph, 1, 2) == 10.0

    def test_empty_raw_rejected(self):
        raw = TaskGraph(1, 0.0, 1.0, 1, (), ())
        with pytest.raises(ValueError):
            augment_with_dummies(raw, [], [])

    def test_size_vector_mismatch(self):
        raw = TaskGraph(1, 0.0, 1.0, 1, (Task(1, 5.0),), ())
        with pytest.raises(ValueError, match="offload_sizes"):
            augment_with_dummies(raw, [1.0, 2.0], [1.0])


class TestComputeLct:
    @pytest.mark.parametrize("tasks, edges", [
        ((Task(0, 0.0), Task(2, 10.0), Task(1, 10.0), Task(3, 0.0)),
         (Edge(0, 1, 1.0), Edge(1, 2, 1.0), Edge(2, 3, 1.0))),
        ((Task(0, 0.0), Task(1, 10.0), Task(3, 0.0)), (Edge(0, 1, 1.0), Edge(1, 3, 1.0))),
        ((Task(1, 10.0), Task(2, 10.0)), (Edge(1, 2, 1.0),)),
    ], ids=["out-of-order", "gap", "no-source"])
    def test_ids_not_0_to_k_in_order_refused(self, tasks, edges):
        graph = TaskGraph(4, 0.0, 10.0, 1, tasks, edges)
        with pytest.raises(ValueError, match=r"^app 4: task ids must be 0\.\.K in order"):
            compute_lct(graph, 6000.0, 1000.0, 1000.0)

    @pytest.mark.parametrize("edges, fault", [
        ((Edge(0, 1, 1.0), Edge(0, 2, 1.0), Edge(1, 3, 1.0)), "real task 2 has no children"),
        ((Edge(0, 1, 1.0), Edge(1, 3, 1.0), Edge(2, 3, 1.0)), "real task 2 has no parents"),
        ((Edge(0, 1, 1.0), Edge(1, 2, 1.0), Edge(2, 1, 1.0), Edge(2, 3, 1.0)), "cycle"),
    ], ids=["childless", "parentless", "cycle"])
    def test_unsound_structure_refused_by_app(self, edges, fault):
        tasks = (Task(0, 0.0), Task(1, 10.0), Task(2, 10.0), Task(3, 0.0))
        graph = TaskGraph(5, 0.0, 10.0, 1, tasks, edges)
        with pytest.raises(ValueError, match=f"^app 5: {fault}$"):
            compute_lct(graph, 6000.0, 1000.0, 1000.0)

    def test_sink_parent_uses_uplink(self):
        graph = make_graph({}, {1: 100.0}, deadline=10.0, dummy_data=100.0)
        out = compute_lct(graph, max_capability=6000.0, max_rate=1000.0,
                          uplink_rate=1000.0)
        assert out.lct[1] == pytest.approx(10.0 - 100.0 / 1000.0, abs=1e-12)

    def test_zero_result_data_gives_deadline(self):
        graph = make_graph({}, {1: 100.0}, deadline=10.0, dummy_data=0.0)
        out = compute_lct(graph, 6000.0, 1000.0, 1000.0)
        assert out.lct[1] == pytest.approx(10.0)

    def test_chain_backward_propagation(self):
        # A -> B -> sink with no transfer data: lct_B = d, lct_A = d - rho_B/max_cap
        graph = make_chain_graph([100.0, 6000.0], deadline=10.0,
                                 edge_data=0.0, dummy_data=0.0)
        out = compute_lct(graph, max_capability=6000.0, max_rate=1000.0,
                          uplink_rate=1000.0)
        assert out.lct[2] == pytest.approx(10.0)
        assert out.lct[1] == pytest.approx(9.0)

    def test_mixed_sink_parent_takes_tighter_bound(self):
        # task 1 feeds both task 2 and the sink directly
        workloads = {1: 100.0, 2: 1000.0}
        edges = {(1, 2): 0.0}
        graph = make_graph(edges, workloads, deadline=10.0, dummy_data=0.0)
        out = compute_lct(graph, max_capability=1000.0, max_rate=1000.0,
                          uplink_rate=1000.0)
        # branch via child 2: lct_2 - 1000/1000 = 9.0; branch via sink: 10.0
        assert out.lct[1] == pytest.approx(9.0)

    def test_deadline_shift_is_affine(self, topology):
        rng = np.random.default_rng(3)
        for _ in range(20):
            graph = random_app(rng, 1, int(rng.integers(1, 9)))
            a = compute_lct(graph, 6000.0, topology.max_rate, topology.uplink_rate)
            shifted = TaskGraph(
                graph.app_id, graph.release_time, graph.deadline + 2.5,
                graph.home_ecd, graph.tasks, graph.edges,
            )
            b = compute_lct(shifted, 6000.0, topology.max_rate, topology.uplink_rate)
            for t in a.tasks:
                assert b.lct[t.task_id] == pytest.approx(a.lct[t.task_id] + 2.5, abs=1e-9)

    def test_edge_slack_invariant(self, topology):
        rng = np.random.default_rng(4)
        for _ in range(20):
            graph = random_app(rng, 1, int(rng.integers(2, 9)))
            out = compute_lct(graph, 6000.0, topology.max_rate, topology.uplink_rate)
            sink = out.sink_id
            for e in out.edges:
                if e.src == 0 or e.dst == sink:
                    continue
                child = out.tasks[e.dst]
                bound = (out.lct[e.dst] - child.workload / 6000.0
                         - e.data_size / topology.max_rate)
                assert out.lct[e.src] <= bound + 1e-9


class TestPriorityList:
    def test_graph_without_the_column_refused(self):
        graph = make_graph({}, {1: 100.0}, app_id=3)
        assert graph.lct is None
        with pytest.raises(ValueError, match=r"^app 3: priorities require lct"):
            build_priority_list(graph)

    def test_sorted_by_lct(self):
        graph = eight_task_graph()
        out = compute_lct(graph, 6000.0, 1000.0, 1000.0)
        ordered = build_priority_list(out)
        lcts = [out.lct[i] for i in ordered]
        assert lcts == sorted(lcts)
        assert set(ordered) == {1, 2, 3, 4, 5, 6}

    def test_tie_breaks_by_task_id(self):
        # two parallel identical tasks share an lct
        graph = make_graph({}, {1: 100.0, 2: 100.0}, deadline=10.0, dummy_data=5.0)
        out = compute_lct(graph, 6000.0, 1000.0, 1000.0)
        assert out.lct[1] == out.lct[2]
        assert build_priority_list(out) == (1, 2)

    def test_singleton(self):
        graph = make_graph({}, {1: 250.0})
        out = compute_lct(graph, 6000.0, 1000.0, 1000.0)
        assert build_priority_list(out) == (1,)

    def test_deterministic(self, topology):
        rng = np.random.default_rng(5)
        graph = random_app(rng, 1, 8)
        out = compute_lct(graph, 6000.0, topology.max_rate, topology.uplink_rate)
        first = build_priority_list(out)
        assert first == build_priority_list(out)

    def test_order_is_topological(self, topology):
        rng = np.random.default_rng(6)
        for _ in range(20):
            graph = random_app(rng, 1, int(rng.integers(2, 9)))
            out = compute_lct(graph, 6000.0, topology.max_rate, topology.uplink_rate)
            pos = {t: k for k, t in enumerate(build_priority_list(out))}
            for e in out.edges:
                if e.src in pos and e.dst in pos:
                    assert pos[e.src] < pos[e.dst]


class TestGraphCaches:
    def test_parent_edges_in_parent_id_order(self):
        edges = {(1, 3): 5.0, (2, 3): 7.0, (1, 2): 1.0}
        graph = make_graph(edges, {1: 100.0, 2: 100.0, 3: 100.0})
        assert graph.parent_edges(3) == (Edge(1, 3, 5.0), Edge(2, 3, 7.0))
        for t in graph.tasks:
            assert tuple(e.src for e in graph.parent_edges(t.task_id)) == graph.parents_of(t.task_id)
            for e in graph.parent_edges(t.task_id):
                assert e.dst == t.task_id
                assert e.data_size == edge_data(graph, e.src, e.dst)

    def test_child_edges_in_child_id_order(self):
        edges = {(1, 3): 5.0, (1, 2): 1.0, (2, 3): 7.0}
        graph = make_graph(edges, {1: 100.0, 2: 100.0, 3: 100.0})
        graph = replace(graph, edges=graph.edges[::-1])  # not in child-id order
        assert graph.child_edges(1) == (Edge(1, 2, 1.0), Edge(1, 3, 5.0))
        for t in graph.tasks:
            assert tuple(e.dst for e in graph.child_edges(t.task_id)) == graph.children_of(t.task_id)
            assert all(e.src == t.task_id for e in graph.child_edges(t.task_id))

    @pytest.mark.parametrize("tasks, edges, fault", [
        ((Task(0, 0.0), Task(2, 10.0), Task(1, 10.0), Task(3, 0.0)),
         (Edge(0, 1, 1.0), Edge(1, 2, 1.0), Edge(2, 3, 1.0)), "task ids must be 0..K in order"),
        ((Task(0, 0.0),), (), "need a source and a sink task"),
        ((Task(0, 0.0), Task(1, 10.0), Task(2, 0.0)),
         (Edge(0, 1, 1.0), Edge(1, 2, 1.0), Edge(1, 5, 1.0)), "edge 1->5 references unknown task"),
    ], ids=["ids", "one-task", "unknown-endpoint"])
    def test_graph_without_adjacency_refused_by_app(self, tasks, edges, fault):
        graph = TaskGraph(6, 0.0, 10.0, 1, tasks, edges)
        for read in (lambda: graph.parents_of(0), graph.topological_order,
                     lambda: graph.parent_edges(0)):
            with pytest.raises(ValueError, match=f"^app 6: {re.escape(fault)}$"):
                read()

    def test_topological_order_returns_a_fresh_list(self):
        graph = make_chain_graph([100.0, 200.0])
        order = graph.topological_order()
        order.reverse()
        assert graph.topological_order() == [0, 1, 2, 3]

    @staticmethod
    def generated_and_run():
        """Three apps of one generate call, prepared and simulated, so that
        every cache the kernel reads has been built."""
        from mecsched.baselines import GreedyEftScheduler
        from mecsched.experiment import (
            TopologyConfig,
            build_chains,
            build_devices,
            build_topology,
            prepare_graphs,
        )
        from mecsched.sim_engine import run
        from mecsched.workload import WorkloadSpec, generate

        tc = TopologyConfig()
        topo = build_topology(tc)
        graphs = prepare_graphs(generate(WorkloadSpec(n_apps=3, lam=0.05),
                                         np.random.default_rng(5)), tc, topo)
        run(graphs, topo, build_devices(tc), GreedyEftScheduler(),
            build_chains(tc, 5, "cap", 0), record_rows=False)
        return graphs

    def test_generated_structure_equals_a_rebuilt_graphs(self):
        for g in self.generated_and_run():
            rebuilt = TaskGraph(g.app_id, g.release_time, g.deadline, g.home_ecd,
                                g.tasks, g.edges)  # no carried caches
            assert g.topological_order() == rebuilt.topological_order()
            for t in g.tasks:
                assert g.parents_of(t.task_id) == rebuilt.parents_of(t.task_id)
                assert g.children_of(t.task_id) == rebuilt.children_of(t.task_id)
                assert g.parent_edges(t.task_id) == rebuilt.parent_edges(t.task_id)

    def test_generated_apps_share_one_shape(self):
        """Within a call, across calls, and into the prepared copies: the apps
        share one structure, built from their task ids and edge endpoints."""
        from mecsched.experiment import TopologyConfig, build_topology, prepare_graphs
        from mecsched.workload import WorkloadSpec, generate

        graphs = self.generated_and_run()
        graphs += generate(WorkloadSpec(n_apps=3), np.random.default_rng(6))
        tc = TopologyConfig()
        graphs += prepare_graphs(graphs, tc, build_topology(tc))
        assert len({id(g._shape) for g in graphs}) == 1

    def test_prepared_apps_hold_the_generated_tuples(self):
        from mecsched.experiment import TopologyConfig, build_topology, prepare_graphs
        from mecsched.workload import WorkloadSpec, generate

        generated = generate(WorkloadSpec(n_apps=3), np.random.default_rng(8))
        tc = TopologyConfig()
        prepared = prepare_graphs(generated, tc, build_topology(tc))
        for g, p in zip(generated, prepared, strict=True):
            assert g.lct is None and len(p.lct) == len(g.tasks)
            assert p.tasks is g.tasks and p.edges is g.edges

    def test_loaded_apps_share_the_generated_shape(self, tmp_path):
        from mecsched.workload import WorkloadSpec, generate

        generated = generate(WorkloadSpec(n_apps=3), np.random.default_rng(7))
        path = tmp_path / "apps.wl"
        save_workload_file(generated, path)
        assert all(g._shape is generated[0]._shape for g in load_workload_file(path))

    def test_loaded_apps_check_their_shared_structure_once(self, tmp_path):
        from mecsched.workload import WorkloadSpec, generate

        path = tmp_path / "apps.wl"
        save_workload_file(generate(WorkloadSpec(n_apps=10), np.random.default_rng(9)), path)
        _shape_of.cache_clear()
        assert len(load_workload_file(path)) == 10
        info = _shape_of.cache_info()
        assert (info.misses, info.hits) == (1, 9)

    def test_different_endpoints_never_share_a_shape(self):
        graph = make_chain_graph([100.0, 200.0])  # 0 -> 1 -> 2 -> 3
        assert graph.parents_of(1) == (0,)
        reversed_edges = (Edge(0, 2, 10.0), Edge(2, 1, 10.0), Edge(1, 3, 10.0))
        other = replace(graph, edges=reversed_edges)
        assert other._shape is not graph._shape
        assert other.parents_of(1) == (2,)
        assert other.children_of(0) == (2,)
        assert other.topological_order() == [0, 2, 1, 3]
        assert other.parent_edges(1) == (Edge(2, 1, 10.0),)
        assert not validate(other)


class TestWorkloadFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        graphs = [random_app(rng, n, int(rng.integers(1, 9)), release=float(n))
                  for n in range(1, 5)]
        path = tmp_path / "apps.wl"
        save_workload_file(graphs, path)
        loaded = load_workload_file(path)
        assert loaded == graphs

    def test_pipeline_does_not_mutate_payload(self, topology):
        graph = eight_task_graph()
        out = compute_lct(graph, 6000.0, topology.max_rate, topology.uplink_rate)
        build_priority_list(out)
        assert [(t.task_id, t.workload) for t in out.tasks] == [
            (t.task_id, t.workload) for t in graph.tasks
        ]
        assert out.edges == graph.edges

    def test_negative_data_size_rejected(self, tmp_path):
        path = tmp_path / "bad.wl"
        path.write_text(
            "app 1 release 0.0 deadline 5.0 home 1\n"
            "task 0 0.0\ntask 1 100.0\ntask 2 0.0\n"
            "edge 0 1 10.0\nedge 1 2 -3.0\n"
        )
        with pytest.raises(WorkloadFormatError, match="line 6"):
            load_workload_file(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_workload_rejected(self, tmp_path, value):
        path = tmp_path / "bad.wl"
        path.write_text(
            "app 1 release 0.0 deadline 5.0 home 1\n"
            f"task 0 0.0\ntask 1 {value}\ntask 2 0.0\n"
            "edge 0 1 10.0\nedge 1 2 10.0\n"
        )
        with pytest.raises(WorkloadFormatError, match=f"line 3: workload .* got {value}"):
            load_workload_file(path)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_data_size_rejected(self, tmp_path, value):
        path = tmp_path / "bad.wl"
        path.write_text(
            "app 1 release 0.0 deadline 5.0 home 1\n"
            "task 0 0.0\ntask 1 100.0\ntask 2 0.0\n"
            f"edge 0 1 {value}\nedge 1 2 10.0\n"
        )
        with pytest.raises(WorkloadFormatError, match=f"line 5: data size .* got {value}"):
            load_workload_file(path)

    @pytest.mark.parametrize("field", ["release", "deadline"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_header_rejected(self, tmp_path, field, value):
        times = {"release": "0.0", "deadline": "5.0", field: value}
        path = tmp_path / "bad.wl"
        path.write_text(
            "app 1 release 0.0 deadline 5.0 home 1\n"
            "task 0 0.0\ntask 1 100.0\ntask 2 0.0\n"
            "edge 0 1 10.0\nedge 1 2 10.0\n"
            f"app 2 release {times['release']} deadline {times['deadline']} home 1\n"
            "task 0 0.0\ntask 1 100.0\ntask 2 0.0\n"
            "edge 0 1 10.0\nedge 1 2 10.0\n"
        )
        with pytest.raises(WorkloadFormatError, match=f"^line 7: {field} must be finite, got {value}$"):
            load_workload_file(path)

    @pytest.mark.parametrize("bad_app", [1, 2])
    def test_invalid_app_reported_at_its_header_once(self, tmp_path, bad_app):
        app = ("app {n} release 0.0 deadline {d} home 1\n"
               "task 0 0.0\ntask 1 100.0\ntask 2 0.0\n"
               "edge 0 1 10.0\nedge 1 2 10.0\n")
        path = tmp_path / "bad.wl"
        path.write_text("".join(app.format(n=n, d="0.0" if n == bad_app else "5.0")
                                for n in (1, 2)))
        header = 1 if bad_app == 1 else 7
        with pytest.raises(WorkloadFormatError) as info:
            load_workload_file(path)
        assert str(info.value) == (f"line {header}: app {bad_app} invalid: "
                                   "release_time must be strictly before deadline")

    def test_one_task_app_reported_at_its_header(self, tmp_path):
        path = tmp_path / "bad.wl"
        path.write_text("app 1 release 0.0 deadline 1.0 home 1\ntask 0 0.0\n")
        with pytest.raises(WorkloadFormatError) as info:
            load_workload_file(path)
        assert str(info.value) == "line 1: app 1 invalid: need a source and a sink task"

    def test_negative_release_reported_at_its_header(self, tmp_path):
        path = tmp_path / "bad.wl"
        path.write_text(
            "app 1 release 0.0 deadline 5.0 home 1\n"
            "task 0 0.0\ntask 1 100.0\ntask 2 0.0\n"
            "edge 0 1 10.0\nedge 1 2 10.0\n"
            "app 2 release -5.0 deadline 5.0 home 1\n"
            "task 0 0.0\ntask 1 100.0\ntask 2 0.0\n"
            "edge 0 1 10.0\nedge 1 2 10.0\n"
        )
        with pytest.raises(WorkloadFormatError) as info:
            load_workload_file(path)
        assert str(info.value) == "line 7: app 2 invalid: release_time must be >= 0"

    def test_repeated_app_id_rejected_at_its_header(self, tmp_path):
        app = ("app {n} release 0.0 deadline 5.0 home 1\n"
               "task 0 0.0\ntask 1 100.0\ntask 2 0.0\n"
               "edge 0 1 10.0\nedge 1 2 10.0\n")
        path = tmp_path / "bad.wl"
        path.write_text("".join(app.format(n=n) for n in (1, 2, 1)))
        with pytest.raises(WorkloadFormatError) as info:
            load_workload_file(path)
        assert str(info.value) == "line 13: app 1 repeats the app id of line 1"

    def test_lines_counted_alike_under_any_line_ending(self, tmp_path):
        path = tmp_path / "bad.wl"
        path.write_bytes(b"app 1 release 0.0 deadline 5.0 home 1\r\n"
                         b"task 0 0.0\rtask 1 nan\n")
        with pytest.raises(WorkloadFormatError, match="^line 3: workload"):
            load_workload_file(path)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.wl"
        path.write_text("app 1 release 0.0\n")
        with pytest.raises(WorkloadFormatError, match="line 1"):
            load_workload_file(path)

    def test_empty_file_gives_empty_collection(self, tmp_path):
        path = tmp_path / "empty.wl"
        path.write_text("# nothing here\n")
        assert load_workload_file(path) == []

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "apps.wl"
        path.write_text(
            "# header comment\n\n"
            "app 1 release 0.0 deadline 5.0 home 2  # trailing\n"
            "task 0 0.0\ntask 1 100.0\ntask 2 0.0\n"
            "edge 0 1 10.0\nedge 1 2 10.0\n"
        )
        graphs = load_workload_file(path)
        assert len(graphs) == 1
        assert graphs[0].home_ecd == 2
