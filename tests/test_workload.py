import numpy as np
import pytest
from scipy import stats

from mecsched import workload
from mecsched.task_graph import (
    Edge,
    Task,
    TaskGraph,
    load_workload_file,
    save_workload_file,
    validate,
)
from mecsched.workload import (
    WorkloadSpec,
    critical_path_seconds,
    generate,
    montage25_edges,
)
from conftest import assign_deadline, make_chain_graph, make_graph, real_tasks


class TestShape:
    def test_montage25_node_and_layer_structure(self):
        n, edges = montage25_edges()
        assert n == 25
        children = {}
        parents = {}
        for s, d in edges:
            children.setdefault(s, []).append(d)
            parents.setdefault(d, []).append(s)
        assert len(children[1]) == 8  # head fans out
        assert len(parents[25]) == 7  # tail merges
        for t in range(10, 18):
            assert len(parents[t]) == 3
        for t in range(18, 25):
            assert len(parents[t]) == 2

    def test_generated_graph_has_25_real_tasks(self):
        graphs = generate(WorkloadSpec(n_apps=1), np.random.default_rng(0))
        assert len(real_tasks(graphs[0])) == 25
        assert graphs[0].sink_id == 26


class TestGenerate:
    def test_all_graphs_validate(self):
        for g in generate(WorkloadSpec(n_apps=8), np.random.default_rng(1)):
            assert not validate(g)

    def test_workloads_clamped(self):
        graphs = generate(WorkloadSpec(n_apps=10), np.random.default_rng(2))
        loads = [t.workload for g in graphs for t in real_tasks(g)]
        assert min(loads) >= 100.0
        assert max(loads) <= 500.0
        # the draw range is wider than the clamp, so both rails are hit
        assert any(w == 100.0 for w in loads)
        assert any(w == 500.0 for w in loads)

    def test_edge_data_clamped_to_bc_window(self):
        spec = WorkloadSpec(n_apps=10)
        lo = spec.bc_range[0] * spec.mean_rate
        hi = spec.bc_range[1] * spec.mean_rate
        for g in generate(spec, np.random.default_rng(3)):
            for e in g.edges:
                assert lo - 1e-12 <= e.data_size <= hi + 1e-12

    def test_bc_scaling_example(self):
        # bc ceiling 1e-2 at 520 Mbps mean rate caps edges at 5.2 Mbit
        spec = WorkloadSpec(n_apps=5)
        graphs = generate(spec, np.random.default_rng(4))
        top = max(e.data_size for g in graphs for e in g.edges)
        assert top == pytest.approx(5.2)

    def test_homes_cover_fleet(self):
        graphs = generate(WorkloadSpec(n_apps=40), np.random.default_rng(5))
        homes = {g.home_ecd for g in graphs}
        assert homes == {1, 2, 3, 4}

    def test_release_times_strictly_increasing(self):
        graphs = generate(WorkloadSpec(n_apps=20), np.random.default_rng(6))
        releases = [g.release_time for g in graphs]
        assert all(a < b for a, b in zip(releases, releases[1:]))

    def test_rate_mode_shrinks_gaps(self):
        gap = generate(WorkloadSpec(n_apps=30, lam=9.0, arrival_mode="gap"),
                       np.random.default_rng(7))
        rate = generate(WorkloadSpec(n_apps=30, lam=9.0, arrival_mode="rate"),
                        np.random.default_rng(7))
        assert rate[-1].release_time * 50 < gap[-1].release_time

    def test_same_seed_reproduces(self):
        spec = WorkloadSpec(n_apps=5)
        assert generate(spec, np.random.default_rng(8)) == generate(spec, np.random.default_rng(8))

    def test_round_trip_through_file(self, tmp_path):
        graphs = generate(WorkloadSpec(n_apps=6), np.random.default_rng(9))
        path = tmp_path / "w.wl"
        save_workload_file(graphs, path)
        assert load_workload_file(path) == graphs

    def test_exponential_gaps_ks(self):
        spec = WorkloadSpec(n_apps=10_000, lam=7.0)
        graphs = generate(spec, np.random.default_rng(10))
        releases = np.array([g.release_time for g in graphs])
        gaps = np.diff(np.concatenate([[0.0], releases]))
        result = stats.kstest(gaps, "expon", args=(0.0, 7.0))
        assert result.pvalue > 0.01

    @pytest.mark.parametrize("field", ["n_apps", "n_devices"])
    def test_empty_spec_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            WorkloadSpec(**{field: 0})

    @pytest.mark.parametrize("field, value", [
        ("lam", float("nan")), ("lam", float("inf")), ("lam", -1.0),
        ("mean_rate", 0.0), ("deadline_factor", float("nan")),
        ("deadline_capability", -5000.0),
        ("workload_range", (500.0, 100.0)), ("workload_range", (-1.0, 100.0)),
        ("bc_range", (0.0, float("nan"))), ("bc_range", (0.001,)),
        ("workload_range", (0.0, 100.0)),
    ])
    def test_bad_numbers_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            WorkloadSpec(**{field: value})

    def test_transfers_may_take_no_time(self):
        # unlike a real task's workload, a transfer's base time may be 0
        assert WorkloadSpec(bc_range=(0.0, 0.0)).bc_range == (0.0, 0.0)

    @pytest.mark.parametrize("shape, reason", [
        ((3, [(1, 2), (2, 3), (3, 1)]), "cycle"),
        ((3, [(1, 2), (2, 5)]), "contiguous"),  # an id outside 1..3
        ((2, [(0, 1), (1, 2)]), "contiguous"),  # the source dummy's id
    ])
    def test_bad_shape_refused_before_drawing(self, monkeypatch, shape, reason):
        monkeypatch.setitem(workload._SHAPES, "montage25", lambda: shape)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"^graph shape 'montage25'.* {reason}"):
            generate(WorkloadSpec(), rng)
        assert rng.bit_generator.state == state

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError):
            generate(WorkloadSpec(graph_shape="nope"), np.random.default_rng(0))


class TestDeadline:
    def test_two_task_chain(self):
        graph = make_chain_graph([500.0, 500.0], release=1.0)
        out = assign_deadline(graph, capability=5000.0, factor=6.0)
        assert out.deadline == pytest.approx(1.0 + 6.0 * 0.2)

    def test_single_task(self):
        graph = make_graph({}, {1: 100.0}, release=0.0)
        out = assign_deadline(graph, capability=5000.0, factor=6.0)
        assert out.deadline == pytest.approx(0.12)

    def test_parallel_branches_take_max(self):
        graph = make_graph({}, {1: 500.0, 2: 100.0}, release=0.0)
        assert critical_path_seconds(graph, 5000.0) == pytest.approx(0.1)

    def test_cycle_refused_naming_the_app(self):
        tasks = tuple(Task(i, 100.0) for i in range(5))
        edges = tuple(Edge(s, d, 1.0) for s, d in [(0, 1), (1, 2), (2, 3), (3, 1), (3, 4)])
        with pytest.raises(ValueError, match="^app 7: task graph contains a cycle$"):
            critical_path_seconds(TaskGraph(7, 0.0, 10.0, 1, tasks, edges), 5000.0)

    def test_transfers_ignored(self):
        light = make_chain_graph([500.0, 500.0], edge_data=0.0)
        heavy = make_chain_graph([500.0, 500.0], edge_data=4000.0)
        assert critical_path_seconds(light, 5000.0) == critical_path_seconds(heavy, 5000.0)
