import numpy as np
import pytest

from conftest import full_state, make_graph, with_lct
from mecsched.baselines import (
    GreedyEftScheduler,
    HeftStyleScheduler,
    RandomScheduler,
    upward_rank,
)
from mecsched.experiment import (
    TopologyConfig,
    build_chains,
    build_devices,
    build_topology,
    prepare_graphs,
)
from mecsched.sim_engine import DecisionContext, run
from mecsched.workload import WorkloadSpec, generate


def ctx_with_costs(costs):
    return DecisionContext(
        now=0.0, app_id=1, task_id=1,
        valid_actions=tuple(sorted(costs)),
        finish_if=lambda m: costs[m],
        observe=full_state,
    )


class TestRandomScheduler:
    def test_uniform_over_devices(self):
        sched = RandomScheduler(4, np.random.default_rng(0))
        counts = np.zeros(5)
        n = 1_000_000
        ctx = ctx_with_costs({1: 0, 2: 0, 3: 0, 4: 0})
        for _ in range(n):
            counts[sched.decide(ctx)] += 1
        assert counts[0] == 0
        assert np.abs(counts[1:] / n - 0.25).max() < 0.005

    def test_single_device(self):
        sched = RandomScheduler(1, np.random.default_rng(1))
        assert sched.decide(ctx_with_costs({1: 0.0})) == 1

    def test_zero_devices_rejected(self):
        with pytest.raises(ValueError):
            RandomScheduler(0, np.random.default_rng(2))


class TestGreedyEft:
    def test_tie_goes_to_lowest_id(self):
        sched = GreedyEftScheduler()
        assert sched.decide(ctx_with_costs({1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0})) == 1

    def test_picks_minimizer(self):
        sched = GreedyEftScheduler()
        assert sched.decide(ctx_with_costs({1: 3.0, 2: 0.5, 3: 1.0, 4: 2.0})) == 2

    def test_avoids_busy_device_in_simulation(self, topology):
        # two equal tasks, device 1 busy until t=10 -> both land on device 2
        graph = with_lct(make_graph({}, {1: 100.0, 2: 100.0}), topology)
        tc = TopologyConfig(n_devices=2)
        topo2 = build_topology(tc)
        devices = build_devices(tc)
        devices[0].queue_free_at = 10.0
        trace = run([graph], topo2, devices, GreedyEftScheduler(),
                    build_chains(tc, 0, "c", 0))
        assert set(trace.decisions.values()) == {2}

    def test_prefers_colocation_with_heavy_parent_data(self, topology):
        # child of a task on device 2 with huge edge data -> device 2 wins
        graph = with_lct(make_graph({(1, 2): 4000.0}, {1: 100.0, 2: 100.0}), topology)
        trace = run([graph], topology,
                    build_devices(TopologyConfig()),
                    _ForceThenGreedy({(1, 1): 2}),
                    build_chains(TopologyConfig(), 0, "c", 0))
        assert trace.decisions[(1, 2)] == 2


class _ForceThenGreedy(GreedyEftScheduler):
    """Pins listed decisions, greedy elsewhere; test helper."""

    def __init__(self, forced):
        self.forced = forced

    def decide(self, ctx):
        key = (ctx.app_id, ctx.task_id)
        if key in self.forced:
            return self.forced[key]
        return super().decide(ctx)


class TestHeftStyle:
    def test_upward_rank_decreases_along_paths(self, topology):
        graph = with_lct(make_graph({(1, 2): 10.0, (2, 3): 10.0},
                                    {1: 100.0, 2: 200.0, 3: 300.0}), topology)
        ranks = upward_rank(graph, 5000.0, 520.0)
        assert ranks[1] > ranks[2] > ranks[3] > ranks[4]

    def test_orders_ready_queue_by_descending_rank(self, topology):
        tc = TopologyConfig()
        sched = HeftStyleScheduler(topology, tc.capability_levels)
        graph = with_lct(make_graph({}, {1: 100.0, 2: 400.0}), topology)
        ready = [graph.tasks[1], graph.tasks[2]]
        sched.order_ready(graph, ready)
        assert ready == [graph.tasks[2], graph.tasks[1]]  # heavier task has larger rank -> earlier

    def test_reused_instance_matches_fresh_ones(self):
        # every workload numbers its apps 1..n, so a reused instance meets
        # new graphs under app ids it has already ranked
        tc = TopologyConfig()
        topo = build_topology(tc)
        spec = WorkloadSpec(n_apps=3, lam=9.0, arrival_mode="rate")
        reused = HeftStyleScheduler(topo, tc.capability_levels)
        for seed in range(3):
            graphs = prepare_graphs(generate(spec, np.random.default_rng(seed)), tc, topo)
            reused_trace, fresh_trace = (
                run(graphs, topo, build_devices(tc), sched, build_chains(tc, seed, "c", 0))
                for sched in (reused, HeftStyleScheduler(topo, tc.capability_levels)))
            assert reused_trace.assignments == fresh_trace.assignments

    def test_runs_end_to_end(self, topology):
        tc = TopologyConfig()
        rng = np.random.default_rng(3)
        from conftest import random_app
        graphs = [with_lct(random_app(rng, n, 6, release=0.1 * n), topology)
                  for n in (1, 2)]
        sched = HeftStyleScheduler(topology, tc.capability_levels)
        trace = run(graphs, topology, build_devices(tc), sched,
                    build_chains(tc, 4, "c", 0))
        assert len(trace.app_makespans) == 2
