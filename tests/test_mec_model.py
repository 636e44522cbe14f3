import math
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_graph, same_float
from oracles import ScriptedScheduler
from mecsched.mec_model import (
    CapabilityChain,
    EdgeDevice,
    NetworkTopology,
    execution_time,
    ordered_sum,
    transfer_time,
    transition_capability,
)
from mecsched.task_graph import Edge, Task

MATRIX = (
    (0.5, 0.25, 0.125, 0.0625, 0.0625),
    (0.0625, 0.5, 0.25, 0.125, 0.0625),
    (0.0625, 0.0625, 0.5, 0.25, 0.125),
    (0.125, 0.0625, 0.0625, 0.5, 0.25),
    (0.25, 0.125, 0.0625, 0.0625, 0.5),
)


def mesh_topology(n=4, inter=440.0, uplink=1000.0):
    rates = np.full((n, n), inter)
    np.fill_diagonal(rates, 0.0)
    return NetworkTopology(rates, uplink)


def device(mips=5000.0, ecd_id=1, free_at=0.0):
    return EdgeDevice(ecd_id=ecd_id, capability_levels=(mips,), queue_free_at=free_at)


class TestExecutionTime:
    def test_direct_division(self):
        assert execution_time(Task(1, 500.0), device(5000.0)) == pytest.approx(0.1)

    def test_dummy_is_free(self):
        assert execution_time(Task(0, 0.0), None) == 0.0

    def test_hand_value(self):
        assert execution_time(Task(1, 100.0), device(4000.0)) == pytest.approx(0.025)

    def test_uses_current_level(self):
        dev = EdgeDevice(1, (6000.0, 4000.0), current_level=1)
        assert execution_time(Task(1, 400.0), dev) == pytest.approx(0.1)


class TestTransferTime:
    def test_same_device_is_free(self):
        topo = mesh_topology()
        assert transfer_time(Edge(1, 2, 999.0), 2, 2, topo, home_ecd=1) == 0.0

    def test_upload_to_home(self):
        topo = mesh_topology()
        t = transfer_time(Edge(0, 1, 100.0), 0, 1, topo, home_ecd=1)
        assert t == pytest.approx(0.1)

    def test_upload_relayed_through_home(self):
        topo = mesh_topology()
        t = transfer_time(Edge(0, 1, 440.0), 0, 2, topo, home_ecd=1)
        assert t == pytest.approx(0.44 + 1.0)

    def test_inter_device(self):
        topo = mesh_topology()
        t = transfer_time(Edge(1, 2, 44.0), 1, 3, topo, home_ecd=1)
        assert t == pytest.approx(0.1)

    def test_download_relayed_through_home(self):
        topo = mesh_topology()
        t = transfer_time(Edge(5, 7, 440.0), 3, 0, topo, home_ecd=2)
        assert t == pytest.approx(0.44 + 1.0)

    def test_download_from_home(self):
        topo = mesh_topology()
        t = transfer_time(Edge(5, 7, 200.0), 2, 0, topo, home_ecd=2)
        assert t == pytest.approx(0.2)

    def test_missing_pair_raises(self):
        topo = mesh_topology(n=2)
        with pytest.raises(KeyError):
            transfer_time(Edge(1, 2, 10.0), 1, 3, topo, home_ecd=1)

    def test_asymmetric_matrix_direction(self):
        rates = np.array([[0.0, 100.0], [400.0, 0.0]])
        topo = NetworkTopology(rates, 1000.0)
        fwd = transfer_time(Edge(1, 2, 100.0), 1, 2, topo, home_ecd=1)
        back = transfer_time(Edge(2, 3, 100.0), 2, 1, topo, home_ecd=1)
        assert fwd == pytest.approx(1.0)
        assert back == pytest.approx(0.25)


def run_one_app(graph, topology, decisions, free_at=(0.0,), mips=5000.0):
    """Simulate one app with fixed assignments on devices free from ``free_at``."""
    from mecsched.sim_engine import run
    from mecsched.task_graph import compute_lct

    graph = compute_lct(graph, mips, topology.max_rate, topology.uplink_rate)
    devices = [device(mips, m + 1, free) for m, free in enumerate(free_at)]
    chains = [CapabilityChain(np.eye(1), np.random.default_rng(0)) for _ in devices]
    return run([graph], topology, devices, ScriptedScheduler(decisions), chains)


class TestCompletionTime:
    """The completion rule, max(device free, last input arrival, now) +
    execution, as the event kernel applies it."""

    def test_queue_bound(self, topology):
        # input arrives at 1.5 (0.5 s upload), the device frees at 2.0
        graph = make_graph({}, {1: 500.0}, release=1.0, dummy_data=500.0)
        a = run_one_app(graph, topology, {(1, 1): 1}, free_at=(2.0,)).assignments[(1, 1)]
        assert a.start == pytest.approx(2.0)
        assert a.finish == pytest.approx(2.1)

    def test_idle_device_data_ready(self, topology):
        graph = make_graph({}, {1: 500.0}, release=3.0, dummy_data=0.0)
        a = run_one_app(graph, topology, {(1, 1): 1}, free_at=(3.0,)).assignments[(1, 1)]
        assert a.start == 3.0
        assert a.finish == pytest.approx(3.1)

    def test_arrival_bound(self, topology):
        # task 3 is placed when both parents have finished, at 0.1 s, but
        # task 2's output needs 1100 Mb / 440 Mbps = 2.5 s more to reach it
        graph = make_graph({(1, 3): 0.0, (2, 3): 1100.0}, {1: 500.0, 2: 500.0, 3: 500.0},
                           deadline=20.0, dummy_data=0.0)
        trace = run_one_app(graph, topology, {(1, 1): 1, (1, 2): 2, (1, 3): 1},
                            free_at=(0.0, 0.0))
        assert trace.assignments[(1, 2)].finish == pytest.approx(0.1)
        assert trace.assignments[(1, 3)].start == pytest.approx(2.6)


class TestMakespan:
    def test_subtracts_release(self, topology):
        graph = make_graph({}, {1: 500.0}, release=2.4, deadline=20.0, dummy_data=0.0)
        trace = run_one_app(graph, topology, {(1, 1): 1})
        assert trace.assignments[(1, 2)].finish == pytest.approx(2.5)
        assert trace.app_makespans[1] == trace.assignments[(1, 2)].finish - 2.4

    def test_single_task_chain_of_transfers(self, topology):
        # upload 0.1 s + exec 0.1 s + download 0.1 s via the home device
        from mecsched.experiment import build_chains, build_devices, TopologyConfig
        from mecsched.sim_engine import run
        from mecsched.task_graph import compute_lct

        tc = TopologyConfig(capability_levels=(5000.0,), transition_matrix=((1.0,),))
        graph = make_graph({}, {1: 500.0}, deadline=10.0, home=1, dummy_data=100.0)
        graph = compute_lct(graph, 5000.0, topology.max_rate, topology.uplink_rate)
        trace = run([graph], topology, build_devices(tc), ScriptedScheduler({(1, 1): 1}),
                    build_chains(tc, 0, "cap", 0))
        assert trace.app_makespans[1] == pytest.approx(0.3)


class TestCapabilityChain:
    def test_row_stochastic_required(self):
        bad = [[0.5, 0.4], [0.5, 0.5]]
        with pytest.raises(ValueError):
            CapabilityChain(bad, np.random.default_rng(0))

    @pytest.mark.parametrize("bad, message", [
        ([[np.nan, 1.0], [0.5, 0.5]], "finite and non-negative"),
        ([[np.inf, 1.0], [0.5, 0.5]], "finite and non-negative"),
        ([[1.5, -0.5], [0.5, 0.5]], "finite and non-negative"),
        ([[0.5, 0.5], [1.0]], "square"),
        ([[1.0, 0.0]], "square"),
        ([], "non-empty"),
    ], ids=["nan", "inf", "negative", "ragged", "not-square", "empty"])
    def test_bad_matrix_refused(self, bad, message):
        # a NaN entry used to pass the row-sum check and draw level 2 of 2
        with pytest.raises(ValueError, match=message):
            CapabilityChain(bad, np.random.default_rng(0))

    def test_identity_matrix_never_moves(self):
        chain = CapabilityChain(np.eye(5), np.random.default_rng(0))
        dev = EdgeDevice(1, (6000.0, 5500.0, 5000.0, 4500.0, 4000.0), current_level=2)
        for _ in range(50):
            assert transition_capability(dev, chain) == 2

    def test_level_stays_in_range(self):
        chain = CapabilityChain(MATRIX, np.random.default_rng(1))
        dev = EdgeDevice(1, (6000.0, 5500.0, 5000.0, 4500.0, 4000.0))
        for _ in range(1000):
            level = transition_capability(dev, chain)
            assert 0 <= level < 5

    def test_empirical_row_frequencies(self):
        # row 2 sampled 1e5 times stays within +-0.01 of the matrix row
        chain = CapabilityChain(MATRIX, np.random.default_rng(2))
        counts = np.zeros(5)
        for _ in range(100_000):
            counts[chain.sample_next(2)] += 1
        freq = counts / counts.sum()
        assert np.abs(freq - np.array(MATRIX[2])).max() < 0.01

    def test_transition_matrix_read_only(self):
        rows = np.array(MATRIX)
        chain = CapabilityChain(rows, np.random.default_rng(3))
        with pytest.raises(ValueError, match="read-only"):
            chain.transition_matrix[0, 0] = 1.0
        rows[0, 0] = 0.0  # the caller's array is copied, not frozen
        assert chain.transition_matrix[0, 0] == 0.5


class TestEdgeDevice:
    @pytest.mark.parametrize("levels", [(), (6000.0, np.nan), (np.inf,), (6000.0, -1.0),
                                        (0.0,)])
    def test_levels_must_be_positive_and_finite(self, levels):
        with pytest.raises(ValueError, match="capability levels must be positive and finite"):
            EdgeDevice(1, levels)


class TestDeviceQueue:
    def test_enqueue_and_pop_keep_the_total(self):
        dev = device()
        dev.enqueue(1, 3, 400.0)
        dev.enqueue(2, 1, 0.1)
        dev.enqueue(1, 4, 0.2)
        assert dev.queue == ((1, 3, 400.0), (2, 1, 0.1), (1, 4, 0.2))
        assert dev.queued_mi == 400.0 + 0.1 + 0.2
        dev.pop_head(1, 3)
        assert dev.queue == ((2, 1, 0.1), (1, 4, 0.2))
        assert dev.queued_mi == 0.1 + 0.2
        dev.pop_head(2, 1)
        dev.pop_head(1, 4)
        assert dev.queue == ()
        assert dev.queued_mi == 0.0

    def test_completion_out_of_fcfs_order_rejected(self):
        dev = device()
        with pytest.raises(RuntimeError, match="FCFS"):
            dev.pop_head(1, 1)
        dev.enqueue(1, 1, 100.0)
        dev.enqueue(1, 2, 100.0)
        with pytest.raises(RuntimeError, match="FCFS"):
            dev.pop_head(1, 2)

    def test_queue_read_only(self):
        dev = device()
        dev.enqueue(1, 1, 100.0)
        with pytest.raises(AttributeError):
            dev.queue.append((1, 2, 50.0))
        with pytest.raises(AttributeError):
            dev.queue = []
        assert dev.queued_mi == 100.0


class TestTopologyRates:
    @pytest.mark.parametrize("inter, uplink, message", [
        (np.nan, 1000.0, "inter-device rates must be positive and finite"),
        (np.inf, 1000.0, "inter-device rates must be positive and finite"),
        (0.0, 1000.0, "inter-device rates must be positive and finite"),
        (440.0, np.nan, "uplink rate must be positive and finite"),
        (440.0, np.inf, "uplink rate must be positive and finite"),
        (440.0, 0.0, "uplink rate must be positive and finite"),
    ])
    def test_rates_must_be_positive_and_finite(self, inter, uplink, message):
        with pytest.raises(ValueError, match=message):
            mesh_topology(3, inter, uplink)

    def test_rate_matrix_read_only(self):
        rates = np.full((3, 3), 440.0)
        topo = NetworkTopology(rates, 1000.0)
        with pytest.raises(ValueError, match="read-only"):
            topo.inter_ecd_rate[0, 1] = 1.0
        rates[0, 1] = 1.0  # the caller's array is copied, not frozen
        assert topo.inter_ecd_rate[0, 1] == 440.0


def test_ordered_sum_adds_left_to_right_without_compensation():
    # builtin sum gives 1.0 here from Python 3.12 on
    assert ordered_sum([1e16, 1.0, -1e16]) == 0.0
    assert ordered_sum([]) == 0.0
    assert type(ordered_sum(np.array([1.0, 2.0]))) is float


SUM_OPERANDS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                     0.1, 0.2, 0.3, 1.0, 1e16, -1e16]),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(SUM_OPERANDS, max_size=12),
       st.lists(st.integers(-2**60, 2**60), max_size=12))
def test_ordered_sum_equals_reduce_add_bit_for_bit(floats, ints):
    mixed = [v for pair in zip(floats, ints) for v in pair]
    for values in (floats, ints, mixed, np.array(floats, dtype=float),
                   np.array(ints, dtype=np.int64)):
        with np.errstate(all="ignore"):  # inf - inf on numpy scalars warns
            want = float(reduce(add, values, 0.0))
            got = ordered_sum(values)
        assert type(got) is float
        assert same_float(got, want)
    assert same_float(ordered_sum(v for v in floats), float(reduce(add, floats, 0.0)))
