"""Non-learning schedulers and a dueling-head Q-network variant.

All of these plug into the same scheduler port as the learned policy and are
subject to the same readiness, FCFS and single-assignment rules enforced by
the kernel.
"""

from __future__ import annotations

import numpy as np

from .dqn_core import DqnLearner, FlatNetwork, TrainConfig
from .mec_model import NetworkTopology
from .scheduler_port import DecisionContext, ReadyItem, SchedulerPort
from .task_graph import TaskGraph

__all__ = [
    "RandomScheduler",
    "GreedyEftScheduler",
    "HeftStyleScheduler",
    "DuelingNetwork",
    "make_dueling_learner",
    "upward_rank",
]


class RandomScheduler(SchedulerPort):
    """Uniform choice over the real devices."""

    def __init__(self, n_devices: int, rng: np.random.Generator):
        if n_devices < 1:
            raise ValueError("need at least one device")
        self.n_devices = n_devices
        self.rng = rng

    def decide(self, ctx: DecisionContext) -> int:
        return int(self.rng.integers(1, self.n_devices + 1))


class GreedyEftScheduler(SchedulerPort):
    """Earliest finish time under current queues and capability levels.

    Ties go to the lowest device id.
    """

    def decide(self, ctx: DecisionContext) -> int:
        best, best_finish = None, None
        for m in ctx.valid_actions:
            finish = ctx.finish_if(m)
            if best_finish is None or finish < best_finish:
                best, best_finish = m, finish
        return int(best)


def upward_rank(graph: TaskGraph, mean_capability: float, mean_rate: float) -> dict[int, float]:
    """Classic list-scheduling priority: expected work below each task.

    Compute times use the fleet's mean capability and edge transfers a single
    mean rate; larger rank means further from the sink.
    """
    ranks: dict[int, float] = {}
    for i in reversed(graph.topological_order()):
        task = graph.task(i)
        exec_est = task.workload / mean_capability
        best_child = 0.0
        for j in graph.children_of(i):
            comm = graph.edge_data(i, j) / mean_rate
            best_child = max(best_child, comm + ranks[j])
        ranks[i] = exec_est + best_child
    return ranks


class HeftStyleScheduler(GreedyEftScheduler):
    """Upward-rank ordering with earliest-finish device selection.

    Ready batches are walked in descending upward rank instead of ascending
    LCT; devices are chosen by actual finish time and work is appended to the
    FCFS queue (no slot insertion, which the single-PE model forbids).
    """

    def __init__(self, topo: NetworkTopology, capability_levels) -> None:
        self.mean_capability = float(np.mean(capability_levels))
        off = ~np.eye(topo.n_devices, dtype=bool)
        rates = list(topo.inter_ecd_rate[off]) + [topo.uplink_rate]
        self.mean_rate = float(np.mean(rates))
        self._ranks: dict[tuple[int, int], float] = {}

    def on_app_arrival(self, graph: TaskGraph) -> None:
        for task_id, rank in upward_rank(graph, self.mean_capability, self.mean_rate).items():
            self._ranks[(graph.app_id, task_id)] = rank

    def ready_sort_key(self, item: ReadyItem):
        return (-self._ranks[(item.app_id, item.task_id)], item.app_id, item.task_id)


class DuelingNetwork(FlatNetwork):
    """Q-network with separate state-value and advantage heads.

    A shared trunk feeds a scalar value head and a per-action advantage head;
    the heads combine as Q = V + A - mean(A), which removes the unidentifiable
    common offset between them. Trunk (its last layer activated too) and
    heads are ``ValueNetwork`` blocks on slices of one parameter vector, and
    the network exposes the same forward/backward protocol as ValueNetwork,
    so the training loop needs no special cases.
    """

    kind = "dueling"  # recorded in checkpoints

    def __init__(self, layer_sizes, hidden_activation: str = "relu",
                 rng: np.random.Generator | None = None, *, params=None):
        sizes = [int(s) for s in layer_sizes]
        if len(sizes) < 3:
            raise ValueError("need input, at least one hidden, and output sizes")
        self.layer_sizes = sizes
        self.hidden_activation = hidden_activation
        width, out = sizes[-2], sizes[-1]
        self.trunk, self.value_head, self.adv_head = self._compose(
            params, rng, hidden_activation,
            (sizes[:-1], True), ([width, 1], False), ([width, out], False),
        )
        self.trunk_weights, self.trunk_biases = self.trunk.weights, self.trunk.biases
        self.value_w, self.value_b = self.value_head.parameters()
        self.adv_w, self.adv_b = self.adv_head.parameters()

    def forward_batch(self, x):
        t_acts = self.trunk.forward_layers(self._check_batch(x))
        v_acts = self.value_head.forward_layers(t_acts[-1])
        a_acts = self.adv_head.forward_layers(t_acts[-1])
        value, adv = v_acts[-1], a_acts[-1]
        q = value + adv - adv.mean(axis=1, keepdims=True)
        return q, (t_acts, v_acts, a_acts)

    def backward_from_q_grad(self, cache, d_q) -> list[np.ndarray]:
        t_acts, v_acts, a_acts = cache
        d_sum = d_q.sum(axis=1, keepdims=True)
        d_feats = self.value_head.backward_layers(v_acts, d_sum, input_grad=True)
        d_feats += self.adv_head.backward_layers(a_acts, d_q - d_sum / self.n_actions,
                                                 input_grad=True)
        self.trunk.backward_layers(t_acts, d_feats)
        return self._grads

    def clone(self) -> "DuelingNetwork":
        return DuelingNetwork(self.layer_sizes, self.hidden_activation,
                              params=self.flat.copy())


def make_dueling_learner(config: TrainConfig, n_actions: int,
                         rng_init: np.random.Generator,
                         rng_explore: np.random.Generator,
                         rng_replay: np.random.Generator) -> DqnLearner:
    """A DqnLearner whose prediction and target nets carry dueling heads,
    drawn from ``rng_init`` after the network the learner draws first."""
    learner = DqnLearner(config, n_actions, rng_init, rng_explore, rng_replay)
    sizes = [config.state_dim, *config.hidden_sizes, n_actions]
    learner.set_network(DuelingNetwork(sizes, config.hidden_activation, rng_init))
    return learner
