"""Non-learning schedulers and a dueling-head Q-network variant.

All of these plug into the same scheduler port as the learned policy and are
subject to the same readiness, FCFS and single-assignment rules enforced by
the kernel.
"""

from __future__ import annotations

import numpy as np

from .dqn_core import DqnLearner, TrainConfig, ValueNetwork, glorot_uniform, stack_backward, stack_forward
from .mec_model import NetworkTopology
from .sim_engine import DecisionContext, ReadyItem, SchedulerPort
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


class DuelingNetwork:
    """Q-network with separate state-value and advantage heads.

    A shared trunk feeds a scalar value head and a per-action advantage head;
    the heads combine as Q = V + A - mean(A), which removes the unidentifiable
    common offset between them. Exposes the same forward/backward protocol as
    ValueNetwork so the training loop needs no special cases.
    """

    kind = "dueling"  # recorded in checkpoints

    def __init__(self, layer_sizes, hidden_activation: str = "relu",
                 rng: np.random.Generator | None = None):
        sizes = [int(s) for s in layer_sizes]
        if len(sizes) < 3:
            raise ValueError("need input, at least one hidden, and output sizes")
        if rng is None:
            rng = np.random.default_rng(0)
        self.layer_sizes = sizes
        self.hidden_activation = hidden_activation
        trunk = sizes[:-1]
        self.trunk_weights = [
            glorot_uniform(trunk[i], trunk[i + 1], rng) for i in range(len(trunk) - 1)
        ]
        self.trunk_biases = [np.zeros(trunk[i + 1]) for i in range(len(trunk) - 1)]
        self.trunk_activations = [hidden_activation] * len(self.trunk_weights)
        width, out = trunk[-1], sizes[-1]
        self.value_w = glorot_uniform(width, 1, rng)
        self.value_b = np.zeros(1)
        self.adv_w = glorot_uniform(width, out, rng)
        self.adv_b = np.zeros(out)

    @property
    def n_actions(self) -> int:
        return self.layer_sizes[-1]

    def parameters(self) -> list[np.ndarray]:
        params: list[np.ndarray] = []
        for w, b in zip(self.trunk_weights, self.trunk_biases):
            params.append(w)
            params.append(b)
        params.extend([self.value_w, self.value_b, self.adv_w, self.adv_b])
        return params

    def forward_batch(self, x):
        x = np.asarray(x, dtype=float)
        feats, trunk_cache = stack_forward(
            x, self.trunk_weights, self.trunk_biases, self.trunk_activations
        )
        value = feats @ self.value_w + self.value_b  # (B, 1)
        adv = feats @ self.adv_w + self.adv_b  # (B, out)
        q = value + adv - adv.mean(axis=1, keepdims=True)
        return q, (trunk_cache, feats, value, adv)

    def forward(self, x) -> np.ndarray:
        q, _ = self.forward_batch(np.asarray(x, dtype=float)[None, :])
        return q[0]

    def backward_from_q_grad(self, cache, d_q) -> list[np.ndarray]:
        trunk_cache, feats, _, _ = cache
        out = self.n_actions
        d_value = d_q.sum(axis=1, keepdims=True)
        d_adv = d_q - d_q.sum(axis=1, keepdims=True) / out
        g_value_w = feats.T @ d_value
        g_value_b = d_value.sum(axis=0)
        g_adv_w = feats.T @ d_adv
        g_adv_b = d_adv.sum(axis=0)
        d_feats = d_value @ self.value_w.T + d_adv @ self.adv_w.T
        gw, gb, _ = stack_backward(
            d_feats, trunk_cache, self.trunk_weights, self.trunk_activations
        )
        grads: list[np.ndarray] = []
        for a, b in zip(gw, gb):
            grads.append(a)
            grads.append(b)
        grads.extend([g_value_w, g_value_b, g_adv_w, g_adv_b])
        return grads

    def clone(self) -> "DuelingNetwork":
        other = DuelingNetwork.__new__(DuelingNetwork)
        other.layer_sizes = list(self.layer_sizes)
        other.hidden_activation = self.hidden_activation
        other.trunk_weights = [w.copy() for w in self.trunk_weights]
        other.trunk_biases = [b.copy() for b in self.trunk_biases]
        other.trunk_activations = list(self.trunk_activations)
        other.value_w = self.value_w.copy()
        other.value_b = self.value_b.copy()
        other.adv_w = self.adv_w.copy()
        other.adv_b = self.adv_b.copy()
        return other


def make_dueling_learner(config: TrainConfig, n_actions: int,
                         rng_init: np.random.Generator,
                         rng_explore: np.random.Generator,
                         rng_replay: np.random.Generator) -> DqnLearner:
    """A DqnLearner whose prediction and target nets carry dueling heads."""
    learner = DqnLearner(config, n_actions, rng_init, rng_explore, rng_replay)
    sizes = [config.state_dim, *config.hidden_sizes, n_actions]
    learner.net = DuelingNetwork(sizes, config.hidden_activation, rng_init)
    learner.target_net = learner.net.clone()
    learner.opt = type(learner.opt)(
        learner.net.parameters(),
        learning_rate=config.learning_rate,
        beta1=config.adam_beta1,
        beta2=config.adam_beta2,
        eps=config.adam_eps,
    )
    return learner
