"""From-scratch deep Q-learning: network, backprop, Adam, replay, targets.

Everything is plain float64 numpy so that analytic gradients can be checked
against finite differences exactly, and so that a fixed seed reproduces a
training run bit for bit. The value network is a fully connected stack with
rectified hidden layers and a linear output head; a squared Bellman error is
minimized with Adam, targets come from a periodically synced copy of the
network, and exploration is epsilon-greedy over the unmasked actions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np

from .mdp_agent import MdpTransition, device_feature_index

__all__ = [
    "ValueNetwork",
    "DeviceScoringNetwork",
    "ReplayBuffer",
    "AdamState",
    "TrainConfig",
    "DqnLearner",
    "DivergenceError",
    "select_action",
    "compute_targets",
    "train_step",
    "loss_and_grads",
    "sync_target",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_VERSION = 2  # 2: per-task and per-device state components

# DeviceScoringNetwork's shared advantage stack: hidden width, output scale
ADVANTAGE_HIDDEN = 32
ADVANTAGE_SCALE = 0.1


class DivergenceError(RuntimeError):
    """Raised when training produces a non-finite loss."""


# ---------------------------------------------------------------------------
# Fully connected stack
# ---------------------------------------------------------------------------


def _act_forward(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "linear":
        return z
    raise ValueError(f"unknown activation {kind!r}")


def _act_grad(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return (z > 0.0).astype(float)
    if kind == "linear":
        return np.ones_like(z)
    raise ValueError(f"unknown activation {kind!r}")


def stack_forward(x, weights, biases, activations):
    """Affine+activation cascade; returns output and the backprop cache."""
    a = np.asarray(x, dtype=float)
    pre: list[np.ndarray] = []
    post: list[np.ndarray] = [a]
    for w, b, act in zip(weights, biases, activations):
        z = a @ w + b
        a = _act_forward(z, act)
        pre.append(z)
        post.append(a)
    return a, (pre, post)


def stack_backward(d_out, cache, weights, activations):
    """Gradients of a scalar loss given d(loss)/d(stack output)."""
    pre, post = cache
    grads_w: list[np.ndarray] = [None] * len(weights)  # type: ignore[list-item]
    grads_b: list[np.ndarray] = [None] * len(weights)  # type: ignore[list-item]
    delta = np.asarray(d_out, dtype=float)
    for layer in range(len(weights) - 1, -1, -1):
        delta = delta * _act_grad(pre[layer], activations[layer])
        grads_w[layer] = post[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = delta @ weights[layer].T
    return grads_w, grads_b, delta


def glorot_uniform(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class ValueNetwork:
    """Q-value approximator mapping a state vector to one value per action."""

    kind = "plain"  # recorded in checkpoints

    def __init__(self, layer_sizes, hidden_activation: str = "relu",
                 rng: np.random.Generator | None = None):
        sizes = [int(s) for s in layer_sizes]
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.layer_sizes = sizes
        self.activations = [hidden_activation] * (len(sizes) - 2) + ["linear"]
        self.hidden_activation = hidden_activation
        if rng is None:
            rng = np.random.default_rng(0)
        self.weights = [
            glorot_uniform(sizes[i], sizes[i + 1], rng) for i in range(len(sizes) - 1)
        ]
        self.biases = [np.zeros(sizes[i + 1]) for i in range(len(sizes) - 1)]

    @property
    def n_actions(self) -> int:
        return self.layer_sizes[-1]

    def parameters(self) -> list[np.ndarray]:
        params: list[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            params.append(w)
            params.append(b)
        return params

    def forward(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.shape[0] != self.layer_sizes[0]:
            raise ValueError(
                f"expected input of length {self.layer_sizes[0]}, got shape {x.shape}"
            )
        q, _ = stack_forward(x[None, :], self.weights, self.biases, self.activations)
        return q[0]

    def forward_batch(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.layer_sizes[0]:
            raise ValueError(f"expected shape (batch, {self.layer_sizes[0]})")
        return stack_forward(x, self.weights, self.biases, self.activations)

    def backward_from_q_grad(self, cache, d_q) -> list[np.ndarray]:
        grads_w, grads_b, _ = stack_backward(d_q, cache, self.weights, self.activations)
        grads: list[np.ndarray] = []
        for gw, gb in zip(grads_w, grads_b):
            grads.append(gw)
            grads.append(gb)
        return grads

    def clone(self) -> "ValueNetwork":
        other = ValueNetwork.__new__(ValueNetwork)
        other.layer_sizes = list(self.layer_sizes)
        other.activations = list(self.activations)
        other.hidden_activation = self.hidden_activation
        other.weights = [w.copy() for w in self.weights]
        other.biases = [b.copy() for b in self.biases]
        return other


class DeviceScoringNetwork:
    """Q(s, a) = V(s) + A(z_a) with one advantage stack shared by all devices.

    ``V`` is a fully connected stack over the whole state; ``A`` scores the
    feature row ``z_a`` that ``feature_index[a - 1]`` picks out of the state
    for device ``a``, with the same weights for every device. Action 0 (run
    locally) carries ``V`` alone. Because every device is scored by one
    function, the network compares devices by their features, not by
    per-action weights that each see only the transitions of their action.

    ``A`` has one hidden layer of ``ADVANTAGE_HIDDEN`` units, and its output
    is multiplied by ``ADVANTAGE_SCALE``. Adam moves each
    parameter by about the learning rate per step whatever the gradient's
    size, so a head's output jitters by an amount set by the learning rate,
    not by the values it fits; the scale brings the advantage head's jitter
    down to the size of the gaps between devices, far below ``V``'s.
    """

    kind = "device-scoring"  # recorded in checkpoints

    def __init__(self, layer_sizes, feature_index, hidden_activation: str = "relu",
                 rng: np.random.Generator | None = None):
        sizes = [int(s) for s in layer_sizes]
        index = np.asarray(feature_index, dtype=np.int64)
        if index.ndim != 2 or sizes[-1] != index.shape[0] + 1:
            raise ValueError("need one feature row per device and actions = devices + 1")
        if rng is None:
            rng = np.random.default_rng(0)
        self.layer_sizes = sizes
        self.feature_index = index
        self.value = ValueNetwork(sizes[:-1] + [1], hidden_activation, rng)
        self.advantage = ValueNetwork([index.shape[1], ADVANTAGE_HIDDEN, 1],
                                      hidden_activation, rng)

    @property
    def n_actions(self) -> int:
        return self.layer_sizes[-1]

    def parameters(self) -> list[np.ndarray]:
        return self.value.parameters() + self.advantage.parameters()

    def forward_batch(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.layer_sizes[0]:
            raise ValueError(f"expected shape (batch, {self.layer_sizes[0]})")
        v, v_cache = self.value.forward_batch(x)
        rows = x[:, self.feature_index].reshape(-1, self.feature_index.shape[1])
        a, a_cache = self.advantage.forward_batch(rows)
        a = ADVANTAGE_SCALE * a.reshape(x.shape[0], -1)
        q = np.concatenate([v, v + a], axis=1)
        return q, (v_cache, a_cache)

    def forward(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise ValueError(f"expected a single state, got shape {x.shape}")
        q, _ = self.forward_batch(x[None, :])
        return q[0]

    def backward_from_q_grad(self, cache, d_q) -> list[np.ndarray]:
        v_cache, a_cache = cache
        d_v = d_q.sum(axis=1, keepdims=True)
        d_a = ADVANTAGE_SCALE * d_q[:, 1:].reshape(-1, 1)
        return (self.value.backward_from_q_grad(v_cache, d_v)
                + self.advantage.backward_from_q_grad(a_cache, d_a))

    def clone(self) -> "DeviceScoringNetwork":
        other = DeviceScoringNetwork.__new__(DeviceScoringNetwork)
        other.layer_sizes = list(self.layer_sizes)
        other.feature_index = self.feature_index
        other.value = self.value.clone()
        other.advantage = self.advantage.clone()
        return other


def sync_target(net, target_net) -> None:
    """Copy the prediction parameters into the target network, bitwise."""
    src, dst = net.parameters(), target_net.parameters()
    if len(src) != len(dst) or any(a.shape != b.shape for a, b in zip(src, dst)):
        raise ValueError("network architectures differ")
    for a, b in zip(src, dst):
        np.copyto(b, a)


# ---------------------------------------------------------------------------
# Replay buffer
# ---------------------------------------------------------------------------


class ReplayBuffer:
    """Ring buffer of transitions with uniform without-replacement batches."""

    def __init__(self, capacity: int, state_dim: int, rng: np.random.Generator):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self.rng = rng
        self._states = np.zeros((capacity, state_dim))
        self._actions = np.zeros(capacity, dtype=np.int64)
        self._rewards = np.zeros(capacity)
        self._next_states = np.zeros((capacity, state_dim))
        self._cursor = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def add(self, transition: MdpTransition) -> None:
        i = self._cursor
        self._states[i] = transition.state
        self._actions[i] = transition.action
        self._rewards[i] = transition.reward
        self._next_states[i] = transition.next_state
        self._cursor = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample_indices(self, batch: int) -> np.ndarray:
        if batch > self._size:
            raise ValueError("not enough stored transitions")
        return self.rng.choice(self._size, size=batch, replace=False)

    def sample(self, batch: int):
        idx = self.sample_indices(batch)
        return (
            self._states[idx],
            self._actions[idx],
            self._rewards[idx],
            self._next_states[idx],
        )


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


class AdamState:
    """Adaptive-moment estimates for one parameter list.

    The moments of all parameters live in two flat vectors, in the order of
    the parameter list, so one step is a handful of vector operations.
    """

    def __init__(self, params, learning_rate: float = 0.0006,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self._bounds = np.cumsum([0] + [p.size for p in params])
        self.m = np.zeros(self._bounds[-1])
        self.v = np.zeros(self._bounds[-1])

    def apply(self, params, grads) -> None:
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.step_count
        bias2 = 1.0 - b2 ** self.step_count
        g = np.concatenate([gi.ravel() for gi in grads])
        m, v = self.m, self.v
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        step = self.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
        for p, lo, hi in zip(params, self._bounds[:-1], self._bounds[1:]):
            p -= step[lo:hi].reshape(p.shape)


# ---------------------------------------------------------------------------
# Q-learning pieces
# ---------------------------------------------------------------------------


def select_action(q, mask, epsilon: float, rng: np.random.Generator | None) -> int:
    """Epsilon-greedy over unmasked actions; greedy ties go to lowest index."""
    q = np.asarray(q, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    valid = np.flatnonzero(mask)
    if valid.size == 0:
        raise ValueError("all actions are masked")
    if epsilon > 0.0:
        if rng is None:
            raise ValueError("epsilon > 0 requires a random stream")
        if rng.random() < epsilon:
            return int(valid[rng.integers(valid.size)])
    masked_q = np.where(mask, q, -np.inf)
    return int(np.argmax(masked_q))


def compute_targets(batch, target_net, gamma: float, mask) -> np.ndarray:
    """Bellman targets r + gamma * max over unmasked actions of target Q."""
    _, _, rewards, next_states = batch
    q_next, _ = target_net.forward_batch(next_states)
    masked = np.where(np.asarray(mask, dtype=bool)[None, :], q_next, -np.inf)
    return rewards + gamma * masked.max(axis=1)


def loss_and_grads(net, states, actions, targets):
    """Mean squared Bellman error and its gradients w.r.t. net parameters.

    Only the chosen-action outputs receive gradient; the rest of the Q row
    is untouched by the squared-error objective.
    """
    q, cache = net.forward_batch(states)
    batch = q.shape[0]
    rows = np.arange(batch)
    picked = q[rows, actions]
    diff = picked - targets
    loss = float(np.mean(diff * diff))
    d_q = np.zeros_like(q)
    d_q[rows, actions] = 2.0 * diff / batch
    return loss, net.backward_from_q_grad(cache, d_q)


def train_step(net, target_net, batch, opt: AdamState, gamma: float, mask) -> float:
    """One SGD step on a sampled batch; returns the pre-update loss."""
    states, actions, rewards, next_states = batch
    targets = compute_targets(batch, target_net, gamma, mask)
    loss, grads = loss_and_grads(net, states, actions, targets)
    if not np.isfinite(loss):
        raise DivergenceError(
            f"non-finite loss {loss!r} after {opt.step_count} optimizer steps"
        )
    opt.apply(net.parameters(), grads)
    return loss


# ---------------------------------------------------------------------------
# Learner
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    gamma: float = 0.95
    batch: int = 64
    learning_rate: float = 0.0006
    buffer_capacity: int = 200000
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_fraction: float = 0.6  # of planned_steps
    target_sync_steps: int = 500
    episodes: int = 800
    planned_steps: int = 0  # total decision steps expected; 0 = fully decayed
    state_dim: int = 5
    # devices scored by one shared advantage stack (DeviceScoringNetwork);
    # 0 gives the plain network with one output per action
    shared_devices: int = 0
    hidden_sizes: tuple[int, ...] = (128, 64, 32, 16)
    hidden_activation: str = "relu"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")


class DqnLearner:
    """Prediction/target network pair plus replay, exploring and training.

    ``act`` answers epsilon-greedy action queries (pure greedy when asked);
    ``observe`` stores a finished transition and runs one training step once
    the pool holds a full batch. The target net re-syncs every
    ``target_sync_steps`` decision steps.
    """

    def __init__(self, config: TrainConfig, n_actions: int,
                 rng_init: np.random.Generator,
                 rng_explore: np.random.Generator,
                 rng_replay: np.random.Generator):
        self.config = config
        self.n_actions = int(n_actions)
        sizes = [config.state_dim, *config.hidden_sizes, self.n_actions]
        if config.shared_devices:
            self.net = DeviceScoringNetwork(
                sizes, device_feature_index(config.shared_devices),
                config.hidden_activation, rng_init)
        else:
            self.net = ValueNetwork(sizes, config.hidden_activation, rng_init)
        self.target_net = self.net.clone()
        self.buffer = ReplayBuffer(config.buffer_capacity, config.state_dim, rng_replay)
        self.opt = AdamState(
            self.net.parameters(),
            learning_rate=config.learning_rate,
            beta1=config.adam_beta1,
            beta2=config.adam_beta2,
            eps=config.adam_eps,
        )
        self.rng_explore = rng_explore
        self.decision_steps = 0
        self.last_loss: float | None = None

    def epsilon(self) -> float:
        cfg = self.config
        horizon = cfg.epsilon_decay_fraction * cfg.planned_steps
        if horizon <= 0:
            return cfg.epsilon_end
        frac = min(1.0, self.decision_steps / horizon)
        return cfg.epsilon_start + frac * (cfg.epsilon_end - cfg.epsilon_start)

    def act(self, state: np.ndarray, mask, greedy: bool = False) -> int:
        q = self.net.forward(state)
        if greedy:
            return select_action(q, mask, 0.0, None)
        eps = self.epsilon()
        action = select_action(q, mask, eps, self.rng_explore)
        self.decision_steps += 1
        if self.decision_steps % self.config.target_sync_steps == 0:
            sync_target(self.net, self.target_net)
        return action

    def observe(self, transition: MdpTransition) -> None:
        self.buffer.add(transition)
        if len(self.buffer) >= self.config.batch:
            batch = self.buffer.sample(self.config.batch)
            mask = np.ones(self.n_actions, dtype=bool)
            mask[0] = False
            self.last_loss = train_step(
                self.net, self.target_net, batch, self.opt, self.config.gamma, mask
            )


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def _rng_state_json(rng: np.random.Generator) -> str:
    return json.dumps(rng.bit_generator.state)


def _rng_from_json(text: str) -> np.random.Generator:
    state = json.loads(text)
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = state
    return rng


def save_checkpoint(learner: DqnLearner, path) -> None:
    arrays: dict[str, np.ndarray] = {}
    for i, p in enumerate(learner.net.parameters()):
        arrays[f"net_{i}"] = p
    for i, p in enumerate(learner.target_net.parameters()):
        arrays[f"target_{i}"] = p
    arrays["adam_m"] = learner.opt.m
    arrays["adam_v"] = learner.opt.v
    meta = {
        "version": CHECKPOINT_VERSION,
        "network": learner.net.kind,
        "n_actions": learner.n_actions,
        "config": asdict(learner.config),
        "decision_steps": learner.decision_steps,
        "adam_step_count": learner.opt.step_count,
        "rng_explore": json.loads(_rng_state_json(learner.rng_explore)),
        "rng_replay": json.loads(_rng_state_json(learner.buffer.rng)),
    }
    arrays["meta_json"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    np.savez(path, **arrays)


def load_checkpoint(path) -> DqnLearner:
    """Rebuild a saved learner: its network kind, parameters, Adam state,
    step counters and random cursors. The replay pool is not saved, so
    training resumed from a checkpoint refills it from empty. A checkpoint
    that records no network kind is rebuilt as ``TrainConfig`` describes."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta_json"]).decode("utf-8"))
        if meta["version"] != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta['version']}")
        cfg_dict = dict(meta["config"])
        cfg_dict["hidden_sizes"] = tuple(cfg_dict["hidden_sizes"])
        config = TrainConfig(**cfg_dict)
        kind = meta.get("network")
        factory = DqnLearner
        if kind == "dueling":
            from .baselines import make_dueling_learner  # baselines imports this module
            factory = make_dueling_learner
        learner = factory(
            config,
            meta["n_actions"],
            rng_init=np.random.default_rng(0),
            rng_explore=_rng_from_json(json.dumps(meta["rng_explore"])),
            rng_replay=_rng_from_json(json.dumps(meta["rng_replay"])),
        )
        if kind is not None and learner.net.kind != kind:
            raise ValueError(f"checkpoint network kind {kind!r} does not match "
                             f"its config ({learner.net.kind!r})")
        for i, p in enumerate(learner.net.parameters()):
            saved = data[f"net_{i}"]
            if saved.shape != p.shape:
                raise ValueError("checkpoint architecture mismatch")
            np.copyto(p, saved)
        for i, p in enumerate(learner.target_net.parameters()):
            np.copyto(p, data[f"target_{i}"])
        np.copyto(learner.opt.m, data["adam_m"])
        np.copyto(learner.opt.v, data["adam_v"])
        learner.decision_steps = int(meta["decision_steps"])
        learner.opt.step_count = int(meta["adam_step_count"])
        learner.buffer.rng = _rng_from_json(json.dumps(meta["rng_replay"]))
    return learner
