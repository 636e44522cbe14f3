"""From-scratch deep Q-learning: network, backprop, Adam, replay, targets.

Everything is plain float64 numpy so that analytic gradients can be checked
against finite differences exactly, and so that a fixed seed reproduces a
training run bit for bit. The value network is a fully connected stack with
rectified hidden layers and a linear output head; a squared Bellman error is
minimized with Adam (constants ``ADAM_BETA1``, ``ADAM_BETA2`` and
``ADAM_EPS``), targets come from a periodically synced copy of the network,
and exploration is epsilon-greedy. A transition travels as its four parts,
(state, action, reward, next state), into ``DqnLearner.observe`` and on to
``ReplayBuffer.add``.

The learner speaks devices only: Q-row column ``k`` in 0..M-1 scores
device ``k + 1``, and the actions it chooses, stores and maximizes over are
those columns.

The learner has one network, ``DeviceScoringNetwork``, whose shape it takes
from its device count. The network keeps all its parameters in one float64
vector ``flat`` and their gradient in ``grad``, with per-tensor views for
``parameters()`` and the gradient list, and it lays two ``ValueNetwork``
blocks, fully connected stacks, end to end on them. Passes reuse work
buffers per batch size, Adam and target syncs act on the whole vectors in
place, and a training ``act`` runs the network only to exploit.

``DeviceScoringNetwork.forward`` scores one state without the batch detour:
the value block's ``forward`` runs ``np.dot`` on the 1-D state, layer by
layer, into buffers built once per block, and the shared advantage block
runs its batch pass over that state's device feature rows. Its Q row
equals, bit for bit, the row that a batch of one gives, so ``act`` picks
what the batch pass would pick.

The target network is constant between syncs, so ``DqnLearner`` keeps one
target value per replay slot and a count, ``_stale``, of the newest slots
that hold none: each write adds one, and a target sync makes every slot
stale. A step that samples a stale slot first sends the stale slots it
sampled and the oldest stale ones, in ring order, through at most
``REFRESH_PASSES`` ``compute_targets`` passes of exactly ``batch`` rows
(one when the next sync is nearer than twice that many steps), and takes
the oldest ones off the count. At a pass size that is a multiple of 4, a
row's output does not depend on the rows that share its pass or on its
position, so the stored values are the bits a per-step pass gives. Two
rules keep them, else each step runs its own pass: ``batch`` is a multiple
of 4, and the pool holds at most ``batch * target_sync_steps`` transitions,
which bounds one refresh of the pool by a sync period's steps but not the
total: some shapes run more passes than a pass per step.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict, fields

import numpy as np

from .mdp_agent import device_feature_index, state_width

__all__ = [
    "DeviceScoringNetwork",
    "ReplayBuffer",
    "AdamState",
    "TrainConfig",
    "DqnLearner",
    "DivergenceError",
    "compute_targets",
    "train_step",
    "loss_and_grads",
    "sync_target",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_VERSION = 4  # 4: one Q column per device, n_devices recorded
ACTIVATIONS = ("relu",)

# DeviceScoringNetwork's shared advantage stack: hidden width, output scale
ADVANTAGE_HIDDEN = 32
ADVANTAGE_SCALE = 0.1

# Adam's moment decays and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# the most target passes a training step runs to refresh stored values
REFRESH_PASSES = 4


class DivergenceError(RuntimeError):
    """Raised when training produces a non-finite loss."""


# ---------------------------------------------------------------------------
# Networks
# ---------------------------------------------------------------------------


def glorot_uniform(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def _n_params(sizes) -> int:
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes, sizes[1:]))


def _layer_views(vector: np.ndarray, sizes) -> list[np.ndarray]:
    """[W0, b0, W1, b1, ...] of a stack, as views into ``vector``."""
    views, lo = [], 0
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        views.append(vector[lo:lo + fan_in * fan_out].reshape(fan_in, fan_out))
        lo += fan_in * fan_out
        views.append(vector[lo:lo + fan_out])
        lo += fan_out
    return views


class ValueNetwork:
    """A fully connected stack, rectified in every layer but the last: the
    block ``DeviceScoringNetwork`` is built from.

    The block lives in the slices ``params`` and ``grad`` of its network's
    ``flat`` and ``grad`` vectors; its attributes ``params`` and ``grads``
    are per-tensor views of them, ``[W0, b0, W1, b1, ...]``. ``forward`` is
    the single-state pass, into buffers of its own. ``forward_layers``
    returns every layer's activation of a batch, input first, into work
    buffers kept per batch size, which the block's next pass of that size
    overwrites; ``backward_layers`` writes the gradient of such a pass into
    ``grad``, using the same buffers.
    """

    def __init__(self, layer_sizes, params: np.ndarray, grad: np.ndarray):
        sizes = [int(s) for s in layer_sizes]
        self.layer_sizes = sizes
        self._relu = [True] * (len(sizes) - 2) + [False]
        self.params = _layer_views(params, sizes)
        self.grads = _layer_views(grad, sizes)
        self.weights, self.biases = self.params[0::2], self.params[1::2]
        self._work: dict[int, tuple] = {}  # per batch size: activations, deltas, relu masks
        # the single-state pass: (weights, bias, output row, relu) per layer
        self._single = list(zip(self.weights, self.biases,
                                [np.empty(n) for n in sizes[1:]], self._relu))

    def forward(self, x: np.ndarray) -> np.ndarray:
        """The output of one 1-D input, unchecked, in a work buffer that the
        block's next single-state pass overwrites; equal, bit for bit, to
        the row a batch of one gives."""
        for w, b, out, relu in self._single:
            x = np.dot(x, w, out=out)
            x += b
            if relu:
                np.maximum(x, 0.0, out=x)
        return x

    def forward_layers(self, x: np.ndarray) -> list[np.ndarray]:
        rows = x.shape[0]
        work = self._work.get(rows)
        if work is None:
            sizes = self.layer_sizes
            work = self._work[rows] = (
                [np.empty((rows, n)) for n in sizes[1:]],
                [np.empty((rows, n)) for n in sizes],
                [np.empty((rows, n), dtype=bool) for n in sizes[1:]],
            )
        acts = [x]
        for w, b, relu, out in zip(self.weights, self.biases, self._relu, work[0]):
            np.matmul(acts[-1], w, out=out)
            out += b
            if relu:
                np.maximum(out, 0.0, out=out)
            acts.append(out)
        return acts

    def backward_layers(self, acts, d_out: np.ndarray) -> None:
        """Gradient of a scalar loss given d(loss)/d(output) of the pass
        ``acts``; the first layer's input gets none."""
        _, deltas, masks = self._work[d_out.shape[0]]
        delta = d_out
        for layer in range(len(self.weights) - 1, -1, -1):
            if self._relu[layer]:
                # max(z, 0) > 0 exactly where z > 0, NaN included
                mask = np.greater(acts[layer + 1], 0.0, out=masks[layer])
                delta = np.multiply(delta, mask, out=deltas[layer + 1])
            np.matmul(acts[layer].T, delta, out=self.grads[2 * layer])
            np.add.reduce(delta, axis=0, out=self.grads[2 * layer + 1])
            if layer:
                delta = np.matmul(delta, self.weights[layer].T, out=deltas[layer])


class DeviceScoringNetwork:
    """Q(s, a) = V(s) + A(z_a) with one advantage stack shared by all devices.

    ``V`` is a fully connected stack over the whole state; ``A`` scores the
    feature row ``z_a`` that ``feature_index[a]`` picks out of the state for
    the device of column ``a``, with the same weights for every device. The
    output has one column per device. Because every device is scored by one
    function, the network compares devices by their features, not by
    per-action weights that each see only the transitions of their action.

    ``A`` has one hidden layer of ``ADVANTAGE_HIDDEN`` units, and its output
    is multiplied by ``ADVANTAGE_SCALE``. Adam moves each
    parameter by about the learning rate per step whatever the gradient's
    size, so a head's output jitters by an amount set by the learning rate,
    not by the values it fits; the scale brings the advantage head's jitter
    down to the size of the gaps between devices, far below ``V``'s.

    ``V`` and ``A`` are ``ValueNetwork`` blocks laid end to end on ``flat``
    and ``grad``; ``parameters()`` and the list ``backward_from_q_grad``
    returns are their per-tensor views, in that order. ``params``, when
    given, is the vector to live in, as it is; without it the weights are
    drawn from ``rng`` (``default_rng(0)`` when None), ``V``'s first, and
    the biases start at zero. ``forward`` returns one state's Q row as a
    fresh array, ``forward_batch`` a batch's rows and the cache
    ``backward_from_q_grad`` needs.
    """

    kind = "device-scoring"  # recorded in checkpoints

    def __init__(self, layer_sizes, feature_index,
                 rng: np.random.Generator | None = None, *, params=None):
        sizes = [int(s) for s in layer_sizes]
        index = np.asarray(feature_index, dtype=np.int64)
        if index.ndim != 2 or sizes[-1] != index.shape[0]:
            raise ValueError("need one feature row and one output per device")
        self.layer_sizes = sizes
        self.feature_index = index
        value_sizes = sizes[:-1] + [1]
        split = _n_params(value_sizes)
        advantage_sizes = [index.shape[1], ADVANTAGE_HIDDEN, 1]
        self.flat = (np.zeros(split + _n_params(advantage_sizes))
                     if params is None else params)
        self.grad = np.zeros_like(self.flat)
        self.value = ValueNetwork(value_sizes, self.flat[:split], self.grad[:split])
        self.advantage = ValueNetwork(advantage_sizes, self.flat[split:], self.grad[split:])
        self._params = self.value.params + self.advantage.params
        self._grads = self.value.grads + self.advantage.grads
        if params is None:
            rng = np.random.default_rng(0) if rng is None else rng
            for w in self.value.weights + self.advantage.weights:
                w[...] = glorot_uniform(*w.shape, rng)

    def parameters(self) -> list[np.ndarray]:
        return self._params

    def _check_state(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.shape[0] != self.layer_sizes[0]:
            raise ValueError(f"expected input of length {self.layer_sizes[0]}, "
                             f"got shape {x.shape}")
        return x

    def _check_batch(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.layer_sizes[0]:
            raise ValueError(f"expected shape (batch, {self.layer_sizes[0]})")
        return x

    def forward_batch(self, x):
        x = self._check_batch(x)
        v_acts = self.value.forward_layers(x)
        rows = x[:, self.feature_index].reshape(-1, self.feature_index.shape[1])
        a_acts = self.advantage.forward_layers(rows)
        a = ADVANTAGE_SCALE * a_acts[-1].reshape(x.shape[0], -1)
        return v_acts[-1] + a, (v_acts, a_acts)

    def forward(self, x) -> np.ndarray:
        x = self._check_state(x)
        v = self.value.forward(x)
        a = self.advantage.forward_layers(x[self.feature_index])[-1].reshape(-1)
        return v + ADVANTAGE_SCALE * a

    def backward_from_q_grad(self, cache, d_q) -> list[np.ndarray]:
        v_acts, a_acts = cache
        self.value.backward_layers(v_acts, d_q.sum(axis=1, keepdims=True))
        self.advantage.backward_layers(a_acts, ADVANTAGE_SCALE * d_q.reshape(-1, 1))
        return self._grads

    def clone(self) -> "DeviceScoringNetwork":
        return DeviceScoringNetwork(self.layer_sizes, self.feature_index,
                                    params=self.flat.copy())


def sync_target(net, target_net) -> None:
    """Copy the prediction parameters into the target network, bitwise."""
    if [p.shape for p in net.parameters()] != [p.shape for p in target_net.parameters()]:
        raise ValueError("network architectures differ")
    np.copyto(target_net.flat, net.flat)


# ---------------------------------------------------------------------------
# Replay buffer
# ---------------------------------------------------------------------------


class ReplayBuffer:
    """Ring buffer of transitions with uniform without-replacement batches.

    ``cursor`` is the slot ``add`` writes next. ``sample`` returns a batch's
    slots with their states and actions, and the rewards and next states
    are read by slot from ``rewards`` and ``next_states``.
    """

    def __init__(self, capacity: int, width: int, rng: np.random.Generator):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self.rng = rng
        self.states = np.zeros((capacity, width))
        self.actions = np.zeros(capacity, dtype=np.int64)
        self.rewards = np.zeros(capacity)
        self.next_states = np.zeros((capacity, width))
        self.cursor = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def add(self, state: np.ndarray, action: int, reward: float,
            next_state: np.ndarray) -> None:
        i = self.cursor
        self.states[i] = state
        self.actions[i] = action
        self.rewards[i] = reward
        self.next_states[i] = next_state
        self.cursor = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch: int):
        """(slots, states, actions) of a uniform batch."""
        if batch > self._size:
            raise ValueError("not enough stored transitions")
        idx = self.rng.choice(self._size, size=batch, replace=False)
        return idx, self.states[idx], self.actions[idx]


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


class AdamState:
    """Adaptive-moment estimates for one network's parameters.

    The moments live in two flat vectors laid out like the network's
    ``flat`` vector, and ``apply`` updates that vector in place with a
    handful of vector operations on two scratch buffers.
    """

    def __init__(self, params, learning_rate: float):
        self.learning_rate = learning_rate
        self.step_count = 0
        size = sum(p.size for p in params)
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._scratch = (np.empty(size), np.empty(size))

    def apply(self, params: np.ndarray, grads: np.ndarray) -> None:
        """One step on the flat parameter vector given the flat gradient."""
        self.step_count += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        bias1 = 1.0 - b1 ** self.step_count
        bias2 = 1.0 - b2 ** self.step_count
        m, v = self.m, self.v
        t, u = self._scratch
        # m = b1*m + (1-b1)*g; v = b2*v + ((1-b2)*g)*g;
        # step = (lr * (m/bias1)) / (sqrt(v/bias2) + eps), in this order
        m *= b1
        m += np.multiply(grads, 1.0 - b1, out=t)
        v *= b2
        np.multiply(grads, 1.0 - b2, out=t)
        v += np.multiply(t, grads, out=t)
        np.sqrt(np.divide(v, bias2, out=u), out=u)
        u += ADAM_EPS
        np.divide(m, bias1, out=t)
        t *= self.learning_rate
        t /= u
        params -= t


# ---------------------------------------------------------------------------
# Q-learning pieces
# ---------------------------------------------------------------------------


def compute_targets(rewards, next_states, target_net, gamma: float) -> np.ndarray:
    """Bellman targets r + gamma * max over the columns of target Q."""
    q_next, _ = target_net.forward_batch(next_states)
    return rewards + gamma * q_next.max(axis=1)


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


def train_step(net, states, actions, targets, opt: AdamState) -> float:
    """One SGD step towards given targets; returns the pre-update loss."""
    loss, _ = loss_and_grads(net, states, actions, targets)
    if not np.isfinite(loss):
        raise DivergenceError(
            f"non-finite loss {loss!r} after {opt.step_count} optimizer steps"
        )
    opt.apply(net.flat, net.grad)  # the gradient list is views into net.grad
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
    hidden_sizes: tuple[int, ...] = (128, 64, 32, 16)
    hidden_activation: str = "relu"  # the only one; INI files and checkpoints name it

    def __post_init__(self) -> None:
        self.hidden_sizes = tuple(self.hidden_sizes)  # a checkpoint's JSON holds a list
        for name in ("gamma", "epsilon_start", "epsilon_end"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)!r}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, "
                             f"got {self.learning_rate!r}")
        if not 0.0 <= self.epsilon_decay_fraction < math.inf:
            raise ValueError(f"epsilon_decay_fraction must be >= 0 and finite, "
                             f"got {self.epsilon_decay_fraction!r}")
        for name in ("batch", "target_sync_steps", "episodes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        if self.planned_steps < 0:
            raise ValueError(f"planned_steps must be >= 0, got {self.planned_steps!r}")
        if self.buffer_capacity < self.batch:
            # a pool smaller than a batch never trains
            raise ValueError(f"buffer_capacity must be >= batch ({self.batch}), "
                             f"got {self.buffer_capacity}")
        if not all(size >= 1 for size in self.hidden_sizes):
            raise ValueError(f"hidden_sizes must each be >= 1, got {self.hidden_sizes!r}")
        if self.hidden_activation not in ACTIVATIONS:
            raise ValueError(f"hidden_activation must be one of {ACTIVATIONS}, "
                             f"got {self.hidden_activation!r}")


class DqnLearner:
    """Prediction/target network pair plus replay, exploring and training.

    The actions are the Q columns 0..``n_devices - 1``, column ``k`` for
    device ``k + 1``. ``act`` answers epsilon-greedy action queries (pure
    greedy when asked); ``observe`` stores a finished transition and runs
    one training step once the pool holds a full batch.
    The target net re-syncs every ``target_sync_steps`` decision steps.

    The fleet sets the network's shape: ``n_devices`` devices give a
    ``state_width``-wide input, which the replay pool stores too, and the
    device-scoring network scores the devices' ``device_feature_index``
    rows. The constructor's ``n_actions`` is ``n_devices + 1``, a count
    kept for its callers; only ``n_devices`` is stored.

    ``observe`` takes its targets from the per-slot values of the module
    notes while their two rules hold, and from a pass of its own otherwise.
    """

    def __init__(self, config: TrainConfig, n_actions: int,
                 rng_init: np.random.Generator,
                 rng_explore: np.random.Generator,
                 rng_replay: np.random.Generator):
        if n_actions < 2:
            raise ValueError(f"need at least one device action, got n_actions={n_actions}")
        self.config = config
        self.n_devices = n_devices = int(n_actions) - 1
        sizes = [state_width(n_devices), *config.hidden_sizes, n_devices]
        self.net = DeviceScoringNetwork(sizes, device_feature_index(n_devices), rng_init)
        self.target_net = self.net.clone()
        self.opt = AdamState(self.net.parameters(), learning_rate=config.learning_rate)
        self.buffer = ReplayBuffer(config.buffer_capacity, sizes[0], rng_replay)
        self.rng_explore = rng_explore
        self.decision_steps = 0
        self.last_loss: float | None = None
        # per-slot target values for at most _slots slots (0: none), allocated
        # by the first step that uses them; the _stale newest are not current
        self._slots = (min(config.buffer_capacity, config.batch * config.target_sync_steps)
                       if config.batch % 4 == 0 else 0)
        self._values = None
        self._stale = config.buffer_capacity

    def epsilon(self) -> float:
        cfg = self.config
        horizon = cfg.epsilon_decay_fraction * cfg.planned_steps
        if horizon <= 0:
            return cfg.epsilon_end
        frac = min(1.0, self.decision_steps / horizon)
        return cfg.epsilon_start + frac * (cfg.epsilon_end - cfg.epsilon_start)

    def act(self, state: np.ndarray, greedy: bool = False) -> int:
        """A device column: with probability epsilon (training only) a
        uniform one, else the highest-valued one, ties to the lowest. The
        network runs only to exploit."""
        rng = self.rng_explore
        if not greedy and (epsilon := self.epsilon()) > 0.0 and rng.random() < epsilon:
            action = int(rng.integers(self.n_devices))
        else:
            action = int(self.net.forward(state).argmax())
        if greedy:
            return action
        self.decision_steps += 1
        if self.decision_steps % self.config.target_sync_steps == 0:
            sync_target(self.net, self.target_net)
            self._stale = self.config.buffer_capacity
        return action

    def observe(self, state: np.ndarray, action: int, reward: float,
                next_state: np.ndarray) -> None:
        buf = self.buffer
        buf.add(state, action, reward, next_state)
        self._stale += 1
        if len(buf) > self._slots:  # past the pool rule for good
            self._slots = 0
            self._values = None
        if len(buf) >= self.config.batch:
            idx, states, actions = buf.sample(self.config.batch)
            if self._slots:
                targets = self._stored_targets(idx)
            else:
                targets = compute_targets(buf.rewards[idx], buf.next_states[idx],
                                          self.target_net, self.config.gamma)
            self.last_loss = train_step(self.net, states, actions, targets, self.opt)

    def _stored_targets(self, idx: np.ndarray) -> np.ndarray:
        """The target values of slots ``idx``, after a refresh of the stale
        ones among them and of the oldest stale slots, if any is stale."""
        buf, batch = self.buffer, self.config.batch
        size = len(buf)
        stale = min(self._stale, size)
        if self._values is None:
            self._values = np.zeros(self._slots)
        age = (buf.cursor - 1 - idx) % size  # 0: the newest slot
        if age.min() < stale:
            hits = np.sort(stale - 1 - age[age < stale])  # 0: the oldest stale slot
            sync = self.config.target_sync_steps
            passes = min(-(-stale // batch), REFRESH_PASSES)
            if 2 * passes > sync - self.decision_steps % sync:
                passes = 1  # too near the next sync for more to pay off
            # the oldest `run` stale slots, the sampled ones among them counted
            # once, fill the passes; the sampled ones past them come too, and a
            # short last pass repeats rows
            free = passes * batch - hits.size
            run = min(stale, free + int(np.count_nonzero(hits - np.arange(hits.size) <= free)))
            depths = np.concatenate((np.arange(run), hits[hits >= run]))
            depths = depths[np.arange(-(-depths.size // batch) * batch) % depths.size]
            for part in ((buf.cursor - stale + depths) % size).reshape(-1, batch):
                self._values[part] = compute_targets(buf.rewards[part], buf.next_states[part],
                                                     self.target_net, self.config.gamma)
            self._stale = stale - run
        return self._values[idx]


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def _rng_from_state(state: dict) -> np.random.Generator:
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = state
    return rng


def _checkpoint_arrays(learner: DqnLearner) -> dict[str, np.ndarray]:
    """The learner's arrays by checkpoint name: net_i, target_i, adam_m, adam_v."""
    arrays = {f"{role}_{i}": p for role, net in (("net", learner.net), ("target", learner.target_net))
              for i, p in enumerate(net.parameters())}
    arrays["adam_m"] = learner.opt.m
    arrays["adam_v"] = learner.opt.v
    return arrays


def save_checkpoint(learner: DqnLearner, path) -> None:
    arrays = _checkpoint_arrays(learner)
    meta = {
        "version": CHECKPOINT_VERSION,
        "network": learner.net.kind,
        "n_devices": learner.n_devices,
        "config": asdict(learner.config),
        "decision_steps": learner.decision_steps,
        "adam_step_count": learner.opt.step_count,
        "rng_explore": learner.rng_explore.bit_generator.state,
        "rng_replay": learner.buffer.rng.bit_generator.state,
    }
    arrays["meta_json"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    np.savez(path, **arrays)


def load_checkpoint(path) -> DqnLearner:
    """Rebuild a saved learner: its parameters, Adam state, step counters
    and random cursors. The recorded ``n_devices`` sets the state layout,
    and the kind must be ``device-scoring``. A ValueError naming the file
    refuses other kinds and checkpoint versions (up to 3, Q rows held a
    run-locally column), a missing member or metadata key, a config key
    ``TrainConfig`` does not know and an array holding a NaN or an infinity.
    The replay pool is not saved, so training resumed refills it from empty."""
    def need(mapping, key: str, what: str):
        if key not in mapping:
            raise ValueError(f"{path}: checkpoint has no {what} {key!r}")
        return mapping[key]

    with np.load(path) as data:
        meta = json.loads(bytes(need(data, "meta_json", "member")).decode("utf-8"))
        version = need(meta, "version", "metadata key")
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        kind = meta.get("network")
        if kind != DeviceScoringNetwork.kind:
            raise ValueError(f"{path}: unsupported checkpoint network kind {kind!r}")
        cfg_dict = dict(need(meta, "config", "metadata key"))
        unknown = sorted(cfg_dict.keys() - {f.name for f in fields(TrainConfig)})
        if unknown:
            raise ValueError(f"{path}: checkpoint config has unknown keys {unknown}")
        learner = DqnLearner(
            TrainConfig(**cfg_dict),
            need(meta, "n_devices", "metadata key") + 1,
            rng_init=np.random.default_rng(0),
            rng_explore=_rng_from_state(need(meta, "rng_explore", "metadata key")),
            rng_replay=_rng_from_state(need(meta, "rng_replay", "metadata key")),
        )
        for name, p in _checkpoint_arrays(learner).items():
            saved = need(data, name, "member")
            if saved.shape != p.shape:
                raise ValueError(f"{path}: checkpoint architecture mismatch")
            if not np.isfinite(saved).all():
                raise ValueError(f"{path}: checkpoint {name} holds non-finite values")
            np.copyto(p, saved)
        learner.decision_steps = int(need(meta, "decision_steps", "metadata key"))
        learner.opt.step_count = int(need(meta, "adam_step_count", "metadata key"))
    return learner
