"""Workloads of the mecsched benchmark.

Each workload class does its set-up in ``__init__`` (config, topology,
learner, checkpoint) and runs one round of operations per ``round(index)``
call. An operation is one training episode (``train``) or one scheduler on
one replication (``compare``, ``contention``). The workloads follow the
package's own protocols, ``experiment.train_agent`` and
``experiment.cmd_compare``, step for step and with the same named random
streams, calling the package only through its public functions and module
attributes (so that ``tracing.Tracer`` can wrap them). ``fidelity_check.py``
proves that they reproduce the shipped protocol value for value.

Every operation is checked as it finishes; see ``Workload._problem``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# Pin BLAS to one thread before numpy is first imported: the installed
# OpenBLAS would otherwise size its pool by the host's cores, not the process's.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
if not (ROOT / "src" / "mecsched").is_dir():
    # measure the checkout's sources, never an installed copy
    raise ImportError(f"no mecsched package under {ROOT / 'src'}")
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import math  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402

from mecsched import (  # noqa: E402
    baselines,
    dqn_core,
    experiment,
    rng,
    sim_engine,
    task_graph,
    workload,
)
from mecsched.dqn_core import DivergenceError  # noqa: E402
from mecsched.mdp_agent import DqnScheduler  # noqa: E402
from mecsched.sim_engine import DeadlockError, SchedulingError  # noqa: E402
from mecsched.workload import critical_path_seconds, shape_real_task_count  # noqa: E402

CONFIG_DIR = BENCH_DIR / "configs"
FAILURES = (DeadlockError, SchedulingError, DivergenceError)
HEURISTICS = ("random", "greedy_eft", "heft")
# A makespan may sit below the transfer-free critical path by float rounding only.
MAKESPAN_TOL_S = 1e-9
# The speed reference: greedy_eft on this many apps, the fastest of
# REFERENCE_REPEATS runs, 5-10 ms a run.
REFERENCE_APPS = 2
REFERENCE_REPEATS = 2


@dataclass
class Op:
    """Outcome of one operation. Failed operations keep their time."""

    key: tuple
    ms: float  # host wall time
    ok: bool
    decisions: int = 0
    makespan: float | None = None  # trace.avg_makespan(), simulated s
    violation: float | None = None  # trace.violation_rate(), %
    reward: float | None = None  # cumulative reward
    loss: float | None = None  # learner's last loss after a training episode
    sim: bool = False  # counts toward the sim_* metrics

    def outcome(self) -> tuple:
        """Everything simulated about the operation, for exact comparison."""
        return (self.key, self.ok, self.decisions, self.makespan, self.violation,
                self.reward, self.loss)


def make_learner(cfg: experiment.ExperimentConfig) -> dqn_core.DqnLearner:
    """The learner ``train_agent`` builds: epsilon decays over the configured
    episode count, and weights, exploration and replay draw from their own
    streams of the master seed."""
    steps = (cfg.agent.episodes * cfg.workload.n_apps
             * shape_real_task_count(cfg.workload.graph_shape))
    seed = cfg.master_seed
    return dqn_core.DqnLearner(
        replace(cfg.agent, planned_steps=steps),
        cfg.topology.n_devices + 1,
        rng.stream(seed, "weights"),
        rng.stream(seed, "explore"),
        rng.stream(seed, "replay"),
    )


class Workload:
    """Set-up in ``__init__``; one round of operations per ``round`` call."""

    name = ""
    config = ""
    sim_rounds = 1  # rounds whose results make up the sim_* metrics
    window_rounds = 1  # rounds timed together as one window
    trace_rounds = 1  # rounds run by each side of a traced measurement

    def __init__(self, seed: int, workdir, tracer=None):
        self.cfg = experiment.load_config(CONFIG_DIR / self.config, {"master_seed": seed})
        self.topo = experiment.build_topology(self.cfg.topology)
        self.workdir = Path(workdir)
        self.tracer = tracer
        self.episodes = 0
        self.failures: list[str] = []
        # checks and re-set-up inside the loop, excluded from the timed region
        self.untimed_wall_s = 0.0
        self.untimed_cpu_s = 0.0
        # called before each operation, outside the timed region
        self.before_op = None
        self.tasks_per_app = shape_real_task_count(self.cfg.workload.graph_shape)
        self.max_capability = max(self.cfg.topology.capability_levels)

    def round(self, index: int) -> list[Op]:
        raise NotImplementedError

    def finish(self) -> None:
        """Work the protocol does after its last operation."""

    def reference(self) -> tuple[float, float]:
        """Wall and CPU seconds of a small fixed simulation, the fastest of
        REFERENCE_REPEATS: a measure of the host's current speed.

        It is the same work every time it runs in one process: greedy_eft on
        REFERENCE_APPS apps of the workload's own setup, drawn from a stream
        of its own, so it shares no random state with the rounds.
        """
        cfg = self.cfg
        spec = replace(cfg.workload, n_apps=REFERENCE_APPS)
        best_wall = best_cpu = math.inf
        for _ in range(REFERENCE_REPEATS):
            w0, c0 = time.perf_counter(), time.process_time()
            graphs = workload.generate(spec, rng.stream(cfg.master_seed, "speed-reference"))
            graphs = experiment.prepare_graphs(graphs, cfg.topology, self.topo)
            chains = experiment.build_chains(cfg.topology, cfg.master_seed, "speed-reference", 0)
            sim_engine.run(graphs, self.topo, experiment.build_devices(cfg.topology),
                           baselines.GreedyEftScheduler(), chains, cfg.reward, record_rows=False)
            best_wall = min(best_wall, time.perf_counter() - w0)
            best_cpu = min(best_cpu, time.process_time() - c0)
        return best_wall, best_cpu

    @contextmanager
    def _untimed(self):
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            self.untimed_wall_s += time.perf_counter() - w0
            self.untimed_cpu_s += time.process_time() - c0

    def _op(self, key: tuple, sim: bool, body) -> tuple[Op, object]:
        """Time ``body() -> (graphs, trace, loss)`` as one operation and check it."""
        if self.tracer is not None:
            self.tracer.episode = self.episodes
        self.episodes += 1
        if self.before_op is not None:
            with self._untimed():
                self.before_op()
        t0 = time.perf_counter()
        try:
            graphs, trace, loss = body()
        except FAILURES as exc:
            ms = (time.perf_counter() - t0) * 1e3
            self.failures.append(f"{key}: {type(exc).__name__}: {exc}")
            return Op(key, ms, ok=False, sim=sim), None
        ms = (time.perf_counter() - t0) * 1e3
        with self._untimed():
            problem = self._problem(graphs, trace, loss)
            if problem is not None:
                self.failures.append(f"{key}: {problem}")
            op = Op(key, ms, problem is None, len(trace.decisions), trace.avg_makespan(),
                    trace.violation_rate(), trace.cumulative_reward, loss, sim)
        return op, trace

    def _problem(self, graphs, trace, loss) -> str | None:
        """Why an operation's simulated output is wrong, or None."""
        n_apps = self.cfg.workload.n_apps
        if len(graphs) != n_apps or len(trace.app_makespans) != n_apps:
            return f"{len(trace.app_makespans)} of {n_apps} apps finished"
        for graph in graphs:
            makespan = trace.app_makespans[graph.app_id]
            bound = critical_path_seconds(graph, self.max_capability)
            if not math.isfinite(makespan) or makespan + MAKESPAN_TOL_S < bound:
                return (f"app {graph.app_id}: makespan {makespan!r} below the "
                        f"critical path {bound!r}")
        expected = n_apps * self.tasks_per_app
        if len(trace.decisions) != expected:
            return f"{len(trace.decisions)} decisions, expected {expected}"
        if not math.isfinite(trace.cumulative_reward):
            return f"non-finite cumulative reward {trace.cumulative_reward!r}"
        if loss is not None and not math.isfinite(loss):
            return f"non-finite loss {loss!r}"
        return None


class Train(Workload):
    """``train_agent`` on the reference setup.

    One round is the first ``segment`` episodes of ``train_agent`` for the
    round's own master seed (``round_seed``), from a freshly built learner.
    Rounds are therefore equal in kind but draw different inputs, which the
    sim_* metrics pool; their cost is mostly the learner's, the same per
    decision whatever the input. Episodes get dearer as training goes on (as
    epsilon decays the policy piles work onto fewer devices and the queues
    the kernel sums grow), so rounds that ran "as many episodes as fit"
    would charge a faster learner for reaching later ones.
    """

    name = "train"
    config = "reference.ini"
    segment = 10
    sim_rounds = 10
    window_rounds = 1
    trace_rounds = 6

    def __init__(self, seed: int, workdir, tracer=None):
        super().__init__(seed, workdir, tracer)
        self._start_round(0)

    def round_seed(self, index: int) -> int:
        return self.cfg.master_seed * 1000 + index

    def _start_round(self, index: int) -> None:
        self.round_cfg = replace(self.cfg, master_seed=self.round_seed(index))
        self.learner = make_learner(self.round_cfg)
        self.scheduler = DqnScheduler(self.learner, self.cfg.topology.n_devices, training=True)

    def round(self, index: int) -> list[Op]:
        if index > 0:
            with self._untimed():
                self._start_round(index)
        cfg = self.round_cfg
        seed = cfg.master_seed

        ops = []
        for episode in range(self.segment):
            def body(episode=episode):
                graphs = workload.generate(cfg.workload, rng.stream(seed, "train-workload", episode))
                graphs = experiment.prepare_graphs(graphs, cfg.topology, self.topo)
                devices = experiment.build_devices(cfg.topology)
                chains = experiment.build_chains(cfg.topology, seed, "train-capability", episode)
                trace = sim_engine.run(graphs, self.topo, devices, self.scheduler, chains,
                                       cfg.reward, record_rows=False)
                return graphs, trace, self.learner.last_loss

            op, _ = self._op((index, episode), True, body)
            ops.append(op)
        return ops

    def finish(self) -> None:
        # cmd_train saves the trained learner once training ends
        dqn_core.save_checkpoint(self.learner, self.workdir / "checkpoint.npz")


class Evaluation(Workload):
    """Replications of ``cmd_compare``: every configured scheduler, re-seeded
    per replication, with the greedy learner restored from a checkpoint."""

    def __init__(self, seed: int, workdir, tracer=None):
        super().__init__(seed, workdir, tracer)
        self.learner = None
        if "dqn" in self.cfg.schedulers:
            # a seeded, untrained learner, round-tripped as cmd_compare --checkpoint does
            checkpoint = self.workdir / "untrained.npz"
            dqn_core.save_checkpoint(make_learner(self.cfg), checkpoint)
            self.learner = dqn_core.load_checkpoint(checkpoint)

    def _scheduler(self, name: str, rep: int):
        cfg = self.cfg
        n = cfg.topology.n_devices
        if name == "random":
            return baselines.RandomScheduler(n, rng.stream(cfg.master_seed, "baseline-random", rep))
        if name == "greedy_eft":
            return baselines.GreedyEftScheduler()
        if name == "heft":
            return baselines.HeftStyleScheduler(self.topo, cfg.topology.capability_levels)
        if name == "dqn":
            return DqnScheduler(self.learner, n, training=False)
        raise ValueError(f"unknown scheduler {name!r}")

    def _run(self, graphs, name: str, rep: int):
        cfg = self.cfg
        scheduler = self._scheduler(name, rep)
        devices = experiment.build_devices(cfg.topology)
        chains = experiment.build_chains(cfg.topology, cfg.master_seed, "eval-capability", rep)
        return sim_engine.run(graphs, self.topo, devices, scheduler, chains, cfg.reward,
                              record_rows=cfg.write_traces)


class Compare(Evaluation):
    """One replication index per round, at every lambda: the workload is
    saved once and every scheduler reloads it from the file."""

    name = "compare"
    config = "reference.ini"
    sim_rounds = 90
    window_rounds = 5
    trace_rounds = 8

    def round(self, index: int) -> list[Op]:
        cfg = self.cfg
        ops = []
        for lam in cfg.compare_lams:
            spec = replace(cfg.workload, lam=lam)
            graphs = workload.generate(spec, rng.stream(cfg.master_seed, "eval-workload", index))
            path = self.workdir / f"lam{lam:g}.wl"
            task_graph.save_workload_file(graphs, path)
            for name in cfg.schedulers:
                def body(name=name, path=path):
                    loaded = task_graph.load_workload_file(path)
                    loaded = experiment.prepare_graphs(loaded, cfg.topology, self.topo)
                    return loaded, self._run(loaded, name, index), None

                op, _ = self._op((lam, index, name), name in HEURISTICS, body)
                ops.append(op)
        return ops


class Contention(Evaluation):
    """One replication per round on the busy fleet, each round a new one.
    Graphs stay in memory and every trace is written with
    ``SimulationTrace.to_csv``.
    """

    name = "contention"
    config = "contention.ini"
    sim_rounds = 16
    window_rounds = 1
    trace_rounds = 2

    def round(self, index: int) -> list[Op]:
        cfg = self.cfg
        ops = []
        for name in cfg.schedulers:
            def body(name=name):
                graphs = workload.generate(
                    cfg.workload, rng.stream(cfg.master_seed, "eval-workload", index))
                graphs = experiment.prepare_graphs(graphs, cfg.topology, self.topo)
                return graphs, self._run(graphs, name, index), None

            op, trace = self._op((index, name), name in HEURISTICS, body)
            ops.append(op)
            if trace is not None and cfg.write_traces:
                trace.to_csv(self.workdir / f"trace_{name}.csv")
        return ops


WORKLOADS = {cls.name: cls for cls in (Train, Compare, Contention)}
