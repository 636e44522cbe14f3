"""Span tracing of the mecsched layers, from outside the package.

``Tracer.install`` replaces each function or method in ``patch_points()`` by
a wrapper at the place the package looks it up at call time (a module
global or a class attribute), and ``uninstall`` puts the originals back.
Nothing under ``src/`` is edited. Wrappers draw no random numbers and pass
arguments and results through untouched, so a traced run simulates exactly
what an untraced run simulates.

Each span records its name, start, end, parent span and episode id. Spans
are kept in compact in-memory arrays and written out once, by ``save``.
Self time (duration minus the time covered by child spans) and call counts
are aggregated as spans close.
"""

from __future__ import annotations

import json
import time
from array import array

import numpy as np

from mecsched import (
    baselines,
    dqn_core,
    experiment,
    mdp_agent,
    rng,
    sim_engine,
    task_graph,
    workload,
)

MODULES = ("dqn_core", "sim_engine", "mec_model", "mdp_agent", "baselines",
           "task_graph", "workload", "experiment", "rng")

# sim_engine spans that run inside sim_engine.run, i.e. the event kernel itself
KERNEL_SPANS = ("sim_engine.run", "sim_engine.collect_ready", "sim_engine.observe_state")


def patch_points() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every traced call site.

    The owner is where the caller looks the name up: the kernel calls
    ``transfer_time`` through ``sim_engine``'s globals, so that is where it is
    wrapped, while the span keeps the defining module's name.
    """
    return [
        (dqn_core.DqnLearner, "act", "dqn_core.DqnLearner.act"),
        (dqn_core.DqnLearner, "observe", "dqn_core.DqnLearner.observe"),
        (dqn_core.ValueNetwork, "forward", "dqn_core.ValueNetwork.forward"),
        (dqn_core.ReplayBuffer, "sample", "dqn_core.ReplayBuffer.sample"),
        (dqn_core.AdamState, "apply", "dqn_core.AdamState.apply"),
        (dqn_core, "train_step", "dqn_core.train_step"),
        (dqn_core, "compute_targets", "dqn_core.compute_targets"),
        (dqn_core, "loss_and_grads", "dqn_core.loss_and_grads"),
        (dqn_core, "sync_target", "dqn_core.sync_target"),
        (dqn_core, "save_checkpoint", "dqn_core.save_checkpoint"),
        (dqn_core, "load_checkpoint", "dqn_core.load_checkpoint"),
        (sim_engine, "run", "sim_engine.run"),
        (sim_engine, "collect_ready", "sim_engine.collect_ready"),
        (sim_engine, "observe_state", "sim_engine.observe_state"),
        (sim_engine.SimulationTrace, "to_csv", "sim_engine.SimulationTrace.to_csv"),
        (sim_engine, "transfer_time", "mec_model.transfer_time"),
        (sim_engine, "execution_time", "mec_model.execution_time"),
        (sim_engine, "transition_capability", "mec_model.transition_capability"),
        (sim_engine, "compute_reward", "mdp_agent.compute_reward"),
        (sim_engine, "build_priority_list", "task_graph.build_priority_list"),
        (mdp_agent.DqnScheduler, "decide", "mdp_agent.DqnScheduler.decide"),
        (mdp_agent, "normalize_state", "mdp_agent.normalize_state"),
        (baselines.RandomScheduler, "decide", "baselines.RandomScheduler.decide"),
        (baselines.GreedyEftScheduler, "decide", "baselines.GreedyEftScheduler.decide"),
        (baselines.HeftStyleScheduler, "decide", "baselines.HeftStyleScheduler.decide"),
        (baselines, "upward_rank", "baselines.upward_rank"),
        (experiment, "compute_lct", "task_graph.compute_lct"),
        (task_graph, "save_workload_file", "task_graph.save_workload_file"),
        (task_graph, "load_workload_file", "task_graph.load_workload_file"),
        (workload, "generate", "workload.generate"),
        (experiment, "prepare_graphs", "experiment.prepare_graphs"),
        (experiment, "build_chains", "experiment.build_chains"),
        (rng, "stream", "rng.stream"),
    ]


class Tracer:
    """Records spans for the functions in ``patch_points`` while installed."""

    def __init__(self) -> None:
        self.episode = -1  # set by the workload before each operation
        self.names: list[str] = []
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds, inclusive seconds]
        self.missing: list[str] = []
        self.losses: list[float] = []  # return values of train_step
        self.empty_ready = 0  # collect_ready calls that found nothing ready
        self._starts = array("d")
        self._ends = array("d")
        self._parents = array("q")
        self._name_ids = array("i")
        self._episodes = array("q")
        self._open = [-1]  # ids of open spans; -1 is the root
        self._child = [0.0]  # time covered by the children of each open span
        # (owner, attribute, original, owner defines it, wrapper)
        self._points: list[tuple[object, str, object, bool, object]] | None = None
        self._installed = False

    @property
    def span_count(self) -> int:
        return len(self._starts)

    def install(self) -> None:
        """Put the wrappers in place; they are built on the first call, and
        later calls reuse them, so spans and statistics accumulate."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        if self._points is None:
            # Read every original before wrapping any, so that a method
            # inherited from another traced class is not wrapped twice.
            self._points = []
            for owner, attr, name in patch_points():
                try:
                    original = getattr(owner, attr)
                except AttributeError:
                    self.missing.append(name)
                    continue
                self._points.append((owner, attr, original, attr in vars(owner),
                                     self._wrap(original, name)))
        for owner, attr, _, _, wrapper in self._points:
            setattr(owner, attr, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            return
        for owner, attr, original, own, _ in reversed(self._points):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._installed = False

    def _wrap(self, original, name: str):
        name_id = len(self.names)
        self.names.append(name)
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        starts, ends, parents = self._starts, self._ends, self._parents
        name_ids, episodes = self._name_ids, self._episodes
        open_ids, child = self._open, self._child
        clock = time.perf_counter
        tracer = self
        if name == "dqn_core.train_step":
            on_result = self.losses.append
        elif name == "sim_engine.collect_ready":
            def on_result(ready):
                if not ready:
                    tracer.empty_ready += 1
        else:
            on_result = None

        def wrapper(*args, **kwargs):
            sid = len(starts)
            parents.append(open_ids[-1])
            name_ids.append(name_id)
            episodes.append(tracer.episode)
            open_ids.append(sid)
            child.append(0.0)
            t0 = clock()
            starts.append(t0)
            ends.append(t0)
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = clock()
                ends[sid] = t1
                open_ids.pop()
                dur = t1 - t0
                self_time = dur - child.pop()
                child[-1] += dur
                stat[0] += 1
                stat[1] += self_time
                stat[2] += dur
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    # -- aggregates ---------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def inclusive_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def per_call(self, name: str, scale: float) -> float:
        """Mean self time per call, times ``scale`` (1e6 for us, 1e3 for ms)."""
        calls = self.calls(name)
        return scale * self.self_s(name) / calls if calls else 0.0

    def module_self_s(self, module: str) -> float:
        return sum(s[1] for n, s in self.stats.items() if n.split(".", 1)[0] == module)

    def save(self, path) -> None:
        """Write every span (uncompressed .npz) plus the name table."""
        np.savez(
            path,
            start=np.frombuffer(self._starts, dtype=np.float64),
            end=np.frombuffer(self._ends, dtype=np.float64),
            parent=np.frombuffer(self._parents, dtype=np.int64),
            name_id=np.frombuffer(self._name_ids, dtype=np.int32),
            episode=np.frombuffer(self._episodes, dtype=np.int64),
            names=np.frombuffer(json.dumps(self.names).encode("utf-8"), dtype=np.uint8),
        )
