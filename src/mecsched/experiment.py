"""Experiment protocol: configuration, seeding, replication and CSV export.

A master seed fans out into named streams (workload draws, per-device
capability chains, exploration, replay sampling, weight init, baseline
coin flips), so comparisons feed every scheduler byte-identical workload
files and identical capability traces while policies keep private
randomness. All outputs are plain CSV plus a manifest of the resolved
configuration; nothing depends on wall-clock time.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng as rngmod
from .baselines import GreedyEftScheduler, HeftStyleScheduler, RandomScheduler
from .dqn_core import DqnLearner, TrainConfig, load_checkpoint, save_checkpoint
from .mdp_agent import RewardParams, DqnScheduler
from .mec_model import (CapabilityChain, EdgeDevice, NetworkTopology,
                        check_transition_matrix)
from .sim_engine import SimulationTrace, run, write_csv
from .task_graph import TaskGraph, compute_lct, load_workload_file, save_workload_file
from .workload import WorkloadSpec, generate, shape_real_task_count

__all__ = [
    "TopologyConfig",
    "ExperimentConfig",
    "MetricsReport",
    "load_config",
    "build_topology",
    "build_devices",
    "build_chains",
    "prepare_graphs",
    "train_agent",
    "cmd_gen_workload",
    "cmd_train",
    "cmd_evaluate",
    "cmd_compare",
]

DEFAULT_TRANSITION_MATRIX = (
    (0.5, 0.25, 0.125, 0.0625, 0.0625),
    (0.0625, 0.5, 0.25, 0.125, 0.0625),
    (0.0625, 0.0625, 0.5, 0.25, 0.125),
    (0.125, 0.0625, 0.0625, 0.5, 0.25),
    (0.25, 0.125, 0.0625, 0.0625, 0.5),
)

DEFAULT_CAPABILITY_LEVELS = (6000.0, 5500.0, 5000.0, 4500.0, 4000.0)


@dataclass(frozen=True)
class TopologyConfig:
    n_devices: int = 4
    inter_rate_mbps: float = 440.0
    uplink_mbps: float = 1000.0
    capability_levels: tuple[float, ...] = DEFAULT_CAPABILITY_LEVELS
    transition_matrix: tuple[tuple[float, ...], ...] = DEFAULT_TRANSITION_MATRIX

    def __post_init__(self) -> None:
        # each refusal opens with its field's name, which load_config reports
        if self.n_devices < 1:
            raise ValueError(f"n_devices must be >= 1, got {self.n_devices!r}")
        for name in ("inter_rate_mbps", "uplink_mbps"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {getattr(self, name)!r}")
        levels = self.capability_levels
        if not levels or not all(0.0 < c < math.inf for c in levels):
            raise ValueError(f"capability_levels must be one or more positive, "
                             f"finite numbers, got {levels!r}")
        matrix = check_transition_matrix(self.transition_matrix, "transition_matrix")
        if len(matrix) != len(levels):
            # name both keys: either one may be the one written wrong
            raise ValueError(f"transition_matrix must have one row per capability_levels "
                             f"entry ({len(levels)}), got {len(matrix)} rows")


@dataclass(frozen=True)
class ExperimentConfig:
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    agent: TrainConfig = field(default_factory=TrainConfig)
    reward: RewardParams = field(default_factory=RewardParams)
    replications: int = 30
    schedulers: tuple[str, ...] = ("dqn", "random", "greedy_eft", "heft")
    compare_lams: tuple[float, ...] = ()
    master_seed: int = 1
    write_traces: bool = False

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not 0 <= self.master_seed < 2**64:
            # rng.stream keeps the low 64 bits, so another seed would alias one of these
            raise ValueError(f"master_seed must lie in [0, 2**64), got {self.master_seed!r}")
        if self.workload.n_devices != self.topology.n_devices:
            raise ValueError(f"workload.n_devices ({self.workload.n_devices}) must equal "
                             f"topology.n_devices ({self.topology.n_devices})")
        for name in self.schedulers:
            if name not in SCHEDULER_NAMES:
                raise ValueError(f"schedulers must each be one of {SCHEDULER_NAMES}, "
                                 f"got {name!r}")
        for lam in self.compare_lams:
            if not 0.0 < lam < math.inf:
                raise ValueError(f"compare_lams must each be positive and finite, "
                                 f"got {lam!r}")


SCHEDULER_NAMES = ("dqn", "random", "greedy_eft", "heft")


@dataclass
class MetricsReport:
    scheduler: str
    lam: float
    avg_makespans: np.ndarray  # one entry per replication
    violation_rates: np.ndarray  # percent, per replication
    cumulative_rewards: np.ndarray

    @property
    def mean_makespan(self) -> float:
        return float(self.avg_makespans.mean())

    @property
    def mean_violation_rate(self) -> float:
        return float(self.violation_rates.mean())


# ---------------------------------------------------------------------------
# Config file (INI, whitespace-separated lists, ';' between matrix rows)
# ---------------------------------------------------------------------------


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split())


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split())


def _words(text: str) -> tuple[str, ...]:
    return tuple(text.split())


def _matrix(text: str) -> tuple[tuple[float, ...], ...]:
    return tuple(_floats(row) for row in text.split(";")) if text else ()


def _flag(text: str) -> bool:
    word = text.lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"expected 1/0, true/false or yes/no, got {text!r}")
    return word in ("1", "true", "yes")


# INI section -> key -> parser of its value; the [experiment] keys set fields
# of ExperimentConfig itself. load_config reads this table and nothing else,
# so any key missing from it is rejected.
_CONFIG_KEYS = {
    "topology": {"n_devices": int, "inter_rate_mbps": float, "uplink_mbps": float,
                 "capability_levels": _floats, "transition_matrix": _matrix},
    "workload": {"n_apps": int, "lam": float, "arrival_mode": str, "shape": str,
                 "workload_range": _floats, "bc_range": _floats,
                 "mean_rate_mbps": float, "deadline_factor": float,
                 "deadline_capability_mips": float},
    "agent": {"gamma": float, "batch": int, "learning_rate": float, "pool": int,
              "epsilon_start": float, "epsilon_end": float,
              "epsilon_decay_fraction": float, "target_sync_steps": int,
              "episodes": int, "hidden_sizes": _ints, "hidden_activation": str},
    "reward": {"beta": float, "psi": float, "eta": float, "clamp_early": _flag},
    "experiment": {"replications": int, "schedulers": _words, "lams": _floats,
                   "master_seed": int, "write_traces": _flag},
}
# INI keys whose dataclass field is named otherwise
_FIELD_NAMES = {"shape": "graph_shape", "mean_rate_mbps": "mean_rate",
                "deadline_capability_mips": "deadline_capability",
                "pool": "buffer_capacity", "lams": "compare_lams"}
_INI_KEYS = {name: key for key, name in _FIELD_NAMES.items()}


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Read an INI file over the defaults; unknown sections and keys, values
    that do not parse and settings a section refuses raise ValueError naming
    the section and the key. A list key left empty keeps its default."""
    # no interpolation: a '%' in a value is read as written, and a value it
    # spoils is refused by its key's parser like any other
    parser = configparser.ConfigParser(interpolation=None)
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)

    values: dict[str, dict] = {section: {} for section in _CONFIG_KEYS}
    for section in parser.sections():
        keys = _CONFIG_KEYS.get(section)
        if keys is None:
            raise ValueError(f"{path}: unknown config section [{section}]")
        for key, text in parser.items(section):
            if key not in keys:
                raise ValueError(f"{path}: unknown config key {key!r} in [{section}]")
            try:
                value = keys[key](text)
            except ValueError as exc:
                raise ValueError(f"{path}: [{section}] {key}: {exc}") from None
            if value != ():
                values[section][_FIELD_NAMES.get(key, key)] = value

    def build(section: str, cls, **extra):
        try:
            return cls(**values[section], **extra)
        except ValueError as exc:
            # a refusal opens with its field's name; report the key as written
            name, _, rest = str(exc).partition(" ")
            key = _INI_KEYS.get(name, name)
            raise ValueError(f"{path}: [{section}] {key} {rest}") from None

    topo = build("topology", TopologyConfig)
    cfg = build(
        "experiment", ExperimentConfig,
        topology=topo,
        workload=build("workload", WorkloadSpec, n_devices=topo.n_devices),
        agent=build("agent", TrainConfig),
        reward=build("reward", RewardParams),
    )
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def build_topology(tc: TopologyConfig) -> NetworkTopology:
    m = tc.n_devices
    rates = np.full((m, m), tc.inter_rate_mbps, dtype=float)
    np.fill_diagonal(rates, 0.0)
    return NetworkTopology(inter_ecd_rate=rates, uplink_rate=tc.uplink_mbps)


def build_devices(tc: TopologyConfig) -> list[EdgeDevice]:
    return [
        EdgeDevice(ecd_id=m, capability_levels=tuple(tc.capability_levels))
        for m in range(1, tc.n_devices + 1)
    ]


def build_chains(tc: TopologyConfig, master_seed: int, purpose: str,
                 index: int) -> list[CapabilityChain]:
    return [
        CapabilityChain(tc.transition_matrix, rngmod.stream(master_seed, purpose, index, m))
        for m in range(1, tc.n_devices + 1)
    ]


def prepare_graphs(graphs, tc: TopologyConfig, topo: NetworkTopology) -> list[TaskGraph]:
    max_cap = max(tc.capability_levels)
    return [
        compute_lct(g, max_capability=max_cap, max_rate=topo.max_rate,
                    uplink_rate=topo.uplink_rate)
        for g in graphs
    ]


def _planned_steps(cfg: ExperimentConfig) -> int:
    n_tasks = shape_real_task_count(cfg.workload.graph_shape)
    return cfg.agent.episodes * cfg.workload.n_apps * n_tasks


def _make_learner(cfg: ExperimentConfig) -> DqnLearner:
    agent_cfg = replace(cfg.agent, planned_steps=_planned_steps(cfg))
    return DqnLearner(
        agent_cfg,
        cfg.topology.n_devices + 1,
        rngmod.stream(cfg.master_seed, "weights"),
        rngmod.stream(cfg.master_seed, "explore"),
        rngmod.stream(cfg.master_seed, "replay"),
    )


def _load_learner(cfg: ExperimentConfig, checkpoint) -> DqnLearner:
    """A saved learner, refused unless it was trained on the config's fleet."""
    learner = load_checkpoint(checkpoint)
    if learner.n_devices != cfg.topology.n_devices:
        raise ValueError(f"checkpoint {checkpoint} was trained on {learner.n_devices} "
                         f"devices, but topology.n_devices is {cfg.topology.n_devices}")
    return learner


def _simulate(cfg: ExperimentConfig, topo, graphs, scheduler, purpose: str, index: int,
              record_rows: bool) -> SimulationTrace:
    """Run prepared graphs on a fresh fleet whose capability chains draw from
    the named streams ``(purpose, index, device)``."""
    devices = build_devices(cfg.topology)
    chains = build_chains(cfg.topology, cfg.master_seed, purpose, index)
    return run(graphs, topo, devices, scheduler, chains, cfg.reward, record_rows=record_rows)


def train_agent(cfg: ExperimentConfig):
    """Train a value learner over fresh workload draws; returns (learner, curve)."""
    topo = build_topology(cfg.topology)
    learner = _make_learner(cfg)
    scheduler = DqnScheduler(learner, cfg.topology.n_devices, training=True)

    curve = np.zeros(cfg.agent.episodes)
    for episode in range(cfg.agent.episodes):
        graphs = generate(cfg.workload, rngmod.stream(cfg.master_seed, "train-workload", episode))
        graphs = prepare_graphs(graphs, cfg.topology, topo)
        trace = _simulate(cfg, topo, graphs, scheduler, "train-capability", episode,
                          record_rows=False)
        curve[episode] = trace.cumulative_reward
    return learner, curve


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _make_eval_scheduler(name: str, cfg: ExperimentConfig, topo: NetworkTopology,
                         rep: int, learner: DqnLearner | None):
    n = cfg.topology.n_devices
    if name == "random":
        return RandomScheduler(n, rngmod.stream(cfg.master_seed, "baseline-random", rep))
    if name == "greedy_eft":
        return GreedyEftScheduler()
    if name == "heft":
        return HeftStyleScheduler(topo, cfg.topology.capability_levels)
    if name == "dqn":
        return DqnScheduler(learner, n, training=False)
    raise ValueError(f"unknown scheduler {name!r}")


def _evaluate(cfg: ExperimentConfig, topo, lam: float, names, learner: DqnLearner | None,
              outdir) -> list[MetricsReport]:
    """Every named scheduler over ``cfg.replications`` workloads at arrival
    rate ``lam``. Each replication's workload is drawn once, written to
    ``workloads/``, loaded back and prepared once, and the same immutable
    graphs go to every scheduler; its capability chains are re-seeded per
    replication, so every scheduler sees the same environment randomness.
    Traces, when on, go next to the workloads."""
    wl_dir = os.path.join(outdir, "workloads")
    os.makedirs(wl_dir, exist_ok=True)
    spec = replace(cfg.workload, lam=lam)
    prepared = []
    for rep in range(cfg.replications):
        path = os.path.join(wl_dir, f"lam{lam:g}_rep{rep}.wl")
        save_workload_file(generate(spec, rngmod.stream(cfg.master_seed, "eval-workload", rep)),
                           path)
        prepared.append(prepare_graphs(load_workload_file(path), cfg.topology, topo))

    reports = []
    for name in names:
        makespans, violations, rewards = [], [], []
        for rep, graphs in enumerate(prepared):
            scheduler = _make_eval_scheduler(name, cfg, topo, rep, learner)
            trace = _simulate(cfg, topo, graphs, scheduler, "eval-capability", rep,
                              record_rows=cfg.write_traces)
            makespans.append(trace.avg_makespan())
            violations.append(trace.violation_rate())
            rewards.append(trace.cumulative_reward)
            if cfg.write_traces:
                trace.to_csv(os.path.join(wl_dir, f"trace_{name}_lam{lam:g}_rep{rep}.csv"))
        reports.append(MetricsReport(name, lam, np.array(makespans), np.array(violations),
                                     np.array(rewards)))
    return reports


def _write_replications(path, reports: list[MetricsReport]) -> None:
    """One row per scheduler and replication."""
    write_csv(
        path,
        ("scheduler", "rep", "avg_makespan", "violation_pct", "cumulative_reward"),
        [
            (r.scheduler, rep, float(makespan), float(violation), float(reward))
            for r in reports
            for rep, (makespan, violation, reward) in enumerate(
                zip(r.avg_makespans, r.violation_rates, r.cumulative_rewards))
        ],
    )


def _write_manifest(cfg: ExperimentConfig, outdir, extra: dict | None = None) -> None:
    lines = []

    def walk(prefix: str, obj) -> None:
        if hasattr(obj, "__dataclass_fields__"):
            for name in obj.__dataclass_fields__:
                walk(f"{prefix}{name}.", getattr(obj, name))
        else:
            lines.append(f"{prefix[:-1]} = {obj!r}")

    walk("", cfg)
    for key, value in (extra or {}).items():
        lines.append(f"{key} = {value!r}")
    with open(os.path.join(outdir, "manifest.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(sorted(lines)) + "\n")


def cmd_gen_workload(cfg: ExperimentConfig, outpath) -> list[TaskGraph]:
    graphs = generate(cfg.workload, rngmod.stream(cfg.master_seed, "workload"))
    save_workload_file(graphs, outpath)
    return graphs


def cmd_train(cfg: ExperimentConfig, outdir) -> dict[str, str]:
    """Train the learned scheduler; write checkpoint and learning curve."""
    os.makedirs(outdir, exist_ok=True)
    learner, curve = train_agent(cfg)
    checkpoint = os.path.join(outdir, "checkpoint.npz")
    save_checkpoint(learner, checkpoint)
    curve_path = os.path.join(outdir, "learning_curve.csv")
    write_csv(curve_path, ("episode", "cumulative_reward"),
              [(e + 1, float(r)) for e, r in enumerate(curve)])
    _write_manifest(cfg, outdir)
    return {"checkpoint": checkpoint, "curve": curve_path}


def cmd_evaluate(cfg: ExperimentConfig, outdir, checkpoint=None,
                 scheduler: str = "dqn") -> MetricsReport:
    """Greedy evaluation of one scheduler over replicated workloads.

    An unknown scheduler, or ``dqn`` without a checkpoint or with one
    trained on another fleet, is refused before anything is written."""
    if scheduler not in SCHEDULER_NAMES:
        raise ValueError(f"unknown scheduler {scheduler!r}")
    learner = None
    if scheduler == "dqn":
        if checkpoint is None:
            raise ValueError("evaluating 'dqn' requires a checkpoint")
        learner = _load_learner(cfg, checkpoint)
    os.makedirs(outdir, exist_ok=True)
    [report] = _evaluate(cfg, build_topology(cfg.topology), cfg.workload.lam, (scheduler,),
                         learner, outdir)
    _write_replications(os.path.join(outdir, "evaluation.csv"), [report])
    _write_manifest(cfg, outdir, {"evaluated_scheduler": scheduler})
    return report


def cmd_compare(cfg: ExperimentConfig, outdir, checkpoint=None) -> list[MetricsReport]:
    """Run every configured scheduler over identical workload replications
    at each arrival rate; see ``_evaluate``. A checkpoint trained on another
    fleet is refused before anything is written."""
    learner = None
    if "dqn" in cfg.schedulers:
        if checkpoint is not None:
            learner = _load_learner(cfg, checkpoint)
        else:
            learner, _ = train_agent(cfg)
    os.makedirs(outdir, exist_ok=True)
    topo = build_topology(cfg.topology)

    lams = cfg.compare_lams if cfg.compare_lams else (cfg.workload.lam,)
    reports: list[MetricsReport] = []
    for lam in lams:
        lam_reports = _evaluate(cfg, topo, lam, cfg.schedulers, learner, outdir)
        reports.extend(lam_reports)
        write_csv(
            os.path.join(outdir, f"comparison_lam{lam:g}.csv"),
            ("scheduler", "avg_makespan_mean", "avg_makespan_std",
             "violation_pct_mean", "violation_pct_std"),
            [
                (r.scheduler, r.mean_makespan, float(r.avg_makespans.std()),
                 r.mean_violation_rate, float(r.violation_rates.std()))
                for r in lam_reports
            ],
        )
        _write_replications(os.path.join(outdir, f"replications_lam{lam:g}.csv"), lam_reports)
    _write_manifest(cfg, outdir, {"compare_lams": list(lams)})
    return reports
