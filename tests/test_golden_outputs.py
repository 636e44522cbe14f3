"""Byte-level guard on simulated outputs.

A reduced contention setup (8 devices, 12 apps arriving at 30 per second,
2 replications) is generated, written as workload files, loaded back and
simulated under random, greedy-EFT, HEFT and an untrained greedy DQN, with
every trace recorded. The sha256 of each workload file and each trace CSV is
pinned, so any change to generation, the kernel's timing, the observation
sums or the capability draws shows up here, down to the last bit of a float.

The digests depend on numpy's random streams and float formatting; if they
change with a numpy or Python upgrade alone, re-record them under the new
version.
"""

import hashlib
import platform

import numpy as np

from mecsched import rng as rngmod
from mecsched.baselines import GreedyEftScheduler, HeftStyleScheduler, RandomScheduler
from mecsched.dqn_core import DqnLearner
from mecsched.experiment import (
    ExperimentConfig,
    TopologyConfig,
    build_chains,
    build_devices,
    build_topology,
    prepare_graphs,
)
from mecsched.mdp_agent import DqnScheduler
from mecsched.sim_engine import run
from mecsched.task_graph import load_workload_file, save_workload_file
from mecsched.workload import WorkloadSpec, generate

RECORDED_UNDER = "numpy 2.4.6, Python 3.11.7"
MASTER_SEED = 601
REPLICATIONS = 2

GOLDEN = {
    "workload_rep0": "06c5063efe6ee468d8fd362c44938eea4b4d32e179e1393a9f8e7b7db04acd60",
    "workload_rep1": "daaecc09688914f01e6217a1d5faf1c73f3f314f91520fd677abb772f1ecd0ca",
    "random_rep0": "763fd163fdec167bc3a3b4eec67fe6487766ad935368d9685141b965b71ef0f7",
    "random_rep1": "de6a6b599cded5ce04f4377bb3bcc7b5c3aa4574f099eef167b5c0238530ddf0",
    "greedy_eft_rep0": "d76b2afbcfdf744c30bac6e385bf1e0b211ce71e37dd1f64e7969f11b6f12da2",
    "greedy_eft_rep1": "99e7775f2d6274462f3f7f8ea5de98b8bdb7cc253c21bf6c6c41be2f1ee1a373",
    "heft_rep0": "18d5c6d95489f047f847c6f4476299c13ed80f12b66d9e8de4114a178aa2ec40",
    "heft_rep1": "bebc869f24ef24813796419691e99176f0d4d1a6820ff586eee67f6a9c73a3b3",
    "dqn_rep0": "cfefb41f24b79e09f0ff0df83d945f75526290a9fc9e87a4147bb5e77fd20ede",
    "dqn_rep1": "4cfee107a377fa8674faa73d0823d0f1a844e407232f4c08e1ed8f3c7f9a3a94",
}


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def golden_outputs(outdir) -> dict[str, str]:
    """sha256 of every workload file and trace CSV of the reduced setup."""
    topo_cfg = TopologyConfig(n_devices=8)
    cfg = ExperimentConfig(
        topology=topo_cfg,
        workload=WorkloadSpec(n_apps=12, lam=30.0, arrival_mode="rate", n_devices=8),
        master_seed=MASTER_SEED,
    )
    topo = build_topology(topo_cfg)
    n = topo_cfg.n_devices
    learner = DqnLearner(cfg.agent, n + 1,
                         rngmod.stream(MASTER_SEED, "weights"),
                         rngmod.stream(MASTER_SEED, "explore"),
                         rngmod.stream(MASTER_SEED, "replay"))
    digests = {}
    for rep in range(REPLICATIONS):
        path = outdir / f"rep{rep}.wl"
        save_workload_file(
            generate(cfg.workload, rngmod.stream(MASTER_SEED, "eval-workload", rep)), path)
        digests[f"workload_rep{rep}"] = _sha256(path)
        graphs = prepare_graphs(load_workload_file(path), topo_cfg, topo)
        schedulers = {
            "random": RandomScheduler(n, rngmod.stream(MASTER_SEED, "baseline-random", rep)),
            "greedy_eft": GreedyEftScheduler(),
            "heft": HeftStyleScheduler(topo, topo_cfg.capability_levels),
            "dqn": DqnScheduler(learner, n, training=False),
        }
        for name, scheduler in schedulers.items():
            chains = build_chains(topo_cfg, MASTER_SEED, "eval-capability", rep)
            trace = run(graphs, topo, build_devices(topo_cfg), scheduler, chains,
                        cfg.reward, record_rows=True)
            trace_path = outdir / f"trace_{name}_rep{rep}.csv"
            trace.to_csv(trace_path)
            digests[f"{name}_rep{rep}"] = _sha256(trace_path)
    return digests


def test_outputs_match_recorded_digests(tmp_path):
    digests = golden_outputs(tmp_path)
    changed = sorted(k for k in GOLDEN if digests.get(k) != GOLDEN[k])
    assert not changed, (
        f"outputs changed: {changed}; digests were recorded under "
        f"{RECORDED_UNDER}, this run uses numpy {np.__version__}, "
        f"Python {platform.python_version()}"
    )
