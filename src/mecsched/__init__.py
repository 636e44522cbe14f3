"""Discrete-event simulator for DAG task offloading onto edge devices,
with a from-scratch DQN scheduler and heuristic baselines."""

import os as _os
import sys as _sys

# The learner's matrices are small, and OpenBLAS starts a thread per core,
# which only adds CPU time: use one BLAS thread unless the caller chose a
# count. BLAS reads this when numpy is first imported; ``python -m
# mecsched`` imports this package before its ``__main__``, so it sits here.
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in _sys.modules:
    for _var in _BLAS_VARS:
        _os.environ.setdefault(_var, "1")
elif not any(_var in _os.environ for _var in _BLAS_VARS):
    import warnings as _warnings

    _warnings.warn(
        "numpy was imported before mecsched with no BLAS thread count set, so "
        "OpenBLAS runs a thread per core, which slows the learner; set "
        "OPENBLAS_NUM_THREADS=1 before numpy is imported, or import mecsched first",
        RuntimeWarning, stacklevel=2)

from .task_graph import (
    Task,
    Edge,
    TaskGraph,
    validate,
    augment_with_dummies,
    compute_lct,
    build_priority_list,
    load_workload_file,
    save_workload_file,
)
from .mec_model import (
    EdgeDevice,
    CapabilityChain,
    NetworkTopology,
    Assignment,
    execution_time,
    transfer_time,
    transition_capability,
)
from .mdp_agent import (
    StateVector,
    StateNorms,
    RewardParams,
    MdpTransition,
    compute_reward,
    normalize_state,
    DqnScheduler,
)
from .scheduler_port import SchedulerPort
from .sim_engine import (
    ScriptedScheduler,
    SimulationTrace,
    collect_ready,
    observe_state,
    run,
)
from .dqn_core import (
    ValueNetwork,
    ReplayBuffer,
    AdamState,
    TrainConfig,
    DqnLearner,
    compute_targets,
    train_step,
    sync_target,
    save_checkpoint,
    load_checkpoint,
)
from .baselines import (
    RandomScheduler,
    GreedyEftScheduler,
    HeftStyleScheduler,
)
from .workload import WorkloadSpec, generate, assign_deadline
from .experiment import (
    TopologyConfig,
    ExperimentConfig,
    MetricsReport,
    load_config,
    cmd_train,
    cmd_evaluate,
    cmd_compare,
    cmd_gen_workload,
)

__version__ = "0.1.0"
