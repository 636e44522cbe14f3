"""Bit-level guard on training.

A few ``train_agent`` episodes are run for the learner, whose network is the
device-scoring kind, and the sha256 of everything training produces is
pinned: the learning curve, every prediction and target parameter, Adam's
two moment vectors and the last loss. Any change to the network's
arithmetic, the optimizer, replay sampling, exploration draws or target
syncing shows up here, down to the last bit of a float.

The digests depend on numpy's random streams and on the BLAS's rounding; if
they change with a numpy or Python upgrade alone, re-record them under the
new versions. The same holds for the recorded count of target passes, which
follows the replay draws.
"""

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mecsched import dqn_core
from mecsched.dqn_core import TrainConfig
from mecsched.experiment import ExperimentConfig, train_agent
from mecsched.workload import WorkloadSpec

RECORDED_UNDER = "numpy 2.4.6, Python 3.11.7"

GOLDEN = {
    "device-scoring": "eeb8b0fe9f570538417e6fc2c66b7037516b901bf4e5f51d46cbbd13ef770655",
}
# dqn_core.compute_targets passes of the training above (162 optimizer steps)
TARGET_PASSES = 108


def training_config() -> ExperimentConfig:
    """The reference learner on a reduced schedule: 3 episodes of 3 apps,
    so that exploring and exploiting steps, about 160 optimizer steps and
    target syncs all occur."""
    return ExperimentConfig(
        workload=WorkloadSpec(n_apps=3, lam=9.0, arrival_mode="rate"),
        agent=TrainConfig(episodes=3, target_sync_steps=100),
        master_seed=601,
    )


def training_digest(kind: str) -> str:
    learner, curve = train_agent(training_config())
    assert learner.net.kind == kind
    return run_digest(learner, curve)


def run_digest(learner, curve) -> str:
    """sha256 of the curve, every prediction and target parameter, Adam's
    moments and the repr of the last loss, in that order."""
    h = hashlib.sha256()
    h.update(curve.tobytes())
    for net in (learner.net, learner.target_net):
        for p in net.parameters():
            h.update(p.tobytes())
    h.update(learner.opt.m.tobytes())
    h.update(learner.opt.v.tobytes())
    h.update(repr(learner.last_loss).encode())
    return h.hexdigest()


def versions() -> str:
    return f"numpy {np.__version__}, Python {platform.python_version()}"


@pytest.mark.parametrize("kind", list(GOLDEN))
def test_training_matches_recorded_digest(kind):
    assert training_digest(kind) == GOLDEN[kind], (
        f"training of the {kind} learner changed; digests were recorded under "
        f"{RECORDED_UNDER}, this run uses {versions()}"
    )


def test_target_pass_count_matches_recorded(monkeypatch):
    """The stored target values save passes; their count, which the run
    digest cannot see, is pinned here."""
    passes = []
    counted = dqn_core.compute_targets

    def counting(*args):
        passes.append(None)
        return counted(*args)

    monkeypatch.setattr(dqn_core, "compute_targets", counting)
    learner, _ = train_agent(training_config())
    assert len(passes) == TARGET_PASSES < learner.opt.step_count, (
        f"{len(passes)} target passes for {learner.opt.step_count} optimizer steps; "
        f"recorded under {RECORDED_UNDER}, this run uses {versions()}"
    )


def test_digest_does_not_depend_on_blas_threads():
    """Train in two fresh interpreters, BLAS pinned to one thread and left
    at every core, and compare the digests."""
    tests_dir = Path(__file__).resolve().parent
    src_dir = tests_dir.parent / "src"
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; "
            "from test_golden_training import training_digest; "
            "print(training_digest('device-scoring'))")
    digests = {}
    for threads in ("1", str(os.cpu_count() or 1)):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", code, str(tests_dir), str(src_dir)],
                             env=env, capture_output=True, text=True, check=True)
        digests[threads] = out.stdout.strip()
    assert len(set(digests.values())) == 1, digests
    assert digests["1"] == GOLDEN["device-scoring"], (
        f"digests were recorded under {RECORDED_UNDER}, this run uses {versions()}"
    )


@pytest.mark.parametrize("preset", [None, "3"])
def test_package_defaults_to_one_blas_thread(preset):
    """Importing the package before numpy pins BLAS to one thread unless
    the caller chose a count. Imported after numpy, it can no longer pin
    the count, and warns when the caller chose none."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = preset
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")

    def python(code):
        return subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)

    out = python("import os, mecsched, numpy; "
                 "print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])")
    expected = preset or "1"
    assert out.stdout.split() == [expected, expected]
    assert "Warning" not in out.stderr
    warned = "RuntimeWarning: numpy was imported before mecsched" in python(
        "import numpy, mecsched").stderr
    assert warned == (preset is None)
