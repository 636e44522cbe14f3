"""Checks that the benchmark workloads measure the shipped protocol.

    python3 -m pytest -q perfbench/fidelity_check.py

The file name keeps these checks out of the repository's default test
collection (``test_*.py``); they take a few seconds.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import workloads
from workloads import Compare, Contention, Train
from mecsched import experiment
from mecsched.sim_engine import SchedulerPort
from tracing import Tracer, patch_points

SEED = 7
SMALL = {"n_apps": "4", "episodes": "3", "replications": "3", "lams": "5 9"}


def small_config(tmp_path: Path, source: str) -> str:
    """The workload's config with fewer apps, episodes and replications."""
    lines = []
    for line in (workloads.CONFIG_DIR / source).read_text().splitlines():
        key = line.split("=")[0].strip()
        lines.append(f"{key} = {SMALL[key]}" if key in SMALL else line)
    path = tmp_path / f"small_{source}"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def small(cls, tmp_path: Path):
    """A subclass of a workload that reads the small config."""
    return type(f"Small{cls.__name__}", (cls,), {
        "config": small_config(tmp_path, cls.config), "segment": int(SMALL["episodes"])})


def run_rounds(wl, rounds: int):
    return [op for index in range(rounds) for op in wl.round(index)]


def test_compare_workload_reproduces_cmd_compare(tmp_path):
    (tmp_path / "bench").mkdir()
    wl = small(Compare, tmp_path)(SEED, tmp_path / "bench")
    ops = {op.key: op for op in run_rounds(wl, wl.cfg.replications)}
    assert all(op.ok for op in ops.values())

    experiment.cmd_compare(wl.cfg, tmp_path / "cmp", checkpoint=tmp_path / "bench" / "untrained.npz")
    rows = 0
    for lam in wl.cfg.compare_lams:
        with open(tmp_path / "cmp" / f"replications_lam{lam:g}.csv", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                op = ops[(lam, int(row["rep"]), row["scheduler"])]
                assert (op.makespan, op.violation, op.reward) == (
                    float(row["avg_makespan"]), float(row["violation_pct"]),
                    float(row["cumulative_reward"]))
                rows += 1
    assert rows == len(ops) == 2 * 3 * 4


def test_train_workload_reproduces_train_agent(tmp_path):
    wl = small(Train, tmp_path)(SEED, tmp_path)
    for index in range(2):  # every round is a fresh train_agent run with its own seed
        ops = wl.round(index)
        cfg = replace(wl.cfg, master_seed=wl.round_seed(index))
        learner, curve = experiment.train_agent(cfg)
        assert len(ops) == cfg.agent.episodes
        assert [op.reward for op in ops] == list(curve)
        assert ops[-1].loss == learner.last_loss
        for mine, theirs in zip(wl.learner.net.parameters(), learner.net.parameters()):
            assert np.array_equal(mine, theirs)


@pytest.mark.parametrize("cls", [Train, Compare, Contention])
def test_tracing_leaves_results_identical_and_restores_the_package(tmp_path, cls):
    originals = [getattr(owner, attr) for owner, attr, _ in patch_points()]
    plain = small(cls, tmp_path)(SEED, tmp_path)
    expected = [op.outcome() for op in run_rounds(plain, 2)]

    tracer = Tracer()
    tracer.install()
    try:
        traced = small(cls, tmp_path)(SEED, tmp_path, tracer)
        got = [op.outcome() for op in run_rounds(traced, 2)]
    finally:
        tracer.uninstall()
    assert got == expected
    assert tracer.calls("sim_engine.run") == len(got)
    assert not tracer.missing
    assert [getattr(owner, attr) for owner, attr, _ in patch_points()] == originals


def test_failed_operation_is_counted_with_its_time(tmp_path, monkeypatch):
    class OffFleet(SchedulerPort):
        def decide(self, ctx):
            return 0  # the mobile user is never a valid target

    wl = small(Contention, tmp_path)(SEED, tmp_path)
    monkeypatch.setattr(wl, "_scheduler", lambda name, rep: OffFleet())
    ops = wl.round(0)
    assert len(ops) == len(wl.cfg.schedulers)
    assert not any(op.ok for op in ops)
    assert all(op.ms > 0 for op in ops)
    assert len(wl.failures) == len(ops) and "SchedulingError" in wl.failures[0]


def test_run_fails_without_the_package(tmp_path):
    bench = Path(workloads.BENCH_DIR)
    shutil.copytree(bench, tmp_path / bench.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path)
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
