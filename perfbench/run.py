"""mecsched benchmark: run one workload for one seed and print its metrics.

    python3 perfbench/run.py --workload {train,compare,contention} \\
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` the workload runs untraced, in windows of a fixed number
of rounds, for at least S seconds (longer if needed to finish the rounds
behind the sim_* metrics and to collect 100 operation times), and the
end-to-end metrics of BENCHMARK.json are reported.
With ``--trace 1`` a fixed number of rounds runs untraced and again with
every layer wrapped by ``tracing.Tracer``, alternating round by round; the
per-layer metrics of BENCHMARK.json are reported, and the two sides must
simulate identical results. Human-readable lines come first; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
A copy of the full result, with provenance, is written to
``.perfbench_out/`` at the repository root, and traced runs also write their
spans there. See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 9
MIN_SAMPLES = 100  # so that at least ten operation times lie above the p90
MIN_WINDOWS = 3
TIME_CAP_S = 150.0  # stop extending a run here, so the process exits within 180 s
PROBE_TIMEOUT_S = 60.0
# the longest gap between speed references that an operation may start after
REFERENCE_INTERVAL_S = 0.1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "compare", "contention"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = " ".join(str(blas.get(key, "")).strip()
                              for key in ("name", "version", "openblas configuration"))
    except (KeyError, TypeError):
        blas_build = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build,
        "blas_threads": {var: os.environ.get(var) for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Window:
    """A fixed number of consecutive rounds, timed together."""

    ops: list
    wall_s: float  # timed region only: checks and re-set-up excluded
    cpu_s: float
    # per operation: the run's fastest speed reference over the mean of the
    # references just before and just after it, in wall and in CPU time
    speed: list = field(default_factory=list)
    cpu_speed: list = field(default_factory=list)

    @property
    def decisions(self) -> int:
        return sum(op.decisions for op in self.ops)


def measure(wl, seconds: float, between=None):
    """Run ``wl`` in windows of ``wl.window_rounds`` rounds; return
    (windows, sim prefix ops, peak RSS in MB after the first window).
    ``between()``, if given, runs after each window, outside its timing.
    The workload's speed reference runs before an operation whenever
    REFERENCE_INTERVAL_S have passed since the last one, and after the last
    operation, also outside the timing.

    Windows continue until the sim_* prefix is done, ``seconds`` have passed,
    MIN_SAMPLES operations exist and there are MIN_WINDOWS windows; or until
    TIME_CAP_S. The peak RSS is read after set-up and one window, a fixed
    amount of work: the replay pool fills as training goes on, and a learner
    rebuilt for a new round may reuse freed heap that malloc must zero, so
    later readings depend on how far a run got.
    """
    refs = []  # (wall s, cpu s) of each speed reference
    op_refs = []  # per operation, the number of references taken before it
    last_ref = -math.inf

    def before_op():
        nonlocal last_ref
        if time.perf_counter() - last_ref >= REFERENCE_INTERVAL_S:
            refs.append(wl.reference())
            last_ref = time.perf_counter()
        op_refs.append(len(refs))

    wl.before_op = before_op
    windows: list[Window] = []
    prefix = None
    first_rss = None
    index = 0
    start = time.perf_counter()
    while True:
        w0, c0 = time.perf_counter(), time.process_time()
        u0, v0 = wl.untimed_wall_s, wl.untimed_cpu_s
        ops = []
        for _ in range(wl.window_rounds):
            ops.extend(wl.round(index))
            index += 1
            if index == wl.sim_rounds:
                prefix = [op for w in windows for op in w.ops] + ops
        windows.append(Window(
            ops,
            time.perf_counter() - w0 - (wl.untimed_wall_s - u0),
            time.process_time() - c0 - (wl.untimed_cpu_s - v0),
        ))
        if first_rss is None:
            first_rss = peak_rss_mb()
        if between is not None:
            between()
        elapsed = time.perf_counter() - start
        enough = (elapsed >= seconds
                  and len(windows) >= MIN_WINDOWS
                  and sum(len(w.ops) for w in windows) >= MIN_SAMPLES)
        if prefix is not None and (enough or elapsed >= TIME_CAP_S):
            break
    wl.before_op = None
    refs.append(wl.reference())
    best_wall = min(ref[0] for ref in refs)
    best_cpu = min(ref[1] for ref in refs)
    n_refs = iter(op_refs)
    for window in windows:
        for _ in window.ops:
            around = refs[next(n_refs) - 1:][:2]
            window.speed.append(best_wall / mean(ref[0] for ref in around))
            window.cpu_speed.append(best_cpu / mean(ref[1] for ref in around))
    return windows, prefix, first_rss


def timed_round(wl, index: int):
    """Run one round; return (ops, wall s of the timed region)."""
    u0 = wl.untimed_wall_s
    w0 = time.perf_counter()
    ops = wl.round(index)
    return ops, time.perf_counter() - w0 - (wl.untimed_wall_s - u0)


def setup_seconds(workload: str, seed: int) -> float:
    """Process start until the first episode is ready, in a fresh process."""
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        launched = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed), workdir],
            capture_output=True, text=True, check=True, timeout=PROBE_TIMEOUT_S,
        )
    return float(done.stdout.split()[-1]) - launched


def mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else float("nan")


def end_to_end(workloads, args):
    """Untraced run; returns (ops, failures, metrics, details).

    A shared host slows down in spells (measured on a 2-core VM: up to
    1.6x for 5-30 s at a time, CPU time included), so every window's times
    are scaled to the host's best speed in the run (see ``measure``). The
    episode percentiles pool every operation, each scaled by its own speed
    factor, which keeps at least 100 samples behind the p90. The rates sum
    over all windows, each window's wall and CPU time scaled by its
    operations' factors weighted by their times. The unscaled figures are
    in the details.
    """
    import numpy as np

    setups = []

    def probe():
        # spread over the run, so that a slow spell of the host hits few probes
        if len(setups) < SETUP_PROBES:
            setups.append(setup_seconds(args.workload, args.seed))

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        windows, prefix, rss = measure(wl, args.seconds, between=probe)
        wl.finish()
    while len(setups) < SETUP_PROBES:
        probe()
    ops = [op for w in windows for op in w.ops]
    medians = [float(np.median([op.ms for op in w.ops])) for w in windows]
    timed = [w for w in windows if w.decisions]
    decisions = sum(w.decisions for w in timed)

    def weighted(w, factors):
        return sum(op.ms * f for op, f in zip(w.ops, factors)) / sum(op.ms for op in w.ops)

    speed = [weighted(w, w.speed) for w in windows]
    decisions_per_s = decisions / sum(w.wall_s * weighted(w, w.speed) for w in timed)
    cpu_ms_per_decision = 1e3 * sum(
        w.cpu_s * weighted(w, w.cpu_speed) for w in timed) / decisions
    scaled = [op.ms * f for w in timed for op, f in zip(w.ops, w.speed)]
    p50, p90 = np.percentile(scaled, [50, 90])
    sim_ops = [op for op in prefix if op.sim and op.ok]
    failed = sum(not op.ok for op in ops)
    metrics = {
        "decisions_per_s": decisions_per_s,
        "cpu_ms_per_decision": cpu_ms_per_decision,
        "episode_ms_p50": float(p50),
        "episode_ms_p90": float(p90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "ok_frac": 1.0 - failed / len(ops),
        "sim_makespan_s": mean(op.makespan for op in sim_ops),
        "sim_violation_pct": mean(op.violation for op in sim_ops),
    }
    raw = [op.ms for op in ops]
    raw_p50, raw_p90 = np.percentile(raw, [50, 90])
    details = {
        "windows": len(windows),
        "rounds_per_window": wl.window_rounds,
        "operations": len(ops),
        "decisions": sum(w.decisions for w in windows),
        "timed_wall_s": sum(w.wall_s for w in windows),
        "timed_cpu_s": sum(w.cpu_s for w in windows),
        "window_median_ms": medians,
        "window_speed": speed,
        "episode_samples_above_p90": int(sum(t > p90 for t in scaled)),
        "unscaled_episode_ms_p50": float(raw_p50),
        "unscaled_episode_ms_p90": float(raw_p90),
        "unscaled_decisions_per_s": sum(w.decisions for w in windows) / sum(w.wall_s for w in windows),
        "sim_rounds": wl.sim_rounds,
        "sim_operations": len(sim_ops),
        "setup_samples_s": setups,
    }
    return ops, wl.failures, metrics, details


def per_layer(workloads, args):
    """The same rounds untraced and traced, alternating round by round so
    that both sides meet the same host speed; returns (ops of both sides,
    failures, metrics, details)."""
    from tracing import KERNEL_SPANS, MODULES, Tracer

    cls = workloads.WORKLOADS[args.workload]
    tracer = Tracer()

    def traced(fn, *fn_args):
        tracer.install()
        try:
            return fn(*fn_args)
        finally:
            tracer.uninstall()

    plain_ops, ops, ratios = [], [], []
    plain_wall = wall = 0.0
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        plain = cls(args.seed, workdir)
        wl = traced(cls, args.seed, workdir, tracer)
        for index in range(cls.trace_rounds):
            round_ops, round_wall = timed_round(plain, index)
            plain_ops += round_ops
            plain_wall += round_wall
            round_ops, traced_wall = traced(timed_round, wl, index)
            ops += round_ops
            wall += traced_wall
            ratios.append(traced_wall / round_wall)
        plain.finish()
        traced(wl.finish)
    tracer.save(OUT_DIR / f"spans_{args.workload}.npz")
    identical = [op.outcome() for op in plain_ops] == [op.outcome() for op in ops]
    failures = plain.failures + wl.failures
    if not identical:
        failures.append("traced run simulated different results from the untraced run")

    t = tracer
    decisions = sum(op.decisions for op in ops)
    episode_s = sum(op.ms for op in ops) / 1e3
    kernel_s = sum(t.self_s(span) for span in KERNEL_SPANS)
    ready_calls = t.calls("sim_engine.collect_ready")

    def us(span):
        return t.per_call(span, 1e6)

    def ms(span):
        return t.per_call(span, 1e3)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {
        "dqn_core.DqnLearner.observe.us_per_call": us("dqn_core.DqnLearner.observe"),
        "dqn_core.train_step.calls": t.calls("dqn_core.train_step"),
        "dqn_core.ReplayBuffer.sample.us_per_call": us("dqn_core.ReplayBuffer.sample"),
        "dqn_core.compute_targets.us_per_call": us("dqn_core.compute_targets"),
        "dqn_core.loss_and_grads.us_per_call": us("dqn_core.loss_and_grads"),
        "dqn_core.AdamState.apply.us_per_call": us("dqn_core.AdamState.apply"),
        "dqn_core.sync_target.calls": t.calls("dqn_core.sync_target"),
        "dqn_core.DqnLearner.act.us_per_call": us("dqn_core.DqnLearner.act"),
        "dqn_core.ValueNetwork.forward.us_per_call": us("dqn_core.ValueNetwork.forward"),
        "dqn_core.save_checkpoint.ms": ms("dqn_core.save_checkpoint"),
        "dqn_core.load_checkpoint.ms": ms("dqn_core.load_checkpoint"),
        "dqn_core.learner_share": ratio(
            t.inclusive_s("dqn_core.DqnLearner.act") + t.inclusive_s("dqn_core.DqnLearner.observe"),
            episode_s),
        "dqn_core.loss_mean": mean(t.losses) if t.losses else 0.0,
        "sim_engine.run.self_ms_per_decision": ratio(1e3 * t.self_s("sim_engine.run"), decisions),
        "sim_engine.collect_ready.calls": ready_calls,
        "sim_engine.collect_ready.us_per_call": us("sim_engine.collect_ready"),
        "sim_engine.collect_ready.empty_frac": ratio(t.empty_ready, ready_calls),
        "sim_engine.observe_state.us_per_call": us("sim_engine.observe_state"),
        # every event the kernel pops is followed by exactly one collect_ready scan
        "sim_engine.events_per_s": ratio(ready_calls, kernel_s),
        "sim_engine.SimulationTrace.to_csv.ms_per_call": ms("sim_engine.SimulationTrace.to_csv"),
        "sim_engine.self_share_of_run": ratio(kernel_s, t.inclusive_s("sim_engine.run")),
        "mec_model.transfer_time.calls_per_decision": ratio(t.calls("mec_model.transfer_time"), decisions),
        "mec_model.execution_time.calls_per_decision": ratio(t.calls("mec_model.execution_time"), decisions),
        "mec_model.transition_capability.us_per_call": us("mec_model.transition_capability"),
        "mdp_agent.DqnScheduler.decide.us_per_call": us("mdp_agent.DqnScheduler.decide"),
        "mdp_agent.normalize_state.us_per_call": us("mdp_agent.normalize_state"),
        "mdp_agent.compute_reward.us_per_call": us("mdp_agent.compute_reward"),
        "mdp_agent.episode_reward_mean": mean(op.reward for op in ops if op.ok),
        "baselines.GreedyEftScheduler.decide.us_per_call": us("baselines.GreedyEftScheduler.decide"),
        "baselines.HeftStyleScheduler.decide.us_per_call": us("baselines.HeftStyleScheduler.decide"),
        "baselines.upward_rank.us_per_call": us("baselines.upward_rank"),
        "baselines.RandomScheduler.decide.us_per_call": us("baselines.RandomScheduler.decide"),
        "task_graph.compute_lct.us_per_call": us("task_graph.compute_lct"),
        "task_graph.build_priority_list.us_per_call": us("task_graph.build_priority_list"),
        "task_graph.save_workload_file.ms_per_call": ms("task_graph.save_workload_file"),
        "task_graph.load_workload_file.ms_per_call": ms("task_graph.load_workload_file"),
        "workload.generate.ms_per_call": ms("workload.generate"),
        "workload.generate.calls": t.calls("workload.generate"),
        "experiment.prepare_graphs.ms_per_call": ms("experiment.prepare_graphs"),
        "experiment.build_chains.us_per_call": us("experiment.build_chains"),
        "rng.stream.calls": t.calls("rng.stream"),
        "rng.stream.us_per_call": us("rng.stream"),
        "trace.overhead_pct": 100.0 * (statistics.median(ratios) - 1.0),
        "failed_frac": sum(not op.ok for op in plain_ops + ops) / len(plain_ops + ops),
    }
    for module in MODULES:
        metrics[f"{module}.self_share"] = ratio(t.module_self_s(module), wall)
    details = {
        "rounds": cls.trace_rounds,
        "operations": len(ops),
        "decisions": decisions,
        "untraced_wall_s": plain_wall,
        "traced_wall_s": wall,
        "spans": t.span_count,
        "missing_patch_points": t.missing,
        "identical": identical,
    }
    return plain_ops + ops, failures, metrics, details


def declared_metrics(trace: int) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        declared = declared_metrics(args.trace)
        import workloads
    except (OSError, ImportError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    run = per_layer if args.trace else end_to_end
    ops, failures, values, details = run(workloads, args)

    correct = not failures
    metrics = {}
    for entry in declared:
        value = float(values[entry["name"]])
        if not math.isfinite(value):
            failures.append(f"{entry['name']} is not finite")
            correct, value = False, 0.0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "metrics": metrics,
    }

    record = {"provenance": provenance(args), "details": details,
              "failures": failures, **result}
    path = OUT_DIR / f"result_{args.workload}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("# provenance " + json.dumps(record["provenance"]))
    print("# details " + json.dumps(details))
    for problem in failures:
        print(f"# FAILED {problem}")
    for name, entry in metrics.items():
        print(f"# {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
