"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line. The learned-scheduler criteria share a
single training run (the reference configuration with the arrival-rate
reading of lambda, which is the only reading under which deadline pressure
exists at all; see the decisions log for the analysis).
"""

import itertools
import os
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from conftest import UNIT_NORMS, full_state, random_app, real_tasks
from oracles import ScriptedScheduler, evaluate_schedule, fd_loss_gradients, value_iteration
from test_golden_training import RECORDED_UNDER, run_digest, versions
from mecsched import rng as rngmod
from mecsched.dqn_core import (
    DeviceScoringNetwork,
    DqnLearner,
    TrainConfig,
    loss_and_grads,
    save_checkpoint,
)
from mecsched.baselines import GreedyEftScheduler
from mecsched.experiment import (
    DEFAULT_TRANSITION_MATRIX,
    ExperimentConfig,
    build_chains,
    build_devices,
    build_topology,
    cmd_compare,
    prepare_graphs,
    train_agent,
)
from mecsched.mdp_agent import (
    RewardParams,
    DqnScheduler,
    StateVector,
    compute_reward,
    device_feature_index,
    normalize_state,
    state_width,
)
from mecsched.mec_model import CapabilityChain, EdgeDevice, NetworkTopology
from mecsched.sim_engine import DecisionContext, run
from mecsched.task_graph import compute_lct
from mecsched.workload import WorkloadSpec, generate


def _report(num: int, name: str, ok: bool, detail: str = "", note: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" [{note}]" if (note and not ok) else ""
    print(f"\nACCEPTANCE {num} ({name}): {verdict} {detail}{suffix}")
    assert ok, f"criterion {num} ({name}) failed: {detail}{suffix}"


def acceptance_config() -> ExperimentConfig:
    """Reference setup: 4 devices at 440/1000 Mbps, five capability levels,
    10 apps per episode at arrival rate 9/s, reward weights 0.6/5/40."""
    cfg = ExperimentConfig(
        workload=WorkloadSpec(n_apps=10, lam=9.0, arrival_mode="rate"),
        replications=30,
        schedulers=("dqn", "random", "greedy_eft"),
        master_seed=1,
    )
    assert cfg.agent.gamma == 0.95
    assert cfg.agent.learning_rate == 0.0006
    assert cfg.agent.batch == 64
    assert cfg.agent.buffer_capacity == 200000
    return replace(cfg, agent=replace(cfg.agent, episodes=800))


@pytest.fixture(scope="session")
def trained_setup(tmp_path_factory):
    cfg = acceptance_config()
    learner, curve = train_agent(cfg)
    checkpoint = tmp_path_factory.mktemp("agent") / "checkpoint.npz"
    save_checkpoint(learner, checkpoint)
    return cfg, learner, curve, str(checkpoint)


# The digest of the shared 800-episode run, hashed as test_golden_training
# hashes its short run; recorded under the versions named there, and to be
# re-recorded if it changes with a numpy or Python upgrade alone.
TRAINED_RUN_DIGEST = "9d84a88a2a3faf09cac5f0a5a6eacfebf8f28419b8daf9ae1ee2bade5ba94d42"


def test_trained_run_matches_recorded_digest(trained_setup):
    """Pins every bit of the late regime the short golden run never reaches:
    Adam past its bias correction, a nearly full pool and a mostly
    exploiting learner."""
    _, learner, curve, _ = trained_setup
    assert run_digest(learner, curve) == TRAINED_RUN_DIGEST, (
        f"the 800-episode run changed; recorded under {RECORDED_UNDER}, "
        f"this run uses {versions()}"
    )


# -- 1. timing-oracle equivalence -------------------------------------------


def test_criterion_1_timing_oracle_equivalence():
    started = time.time()
    rng = np.random.default_rng(1001)
    matrix = np.array(DEFAULT_TRANSITION_MATRIX)
    level_values = (6000.0, 5500.0, 5000.0, 4500.0, 4000.0)
    worst = 0.0
    n_assignments = 0
    for trial in range(200):
        n_real = int(rng.integers(1, 9))
        n_dev = 3 if n_real <= 5 else 2
        home = int(rng.integers(1, n_dev + 1))
        graph = random_app(rng, 1, n_real, release=float(rng.uniform(0.0, 1.0)))
        graph = replace(graph, home_ecd=home)
        rates = rng.uniform(200.0, 1200.0, size=(n_dev, n_dev))
        np.fill_diagonal(rates, 0.0)
        uplink = float(rng.uniform(500.0, 1500.0))
        topo = NetworkTopology(rates, uplink)
        graph = compute_lct(graph, max_capability=max(level_values),
                            max_rate=topo.max_rate, uplink_rate=uplink)
        rate_map = {(a + 1, b + 1): rates[a, b]
                    for a in range(n_dev) for b in range(n_dev) if a != b}

        # frozen per-device capability traces, replayed by seeded sampling
        chain_seed = 7000 + trial
        traces = {}
        for m in range(1, n_dev + 1):
            r = np.random.default_rng((chain_seed, m))
            level = 0
            levels = [level_values[0]]
            for _ in range(n_real + 2):
                level = int(r.choice(5, p=matrix[level]))
                levels.append(level_values[level])
            traces[m] = levels

        real_ids = [t.task_id for t in real_tasks(graph)]
        for combo in itertools.product(range(1, n_dev + 1), repeat=n_real):
            n_assignments += 1
            assignment = dict(zip(((1, t) for t in real_ids), combo))
            devices = [EdgeDevice(m, level_values) for m in range(1, n_dev + 1)]
            chains = [
                CapabilityChain(matrix, np.random.default_rng((chain_seed, m)))
                for m in range(1, n_dev + 1)
            ]
            trace = run([graph], topo, devices, ScriptedScheduler(assignment),
                        chains, record_rows=False)
            finish, makespans = evaluate_schedule(
                [graph], assignment, rate_map, uplink, traces)
            for key, a in trace.assignments.items():
                worst = max(worst, abs(finish[key] - a.finish))
            worst = max(worst, abs(makespans[1] - trace.app_makespans[1]))
    elapsed = time.time() - started
    _report(
        1, "timing oracle equivalence",
        worst <= 1e-9 and elapsed < 60.0,
        f"max |diff| = {worst:.2e} s over {n_assignments} assignment vectors "
        f"in {elapsed:.1f} s",
    )


# -- 2. gradient check -------------------------------------------------------


def test_criterion_2_gradient_check():
    rng = np.random.default_rng(1002)
    worst = 0.0
    probes = 0
    # the learner's network over fleets of 1-3 devices
    for sizes in ([state_width(1), 2, 1], [state_width(2), 4, 2], [state_width(3), 8, 8, 3]):
        net = DeviceScoringNetwork(sizes, device_feature_index(sizes[-1]), rng=rng)
        states = rng.normal(size=(8, sizes[0]))
        actions = rng.integers(0, sizes[-1], size=8)
        targets = rng.normal(size=8)
        _, grads = loss_and_grads(net, states, actions, targets)
        fd = fd_loss_gradients(net, states, actions, targets, h=1e-5,
                               probes=40, rng=rng)
        for g, pairs in zip(grads, fd):
            flat = g.ravel()
            for idx, fd_val in pairs:
                probes += 1
                denom = max(abs(fd_val), abs(flat[idx]), 1e-8)
                worst = max(worst, abs(flat[idx] - fd_val) / denom)
    _report(2, "analytic gradients vs finite differences",
            worst < 1e-4 and probes >= 100,
            f"max relative error {worst:.2e} over {probes} probes")


# -- 3. Markov capability chain ----------------------------------------------


def test_criterion_3_markov_chain_frequencies():
    matrix = np.array(DEFAULT_TRANSITION_MATRIX)
    worst = 0.0
    for row in range(5):
        chain = CapabilityChain(matrix, np.random.default_rng(1003 + row))
        counts = np.zeros(5)
        for _ in range(100_000):
            counts[chain.sample_next(row)] += 1
        worst = max(worst, np.abs(counts / counts.sum() - matrix[row]).max())
    _report(3, "capability chain empirical frequencies",
            worst < 0.01, f"max |freq - p| = {worst:.4f} over 1e5 samples/row")


# -- 4. learning-curve convergence -------------------------------------------


def greedy_eft_training_rewards(cfg: ExperimentConfig) -> np.ndarray:
    """Cumulative reward greedy-EFT earns on each training episode's own
    workload and capability streams (those ``train_agent`` draws)."""
    topo = build_topology(cfg.topology)
    rewards = []
    for episode in range(cfg.agent.episodes):
        graphs = generate(cfg.workload,
                          rngmod.stream(cfg.master_seed, "train-workload", episode))
        graphs = prepare_graphs(graphs, cfg.topology, topo)
        chains = build_chains(cfg.topology, cfg.master_seed, "train-capability", episode)
        trace = run(graphs, topo, build_devices(cfg.topology), GreedyEftScheduler(),
                    chains, cfg.reward, record_rows=False)
        rewards.append(trace.cumulative_reward)
    return np.array(rewards)


def test_criterion_4_learning_curve_convergence(trained_setup):
    cfg, _, curve, _ = trained_setup
    early_mean = curve[:100].mean()
    late_mean = curve[599:].mean()
    # Most of an episode's reward is the utility of its own workload draws,
    # which no policy changes; the spread is taken of the reward relative to
    # greedy-EFT on the same draws, so that it is the policy's own.
    relative = curve - greedy_eft_training_rewards(cfg)
    early_std = relative[:100].std()
    late_std = relative[699:].std()
    _report(
        4, "learning-curve trend",
        late_mean > early_mean and late_std < early_std,
        f"mean 1-100 {early_mean:.1f} vs 600-800 {late_mean:.1f}; "
        f"std of reward minus greedy-EFT's 1-100 {early_std:.2f} vs "
        f"700-800 {late_std:.2f}",
        note="see the README note on the learned-scheduler criteria",
    )


# -- 5. comparative ordering --------------------------------------------------


def test_criterion_5_comparative_ordering(trained_setup, tmp_path):
    cfg, _, _, checkpoint = trained_setup
    cfg = replace(cfg, compare_lams=(5.0, 7.0, 9.0))
    reports = cmd_compare(cfg, tmp_path / "cmp", checkpoint=checkpoint)
    by_key = {(r.scheduler, r.lam): r for r in reports}
    details = []
    ok = True
    for lam in (5.0, 7.0, 9.0):
        dqn = by_key[("dqn", lam)]
        rand = by_key[("random", lam)]
        eft = by_key[("greedy_eft", lam)]
        # makespan: not significantly worse (one-sided Welch at p = 0.05)
        p_rand = stats.ttest_ind(dqn.avg_makespans, rand.avg_makespans,
                                 equal_var=False, alternative="greater").pvalue
        p_eft = stats.ttest_ind(dqn.avg_makespans, eft.avg_makespans,
                                equal_var=False, alternative="greater").pvalue
        # violations: strictly lower than random (one-sided paired t)
        if np.allclose(dqn.violation_rates, rand.violation_rates):
            p_viol = 1.0
        else:
            p_viol = stats.ttest_rel(dqn.violation_rates, rand.violation_rates,
                                     alternative="less").pvalue
        lam_ok = p_rand >= 0.05 and p_eft >= 0.05 and p_viol < 0.05
        ok = ok and lam_ok
        details.append(
            f"lam={lam:g}: mk dqn/rand/eft = {dqn.mean_makespan:.3f}/"
            f"{rand.mean_makespan:.3f}/{eft.mean_makespan:.3f} "
            f"(p_worse_rand={p_rand:.3f}, p_worse_eft={p_eft:.3f}); "
            f"viol dqn/rand = {dqn.mean_violation_rate:.1f}%/"
            f"{rand.mean_violation_rate:.1f}% (p_less={p_viol:.4f})"
        )
    _report(5, "comparative ordering", ok, " | ".join(details),
            note="see the README note on the learned-scheduler criteria")


# -- 6. determinism ------------------------------------------------------------


def test_criterion_6_compare_determinism(tmp_path):
    cfg = ExperimentConfig(
        workload=WorkloadSpec(n_apps=3, lam=9.0, arrival_mode="rate"),
        replications=2,
        schedulers=("dqn", "random", "greedy_eft"),
        master_seed=17,
        write_traces=True,
    )
    cfg = replace(cfg, agent=replace(cfg.agent, episodes=2, batch=16,
                                     buffer_capacity=4000, hidden_sizes=(16, 8)))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cmd_compare(cfg, out_a)
    cmd_compare(cfg, out_b)
    mismatches = []
    files_a = sorted(
        os.path.join(root, f)
        for root, _, files in os.walk(out_a) for f in files
    )
    for path_a in files_a:
        rel = os.path.relpath(path_a, out_a)
        path_b = os.path.join(out_b, rel)
        if not os.path.exists(path_b):
            mismatches.append(f"{rel} missing")
        elif open(path_a, "rb").read() != open(path_b, "rb").read():
            mismatches.append(rel)
    _report(6, "byte-identical compare outputs",
            not mismatches and len(files_a) > 4,
            f"{len(files_a)} files compared" + (f"; mismatches: {mismatches}" if mismatches else ""))


# -- 7. toy-MDP sanity ----------------------------------------------------------


class PortDrivenToyEnv:
    """Two-state, two-action MDP exercised through the scheduler port.

    The immediate-best move in state 0 is suboptimal, so matching value
    iteration requires actual bootstrapping, not reward chasing.
    """

    TRANSITIONS = [[1, 0], [0, 1]]
    REWARDS = [[0.0, 1.0], [3.0, 1.0]]

    @staticmethod
    def embed(state: int) -> StateVector:
        """The state one-hot in the five aggregates, then a unit task whose
        slack is the state index, on two unit-capability devices with
        backlogs 0 and 1."""
        return full_state(*(1.0 if k == state else 0.0 for k in range(5)),
                          slack=state, backlog=(0.0, 1.0))

    def episode(self, scheduler: DqnScheduler, horizon: int = 40) -> None:
        state = 0
        for step in range(horizon):
            obs = self.embed(state)
            ctx = DecisionContext(
                now=float(step), app_id=1, task_id=step,
                valid_actions=(1, 2), finish_if=lambda m: 0.0, observe=lambda: obs,
            )
            action = scheduler.decide(ctx)
            move = action - 1
            reward = self.REWARDS[state][move]
            scheduler.notify_outcome(reward)
            state = self.TRANSITIONS[state][move]
        scheduler.end_episode(self.embed(state))


def test_criterion_7_toy_mdp_matches_value_iteration():
    env = PortDrivenToyEnv()
    _, optimal = value_iteration(env.TRANSITIONS, env.REWARDS, gamma=0.9)
    assert optimal == [0, 0]

    config = TrainConfig(gamma=0.9, batch=16, learning_rate=0.003,
                         buffer_capacity=4000, planned_steps=3200,
                         target_sync_steps=100, hidden_sizes=(16, 16),
                         episodes=80)
    learner = DqnLearner(config, 3, rngmod.stream(1007, "w"),
                         rngmod.stream(1007, "e"), rngmod.stream(1007, "r"))
    scheduler = DqnScheduler(learner, 2, norms=UNIT_NORMS)
    for _ in range(80):
        env.episode(scheduler)

    learned = []  # column k of the Q row is move k, device k + 1
    for state in (0, 1):
        q = learner.net.forward(normalize_state(env.embed(state), UNIT_NORMS))
        learned.append(int(np.argmax(q)))
    _report(7, "toy MDP greedy policy equals value iteration",
            learned == optimal, f"learned {learned}, optimal {optimal}")


# -- 8. reward-formula conformance ----------------------------------------------


def test_criterion_8_reward_formula_conformance():
    rng = np.random.default_rng(1008)
    params = RewardParams(beta=0.6, psi=5.0, eta=40.0)
    worst = 0.0
    for _ in range(1000):
        rho = float(rng.uniform(1.0, 2000.0))
        lct = float(rng.uniform(0.0, 50.0))
        arr = float(rng.uniform(0.0, 20.0))
        q = float(rng.uniform(0.0, 20.0))
        ex = float(rng.uniform(0.0, 5.0))
        fin = float(rng.uniform(0.0, 60.0))
        expected = (0.6 * np.log2(rho) - 5.0 * (arr + q + ex) / rho
                    - 40.0 * (fin - lct) / rho)
        got = compute_reward(rho, lct, arr, q, ex, fin, params)
        denom = max(abs(expected), 1e-300)
        worst = max(worst, abs(got - expected) / denom)
    _report(8, "reward closed-form conformance",
            worst <= 1e-12, f"max relative deviation {worst:.2e} over 1000 tuples")
