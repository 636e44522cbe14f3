import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mecsched.cli import main
from mecsched.experiment import (
    _CONFIG_KEYS,
    _FIELD_NAMES,
    ExperimentConfig,
    TopologyConfig,
    build_devices,
    build_topology,
    cmd_compare,
    cmd_evaluate,
    cmd_gen_workload,
    cmd_train,
    load_config,
)
from mecsched.dqn_core import DqnLearner
from mecsched.mdp_agent import StateNorms, normalize_state, state_width
from mecsched.sim_engine import observe_state
from mecsched.task_graph import Task, load_workload_file
from mecsched.workload import WorkloadSpec


REPO_ROOT = Path(__file__).resolve().parent.parent


def tiny_config(master_seed=11, replications=2, episodes=2, n_apps=2):
    cfg = ExperimentConfig(
        workload=WorkloadSpec(n_apps=n_apps, lam=9.0, arrival_mode="rate"),
        replications=replications,
        schedulers=("random", "greedy_eft"),
        master_seed=master_seed,
        write_traces=True,
    )
    return replace(cfg, agent=replace(cfg.agent, episodes=episodes,
                                      buffer_capacity=5000, batch=16,
                                      hidden_sizes=(16, 8)))


# the values every key is tried with, as they would be written in a file
ODD_VALUES = ("nan", "inf", "-inf", "-1", "0", "1.5", "mystery", "")


def with_odd_values(test):
    for value in reversed(ODD_VALUES):
        test = example(value=value)(test)
    return test


def resolved(cfg, section, key):
    """The field ``[section] key`` sets in a loaded config."""
    holder = cfg if section == "experiment" else getattr(cfg, section)
    return getattr(holder, _FIELD_NAMES.get(key, key))


class TestConfigKeySweep:
    """Every key, written alone with an odd value, either loads as written
    (an empty list keeps its default) or is refused naming the file, the
    section and the key."""

    @pytest.mark.parametrize("section, key", [(section, key)
                                              for section, keys in _CONFIG_KEYS.items()
                                              for key in keys])
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @with_odd_values
    @given(value=st.one_of(st.floats().map(repr), st.integers(-1000, 1000).map(str),
                           st.text("abe019.-+%;_ ", max_size=8)))
    def test_loads_as_written_or_is_refused_by_key(self, tmp_path_factory, section, key,
                                                   value):
        path = tmp_path_factory.mktemp("sweep") / "odd.ini"
        path.write_text(f"[{section}]\n{key} = {value}\n", encoding="utf-8")
        try:
            cfg = load_config(path)
        except ValueError as exc:
            message = str(exc)
            assert message.startswith(f"{path}: [{section}] ")
            assert key in message
            return
        written = _CONFIG_KEYS[section][key](value.strip())
        default = resolved(load_config(), section, key)
        assert resolved(cfg, section, key) == (default if written == () else written)


class TestConfigFile:
    @pytest.mark.parametrize("n_devices", [2, 4, 8])
    def test_learner_input_width_follows_fleet(self, tmp_path, n_devices):
        path = tmp_path / "fleet.ini"
        path.write_text(f"[topology]\nn_devices = {n_devices}\n"
                        "[agent]\nhidden_sizes = 8\n")
        cfg = load_config(path)
        tc = cfg.topology
        devices = build_devices(tc)
        obs = observe_state(0.0, build_topology(tc), devices,
                            [Task(1, 300.0)], {1: 2.0})
        state = normalize_state(obs, StateNorms())
        assert state.shape == (state_width(n_devices),)
        learner = DqnLearner(cfg.agent, n_devices + 1, np.random.default_rng(0),
                             np.random.default_rng(1), np.random.default_rng(2))
        assert learner.net.layer_sizes[0] == state_width(n_devices)
        assert learner.n_devices == n_devices
        assert 0 <= learner.act(state) < n_devices

    def test_defaults_match_reference_setup(self):
        cfg = load_config(None)
        assert cfg.topology.n_devices == 4
        assert cfg.topology.capability_levels == (6000.0, 5500.0, 5000.0, 4500.0, 4000.0)
        assert cfg.topology.inter_rate_mbps == 440.0
        assert cfg.topology.uplink_mbps == 1000.0
        assert cfg.agent.gamma == 0.95
        assert cfg.agent.learning_rate == 0.0006
        assert cfg.agent.batch == 64
        assert cfg.agent.buffer_capacity == 200000
        assert cfg.reward.beta == 0.6
        assert cfg.reward.psi == 5.0
        assert cfg.reward.eta == 40.0
        assert cfg.replications == 30
        rows = np.array(cfg.topology.transition_matrix)
        assert rows.shape == (5, 5)
        assert np.allclose(rows.sum(axis=1), 1.0)

    def test_file_overrides(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[topology]\nn_devices = 2\ninter_rate_mbps = 100\n"
            "capability_levels = 5000 4000\n"
            "transition_matrix = 0.5 0.5 ; 0.25 0.75\n"
            "[workload]\nn_apps = 3\nlam = 5\narrival_mode = rate\n"
            "[agent]\nepisodes = 7\nbatch = 8\n"
            "[reward]\nbeta = 0.5\nclamp_early = true\n"
            "[experiment]\nreplications = 4\nschedulers = random\nmaster_seed = 99\n"
            "lams = 5 7\n"
        )
        cfg = load_config(path)
        assert cfg.topology.n_devices == 2
        assert cfg.topology.capability_levels == (5000.0, 4000.0)
        assert cfg.topology.transition_matrix == ((0.5, 0.5), (0.25, 0.75))
        assert cfg.workload.n_apps == 3
        assert cfg.workload.n_devices == 2
        assert cfg.agent.episodes == 7
        assert cfg.reward.beta == 0.5
        assert cfg.reward.clamp_early is True
        assert cfg.replications == 4
        assert cfg.compare_lams == (5.0, 7.0)
        assert cfg.master_seed == 99

    @pytest.mark.parametrize("text, message", [
        ("[agent]\nepsiln_end = 0.5\n", r"unknown config key 'epsiln_end' in \[agent\]"),
        ("[topology]\nn_apps = 3\n", r"unknown config key 'n_apps' in \[topology\]"),
        ("[agents]\nepisodes = 3\n", r"unknown config section \[agents\]"),
        ("[agent]\nepisodes = many\n", r"\[agent\] episodes: invalid literal"),
        ("[agent]\npool = 10\n", r"\[agent\] pool must be >= batch"),
        ("[workload]\nlam = nan\n", r"\[workload\] lam must be positive and finite"),
        ("[workload]\nmean_rate_mbps = 0\n",
         r"\[workload\] mean_rate_mbps must be positive and finite"),
        ("[workload]\ndeadline_capability_mips = -1\n",
         r"\[workload\] deadline_capability_mips must be positive and finite"),
        ("[workload]\nshape = montage26\n", r"\[workload\] shape must be one of .*'montage26'"),
        ("[agent]\nhidden_activation = tanh\n",
         r"\[agent\] hidden_activation must be one of .*'tanh'"),
        ("[agent]\nhidden_activation = linear\n",
         r"\[agent\] hidden_activation must be one of .*'linear'"),
        ("[experiment]\nreplications = 0\n",
         r"bad\.ini: \[experiment\] replications must be >= 1"),
        ("[experiment]\nschedulers = dqn mystery\n",
         r"bad\.ini: \[experiment\] schedulers .*'mystery'"),
        ("[experiment]\nschedulers = dueling\n",
         r"bad\.ini: \[experiment\] schedulers .*'dueling'"),
        ("[topology]\nn_devices = 0\n", r"bad\.ini: \[topology\] n_devices must be >= 1"),
        ("[topology]\nuplink_mbps = nan\n",
         r"bad\.ini: \[topology\] uplink_mbps must be positive and finite"),
        ("[topology]\ninter_rate_mbps = inf\n",
         r"bad\.ini: \[topology\] inter_rate_mbps must be positive and finite"),
        ("[topology]\ninter_rate_mbps = 0\n",
         r"bad\.ini: \[topology\] inter_rate_mbps must be positive and finite"),
        ("[topology]\ncapability_levels = 6000 nan 5000 4500 4000\n",
         r"bad\.ini: \[topology\] capability_levels must be .*positive, finite"),
        ("[topology]\ncapability_levels = 6000 -1\ntransition_matrix = 0.5 0.5; 0.5 0.5\n",
         r"bad\.ini: \[topology\] capability_levels must be .*positive, finite"),
        ("[topology]\ncapability_levels = 6000 5000\ntransition_matrix = nan 1; 0.5 0.5\n",
         r"bad\.ini: \[topology\] transition_matrix entries must be finite and non-negative"),
        ("[topology]\ncapability_levels = 6000 5000\ntransition_matrix = 0.5 0.5; 0.5 0.6\n",
         r"bad\.ini: \[topology\] transition_matrix rows must sum to 1"),
        ("[topology]\ncapability_levels = 6000 5000\ntransition_matrix = 0.5 0.5; 1\n",
         r"bad\.ini: \[topology\] transition_matrix must be square"),
        ("[topology]\ntransition_matrix = 0.5 0.5; 0.5 0.5\n",
         r"bad\.ini: \[topology\] transition_matrix must have one row per "
         r"capability_levels entry \(5\), got 2 rows"),
        ("[topology]\ncapability_levels = 1.5\n",
         r"bad\.ini: \[topology\] transition_matrix must have one row per "
         r"capability_levels entry \(1\), got 5 rows"),
        ("[reward]\neta = nan\n", r"bad\.ini: \[reward\] eta must be finite, got nan"),
        ("[reward]\npsi = inf\n", r"bad\.ini: \[reward\] psi must be finite, got inf"),
        ("[reward]\nbeta = -inf\n", r"bad\.ini: \[reward\] beta must be finite, got -inf"),
        ("[agent]\nhidden_sizes = 0\n", r"bad\.ini: \[agent\] hidden_sizes must each be >= 1"),
        ("[agent]\nhidden_sizes = 16 -3\n",
         r"bad\.ini: \[agent\] hidden_sizes must each be >= 1"),
        ("[experiment]\nlams = 5 -1\n",
         r"bad\.ini: \[experiment\] lams must each be positive and finite, got -1\.0"),
        ("[experiment]\nlams = 0\n",
         r"bad\.ini: \[experiment\] lams must each be positive and finite, got 0\.0"),
        ("[experiment]\nlams = nan\n",
         r"bad\.ini: \[experiment\] lams must each be positive and finite, got nan"),
        ("[experiment]\nlams = 7 inf\n",
         r"bad\.ini: \[experiment\] lams must each be positive and finite, got inf"),
        ("[workload]\nworkload_range = 0 0\n",
         r"bad\.ini: \[workload\] workload_range must be two finite numbers 0 < low"),
        ("[agent]\nepisodes = 5%\n", r"bad\.ini: \[agent\] episodes: invalid literal"),
    ], ids=["misspelt-key", "key-of-other-section", "unknown-section", "bad-value",
            "pool-below-batch", "nan-lam", "zero-rate", "negative-deadline-capability",
            "unknown-shape", "unknown-activation", "retired-activation", "no-replications",
            "unknown-scheduler", "retired-scheduler", "no-devices", "nan-uplink",
            "inf-inter-rate", "zero-inter-rate", "nan-level", "negative-level",
            "nan-transition", "row-sum", "ragged-matrix", "matrix-size", "single-level",
            "nan-eta", "inf-psi", "inf-beta", "zero-hidden-size", "negative-hidden-size",
            "negative-lam-sweep", "zero-lam-sweep", "nan-lam-sweep", "inf-lam-sweep",
            "zero-workload-range", "percent-sign"])
    def test_bad_keys_rejected_with_location(self, tmp_path, text, message):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_config(path)

    @pytest.mark.parametrize("name", ["sample-config.ini", "perfbench/configs/reference.ini",
                                      "perfbench/configs/contention.ini"])
    def test_shipped_configs_load(self, name):
        cfg = load_config(REPO_ROOT / name)
        assert cfg.replications == 30

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(schedulers=("dqn", "mystery"))

    def test_workload_fleet_must_match_topology(self):
        # homes are drawn from the workload's fleet, devices built from the topology's
        with pytest.raises(ValueError, match=r"workload\.n_devices \(4\) must equal "
                                             r"topology\.n_devices \(8\)"):
            ExperimentConfig(topology=TopologyConfig(n_devices=8))
        with pytest.raises(ValueError, match=r"\(4\).*\(2\)"):
            load_config(None, {"topology": TopologyConfig(n_devices=2)})
        cfg = ExperimentConfig(topology=TopologyConfig(n_devices=8),
                               workload=WorkloadSpec(n_devices=8))
        assert cfg.workload.n_devices == cfg.topology.n_devices == 8

    FLAGS = [("reward", "clamp_early"), ("experiment", "write_traces")]

    @staticmethod
    def read_flag(cfg, section, key):
        return getattr(cfg.reward if section == "reward" else cfg, key)

    @pytest.mark.parametrize("section, key", FLAGS)
    @pytest.mark.parametrize("word, value", [("1", True), ("TRUE", True), ("Yes", True),
                                             ("0", False), ("false", False), ("NO", False)])
    def test_flag_words_in_any_case(self, tmp_path, section, key, word, value):
        path = tmp_path / "flags.ini"
        path.write_text(f"[{section}]\n{key} = {word}\n")
        assert self.read_flag(load_config(path), section, key) is value

    @pytest.mark.parametrize("section, key", FLAGS)
    @pytest.mark.parametrize("word", ["maybe", "2", "on", ""])
    def test_other_flag_words_refused_by_key(self, tmp_path, section, key, word):
        """Before, any word but 1, true or yes loaded silently as False."""
        path = tmp_path / "flags.ini"
        path.write_text(f"[{section}]\n{key} = {word}\n")
        with pytest.raises(ValueError, match=rf"flags\.ini: \[{section}\] {key}: expected "
                                             rf"1/0, true/false or yes/no, got '{word}'"):
            load_config(path)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_range_ends_accepted(self, tmp_path, seed):
        path = tmp_path / "seed.ini"
        path.write_text(f"[experiment]\nmaster_seed = {seed}\n")
        assert load_config(path).master_seed == seed
        assert replace(ExperimentConfig(), master_seed=seed).master_seed == seed

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1])
    def test_seed_outside_64_bits_refused(self, tmp_path, seed):
        """rng.stream keeps a seed's low 64 bits: -1 would run as 2**64 - 1,
        and 2**64 + 1 as seed 1."""
        path = tmp_path / "seed.ini"
        path.write_text(f"[experiment]\nmaster_seed = {seed}\n")
        message = rf"master_seed must lie in \[0, 2\*\*64\), got {seed}"
        with pytest.raises(ValueError, match=rf"seed\.ini: \[experiment\] {message}"):
            load_config(path)
        with pytest.raises(ValueError, match=f"^{message}"):
            replace(ExperimentConfig(), master_seed=seed)
        with pytest.raises(ValueError, match=f"^{message}"):
            load_config(None, {"master_seed": seed})  # what --seed passes


class TestGenWorkload:
    def test_writes_loadable_file(self, tmp_path):
        cfg = tiny_config()
        out = tmp_path / "apps.wl"
        graphs = cmd_gen_workload(cfg, out)
        assert load_workload_file(out) == graphs


class TestTrainCommand:
    def test_writes_checkpoint_and_curve(self, tmp_path):
        cfg = tiny_config()
        paths = cmd_train(cfg, tmp_path / "run")
        assert os.path.exists(paths["checkpoint"])
        lines = open(paths["curve"]).read().splitlines()
        assert lines[0] == "episode,cumulative_reward"
        assert len(lines) == 1 + cfg.agent.episodes

    def test_deterministic_outputs(self, tmp_path):
        cfg = tiny_config()
        a = cmd_train(cfg, tmp_path / "a")
        b = cmd_train(cfg, tmp_path / "b")
        assert open(a["curve"]).read() == open(b["curve"]).read()
        assert open(a["checkpoint"], "rb").read() == open(b["checkpoint"], "rb").read()


class TestEvaluateCommand:
    def test_checkpointless_random_policy(self, tmp_path):
        cfg = tiny_config()
        report = cmd_evaluate(cfg, tmp_path / "eval", scheduler="random")
        assert report.avg_makespans.shape == (cfg.replications,)
        assert ((0.0 <= report.violation_rates) & (report.violation_rates <= 100.0)).all()
        assert os.path.exists(tmp_path / "eval" / "evaluation.csv")

    def test_dqn_requires_checkpoint(self, tmp_path):
        with pytest.raises(ValueError, match="checkpoint"):
            cmd_evaluate(tiny_config(), tmp_path / "eval", scheduler="dqn")
        assert not (tmp_path / "eval").exists()

    def test_unknown_scheduler_refused_before_writing(self, tmp_path):
        out = tmp_path / "eval"
        with pytest.raises(ValueError, match="unknown scheduler 'mystery'"):
            cmd_evaluate(tiny_config(replications=3), out, scheduler="mystery")
        assert not out.exists()  # no workloads/ drawn ahead of the refusal

    def test_checkpoint_of_another_fleet_refused_before_writing(self, tmp_path):
        base = tiny_config()
        paths = cmd_train(base, tmp_path / "run")  # 4 devices
        cfg = replace(base, topology=TopologyConfig(n_devices=8),
                      workload=replace(base.workload, n_devices=8), schedulers=("dqn",))
        refusal = r"trained on 4 devices, but topology\.n_devices is 8"
        with pytest.raises(ValueError, match=refusal):
            cmd_evaluate(cfg, tmp_path / "eval", checkpoint=paths["checkpoint"],
                         scheduler="dqn")
        with pytest.raises(ValueError, match=refusal):
            cmd_compare(cfg, tmp_path / "cmp", checkpoint=paths["checkpoint"])
        assert not (tmp_path / "eval").exists()  # no workloads/ drawn ahead of the refusal
        assert not (tmp_path / "cmp").exists()

    def test_trained_checkpoint_evaluates(self, tmp_path):
        cfg = tiny_config()
        paths = cmd_train(cfg, tmp_path / "run")
        report = cmd_evaluate(cfg, tmp_path / "eval", checkpoint=paths["checkpoint"],
                              scheduler="dqn")
        assert report.scheduler == "dqn"
        assert np.isfinite(report.avg_makespans).all()


class TestCompareCommand:
    def test_replication_count_and_files(self, tmp_path):
        cfg = tiny_config(replications=3)
        reports = cmd_compare(cfg, tmp_path / "cmp")
        assert len(reports) == len(cfg.schedulers)
        for r in reports:
            assert r.avg_makespans.shape == (3,)
        assert os.path.exists(tmp_path / "cmp" / "comparison_lam9.csv")
        assert os.path.exists(tmp_path / "cmp" / "replications_lam9.csv")
        assert os.path.exists(tmp_path / "cmp" / "manifest.txt")

    def test_lambda_sweep_emits_one_table_each(self, tmp_path):
        cfg = replace(tiny_config(replications=1), compare_lams=(5.0, 7.0, 9.0))
        cmd_compare(cfg, tmp_path / "cmp")
        for lam in (5, 7, 9):
            assert os.path.exists(tmp_path / "cmp" / f"comparison_lam{lam}.csv")

    def test_schedulers_share_workload_files(self, tmp_path):
        cfg = tiny_config(replications=2)
        cmd_compare(cfg, tmp_path / "cmp")
        wl_dir = tmp_path / "cmp" / "workloads"
        files = sorted(os.listdir(wl_dir))
        assert [f for f in files if f.endswith(".wl")] == [
            "lam9_rep0.wl", "lam9_rep1.wl",
        ]

    def test_greedy_beats_random_on_congested_workload(self, tmp_path):
        cfg = replace(tiny_config(replications=6, n_apps=8), write_traces=False)
        reports = {r.scheduler: r for r in cmd_compare(cfg, tmp_path / "cmp")}
        assert reports["greedy_eft"].mean_makespan < reports["random"].mean_makespan

    def test_metrics_recompute_from_traces(self, tmp_path):
        cfg = tiny_config(replications=2)
        reports = cmd_compare(cfg, tmp_path / "cmp")
        wl_dir = tmp_path / "cmp" / "workloads"
        for r in reports:
            for rep in range(2):
                trace_path = wl_dir / f"trace_{r.scheduler}_lam9_rep{rep}.csv"
                rows = open(trace_path).read().splitlines()[1:]
                finishes, releases = {}, {}
                for row in rows:
                    cols = row.split(",")
                    if cols[1] == "completion" and cols[4] == "0" and cols[3] != "0":
                        finishes[int(cols[2])] = float(cols[6])
                    if cols[1] == "arrival":
                        releases[int(cols[2])] = float(cols[0])
                mks = [finishes[a] - releases[a] for a in finishes]
                recomputed = sum(mks) / len(mks)
                assert recomputed == pytest.approx(r.avg_makespans[rep], abs=1e-9)


class TestCli:
    def test_gen_workload_and_compare_round(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(
            "[workload]\nn_apps = 2\nlam = 9\narrival_mode = rate\n"
            "[agent]\nepisodes = 1\nbatch = 8\nhidden_sizes = 8 8\n"
            "[experiment]\nreplications = 1\nschedulers = random greedy_eft\n"
            "master_seed = 3\n"
        )
        wl_path = tmp_path / "apps.wl"
        assert main(["gen-workload", "--config", str(cfg_path), "--out", str(wl_path)]) == 0
        assert load_workload_file(wl_path)

        assert main(["compare", "--config", str(cfg_path),
                     "--out", str(tmp_path / "cmp")]) == 0
        out = capsys.readouterr().out
        assert "random" in out and "greedy_eft" in out

    def test_bad_config_is_reported_not_raised(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text("[experiment]\nschedulers = bogus\n")
        code = main(["compare", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_foreign_checkpoint_is_reported_not_raised(self, tmp_path, capsys):
        foreign = tmp_path / "foreign.npz"
        np.savez(foreign, weights=np.zeros(3))
        code = main(["evaluate", "--config", str(REPO_ROOT / "sample-config.ini"), "--checkpoint",
                     str(foreign), "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err == (f"error: {foreign}: checkpoint has no "
                                           f"member 'meta_json'\n")

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(
            "[workload]\nn_apps = 2\nlam = 9\narrival_mode = rate\n"
            "[experiment]\nreplications = 1\nschedulers = random\nmaster_seed = 3\n"
        )
        main(["gen-workload", "--config", str(cfg_path), "--out", str(tmp_path / "a.wl")])
        main(["gen-workload", "--config", str(cfg_path), "--seed", "4",
              "--out", str(tmp_path / "b.wl")])
        assert open(tmp_path / "a.wl").read() != open(tmp_path / "b.wl").read()
