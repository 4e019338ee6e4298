import json
import re

import numpy as np
import pytest

from fedopt.cli import _write_outputs, main
from fedopt.config import ConfigError, emit_config, parse_config
from fedopt.orchestrator import ExperimentConfig, RoundRecord, RunResult

SMALL = """
n_clients = 3
rounds = 3
n_classes = 3
n_per_class = 30
feature_dim = 4
spread = 2.0
finetune_max_epochs = 10
finetune_patience = 2
"""


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(SMALL)
    return path


class TestParseConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        cfg = parse_config(str(path))
        assert cfg.n_clients == 8
        assert cfg.rounds == 100
        assert cfg.local_epochs == 1
        assert cfg.c_ratio == 1.0
        assert cfg.split_ratio == 0.8

    def test_out_of_range_names_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("c_ratio = 1.5\n")
        with pytest.raises(ConfigError, match="c_ratio"):
            parse_config(str(path))

    def test_unknown_key_rejected_with_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("rounds = 5\nbogus_key = 1\n")
        with pytest.raises(ConfigError, match="line 2.*bogus_key"):
            parse_config(str(path))

    def test_bad_value_names_key_and_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("rounds = many\n")
        with pytest.raises(ConfigError, match="line 1"):
            parse_config(str(path))

    def test_comments_and_sections(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("# experiment\nrounds = 7  # short\nagent.gamma = 0.5\nreward.lambda = 0.05\n")
        cfg = parse_config(str(path))
        assert cfg.rounds == 7
        assert cfg.agent.gamma == 0.5
        assert cfg.reward.lam == 0.05

    @pytest.mark.parametrize("line,key", [
        ("lr = 0", "lr"), ("lr = -0.1", "lr"), ("lr = nan", "lr"),
        ("batch_size = 0", "batch_size"), ("batch_size = -4", "batch_size"),
    ])
    def test_non_positive_step_settings_rejected(self, tmp_path, line, key):
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ConfigError, match=key):
            parse_config(str(path))
        assert main(["validate-config", "--config", str(path)]) == 2
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("line,key", [
        ("agent.batch_size = 0", "batch_size"), ("agent.hidden = 0", "hidden"),
        ("hidden_dims = 0", "hidden_dims"), ("hidden_dims = 8,0", "hidden_dims"),
        ("n_classes = 1", "n_classes"), ("dirichlet_alpha = 0", "dirichlet_alpha"),
        ("cda_depth = -1", "cda_depth"), ("seed_data = -1", "seed_data"),
        ("seed_sampling = -1", "seed_sampling"),
        ("n_per_class = 0", "n_per_class"), ("feature_dim = 0", "feature_dim"),
        ("agent.buffer_capacity = 16", "agent.buffer_capacity"),
        ("agent.batch_size = 20000", "agent.buffer_capacity"),
        ("agent.soft_update_tau = 0", "agent.soft_update_tau"),
        ("agent.soft_update_tau = -0.5", "agent.soft_update_tau"),
        ("agent.soft_update_tau = 1.5", "agent.soft_update_tau"),
        ("agent.soft_update_tau = nan", "agent.soft_update_tau"),
        # every float must be finite, and these keys have ranges
        ("prox_mu = nan", "prox_mu"), ("prox_mu = -0.1", "prox_mu"),
        ("fedavgm_beta = nan", "fedavgm_beta"), ("fedavgm_beta = 1", "fedavgm_beta"),
        ("fedavgm_beta = -0.1", "fedavgm_beta"),
        ("fedavgm_server_lr = 0", "fedavgm_server_lr"),
        ("fedavgm_server_lr = -1", "fedavgm_server_lr"),
        ("spread = 0", "spread"), ("spread = nan", "spread"), ("spread = inf", "spread"),
        ("agent.epsilon_start = nan", "agent.epsilon_start"),
        ("agent.epsilon_start = 1.5", "agent.epsilon_start"),
        ("agent.epsilon_start = 0.05", "agent.epsilon_start"),  # below the default end 0.1
        ("agent.epsilon_end = -0.1", "agent.epsilon_end"),
        ("agent.epsilon_decay = inf", "agent.epsilon_decay"),
        ("agent.actor_lr = -0.001", "agent.actor_lr"),
        ("agent.critic_lr = -1", "agent.critic_lr"), ("agent.critic_lr = nan", "agent.critic_lr"),
        ("reward.lambda = nan", "reward.lambda"), ("c_ratio = -inf", "c_ratio"),
    ])
    def test_values_that_fail_at_run_time_are_rejected(self, tmp_path, line, key):
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ConfigError, match=key):
            parse_config(str(path))
        assert main(["validate-config", "--config", str(path)]) == 2
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("lines", [
        "agent.actor_lr = 0\nagent.critic_lr = 0\n",  # the frozen agent
        "aggregation = fedprox\nprox_mu = 0\n",
        "aggregation = fedavgm\nfedavgm_beta = 0\n",
        "agent.epsilon_start = 0\nagent.epsilon_end = 0\n",
        "agent.epsilon_start = 1\nagent.epsilon_end = 1\n",
    ])
    def test_zero_and_edge_values_stay_valid(self, tmp_path, lines):
        path = tmp_path / "edge.cfg"
        path.write_text(SMALL + lines)
        parse_config(str(path))
        assert main(["validate-config", "--config", str(path)]) == 0
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0

    def test_negative_seed_flag_rejected(self, tmp_path, caplog):
        assert main(["run", "--out", str(tmp_path / "o"), "--seed", "-1"]) == 2
        assert "seed_data must be >= 0" in caplog.text
        assert not (tmp_path / "o").exists()

    def test_roundtrip(self, tmp_path):
        cfg = ExperimentConfig(rounds=12, optimized_client=None, hidden_dims=[16, 8])
        cfg.agent.epsilon_decay = 0.05
        path = tmp_path / "rt.cfg"
        path.write_text(emit_config(cfg))
        assert parse_config(str(path)) == cfg


class TestCmdRun:
    def test_run_writes_artifacts(self, small_config, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", str(small_config), "--out", str(out)]) == 0
        rounds = (out / "rounds.jsonl").read_text().splitlines()
        assert len(rounds) == 3
        assert (out / "config.resolved.cfg").exists()
        assert (out / "finetune.jsonl").exists()
        summary = (out / "summary.csv").read_text().splitlines()
        labels = [line.split(",")[0] for line in summary[1:]]
        assert labels == ["naive_mean", "optimized"]

    def test_run_is_rerunnable_from_resolved_config(self, small_config, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        main(["run", "--config", str(small_config), "--out", str(out1)])
        main(["run", "--config", str(out1 / "config.resolved.cfg"), "--out", str(out2)])
        assert (out1 / "rounds.jsonl").read_bytes() == (out2 / "rounds.jsonl").read_bytes()

    def test_bad_config_exit_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("c_ratio = 9\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_diverged_run_exits_3_naming_round_and_client(self, tmp_path, caplog):
        cfg = tmp_path / "hot.cfg"
        cfg.write_text("n_clients = 4\nrounds = 3\nlr = 1000\n")
        out = tmp_path / "o"
        with np.errstate(all="ignore"):
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        assert re.search(r"runtime: round \d+: client \d+: non-finite", caplog.text)
        assert not (out / "rounds.jsonl").exists()
        assert not (out / "summary.csv").exists()

    def test_diverged_agent_exits_3_naming_round(self, tmp_path, caplog):
        # At this seed the reward reference fit decays toward 0, the reward
        # grows without bound and the actor's outputs turn NaN.
        cfg = tmp_path / "agent_long.cfg"
        cfg.write_text("n_clients = 4\nrounds = 400\nn_per_class = 100\n"
                       "action_strategy = weighted_metric\naggregation = fedprox\n")
        with np.errstate(all="ignore"):
            code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                         "--seed", "708060"])
        assert code == 3
        assert re.search(r"runtime: round \d+: client 0: non-finite fractions", caplog.text)

    def test_outputs_reject_non_finite_values(self, tmp_path):
        cfg = ExperimentConfig()
        record = RoundRecord(0, [0], [], {"reward": float("nan")}, "fedavg")
        result = RunResult(np.zeros(3), {}, [record], [], None, [2, 2])
        with pytest.raises(ValueError):
            _write_outputs(tmp_path / "o", cfg, result)
        assert not (tmp_path / "o").exists()

    def test_optimized_client_without_training_rows_exits_3_naming_it(self, tmp_path, caplog):
        cfg = tmp_path / "sparse.cfg"
        cfg.write_text("n_clients = 20\nn_per_class = 5\ndirichlet_alpha = 0.05\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--seed", "2"]) == 3
        assert "runtime: client 0: the optimized client has no training rows" in caplog.text
        assert not out.exists()

    def test_naive_all_run_without_validation_rows_exits_3(self, tmp_path, caplog):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("n_clients = 4\nrounds = 2\nn_classes = 3\nn_per_class = 1\n"
                       "optimized_client = none\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        assert ("runtime: no client has validation rows to evaluate "
                "(client 0, client 1, client 2, client 3)") in caplog.text
        assert not out.exists()

    def test_huge_buffer_capacity_runs(self, small_config, tmp_path):
        # The ring holds at most one transition a round, so a capacity far
        # beyond `rounds` allocates nothing extra and changes nothing.
        huge = tmp_path / "huge.cfg"
        huge.write_text(SMALL + "agent.buffer_capacity = 1000000000000\n")
        assert main(["run", "--config", str(huge), "--out", str(tmp_path / "huge")]) == 0
        assert main(["run", "--config", str(small_config), "--out", str(tmp_path / "std")]) == 0
        rounds = [(tmp_path / d / "rounds.jsonl").read_bytes() for d in ("huge", "std")]
        assert rounds[0] == rounds[1]

    def test_ablation_flag(self, small_config, tmp_path):
        out = tmp_path / "abl"
        assert main(["run", "--config", str(small_config), "--out", str(out),
                     "--ablation-naive-all"]) == 0
        first = json.loads((out / "rounds.jsonl").read_text().splitlines()[0])
        assert first["optimized"] is None


class TestCmdPlotData:
    def _run(self, small_config, tmp_path, extra=()):
        out = tmp_path / "run"
        main(["run", "--config", str(small_config), "--out", str(out), *extra])
        plots = tmp_path / "plots"
        assert main(["plot-data", "--rounds", str(out / "rounds.jsonl"),
                     "--out", str(plots)]) == 0
        return out, plots

    def test_series_lengths(self, small_config, tmp_path):
        _, plots = self._run(small_config, tmp_path)
        acc = (plots / "accuracy.csv").read_text().splitlines()
        assert len(acc) == 1 + 3
        fracs = (plots / "fractions.csv").read_text().splitlines()
        assert len(fracs[0].split(",")) == 1 + 3  # round + C columns
        assert (plots / "finetune.csv").exists()

    def test_ablation_optimized_equals_a_naive_series(self, small_config, tmp_path):
        out, plots = self._run(small_config, tmp_path, extra=("--ablation-naive-all",))
        records = [json.loads(l) for l in (out / "rounds.jsonl").read_text().splitlines()]
        acc = (plots / "accuracy.csv").read_text().splitlines()[1:]
        for rec, line in zip(records, acc):
            opt_col = float(line.split(",")[2])
            client0 = next(m for m in rec["client_metrics"] if m["client"] == 0)
            assert opt_col == pytest.approx(client0["accuracy"], abs=1e-6)

    def test_malformed_input(self, tmp_path):
        bad = tmp_path / "rounds.jsonl"
        bad.write_text('{"round": 0}\nnot json\n')
        assert main(["plot-data", "--rounds", str(bad), "--out", str(tmp_path / "p")]) == 3


class TestCmdBound:
    def test_zero_gap(self, capsys):
        assert main(["bound", "--Z", "0.5,0.5", "--z", "0.5,0.5"]) == 0
        assert "Omega    = 0.000000" in capsys.readouterr().out

    def test_hand_value(self, capsys):
        assert main(["bound", "--Z", "1,1", "--z", "0.5,0.5"]) == 0
        assert "4.712389" in capsys.readouterr().out

    def test_length_mismatch_usage_error(self):
        assert main(["bound", "--Z", "1,1", "--z", "0.5"]) == 1


class TestValidateConfig:
    def test_echoes_resolved(self, small_config, capsys):
        assert main(["validate-config", "--config", str(small_config)]) == 0
        out = capsys.readouterr().out
        assert "rounds = 3" in out
        assert "agent.gamma = 0.99" in out

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["validate-config", "--config", str(tmp_path / "nope.cfg")]) == 2
