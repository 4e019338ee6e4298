import json
import logging
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fedopt

from fedopt.cli import _atomic_write, _bests, _per_round, _write_outputs, main
from fedopt.config import emit_config, parse_config
from fedopt.orchestrator import ExperimentConfig, RoundRecord, RunResult, run_federated
from tests.test_orchestrator import reference_client_metrics

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


def strict_json_lines(path):
    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")

    return [json.loads(line, parse_constant=reject) for line in path.read_text().splitlines()]


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
        with pytest.raises(ValueError, match="c_ratio"):
            parse_config(str(path))

    def test_unknown_key_rejected_with_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("rounds = 5\nbogus_key = 1\n")
        with pytest.raises(ValueError, match="line 2.*bogus_key"):
            parse_config(str(path))

    def test_bad_value_names_key_and_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("rounds = many\n")
        with pytest.raises(ValueError, match="line 1"):
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
        with pytest.raises(ValueError, match=key):
            parse_config(str(path))
        assert main(["validate-config", "--config", str(path)]) == 2
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("line,key", [
        ("agent.batch_size = 0", "batch_size"), ("agent.hidden = 0", "hidden"),
        ("hidden_dims = 0", "hidden_dims"), ("hidden_dims = 8,0", "hidden_dims"),
        ("n_classes = 1", "n_classes"), ("dirichlet_alpha = 0", "dirichlet_alpha"),
        ("cda_depth = -1", "cda_depth"), ("seed = -1", "seed"),
        ("n_per_class = 0", "n_per_class"), ("feature_dim = 0", "feature_dim"),
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
        ("agent.actor_lr = -0.001", "agent.actor_lr"),
        ("agent.critic_lr = -1", "agent.critic_lr"), ("agent.critic_lr = nan", "agent.critic_lr"),
        ("reward.lambda = nan", "reward.lambda"), ("c_ratio = -inf", "c_ratio"),
        ("finetune_patience = 0", "finetune_patience"),
        ("finetune_patience = -3", "finetune_patience"),
        ("finetune_max_epochs = -1", "finetune_max_epochs"),
    ])
    def test_values_that_fail_at_run_time_are_rejected(self, tmp_path, line, key):
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match=key):
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
        "finetune_patience = 1\nfinetune_max_epochs = 0\n",
    ])
    def test_zero_and_edge_values_stay_valid(self, tmp_path, lines):
        path = tmp_path / "edge.cfg"
        path.write_text(SMALL + lines)
        parse_config(str(path))
        assert main(["validate-config", "--config", str(path)]) == 0
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0

    def test_negative_seed_flag_rejected(self, tmp_path, caplog):
        assert main(["run", "--out", str(tmp_path / "o"), "--seed", "-1"]) == 2
        assert "config: seed must be >= 0" in caplog.text
        assert not (tmp_path / "o").exists()

    # Deleted keys: the four seed keys gave way to `seed`, n-step returns are
    # gone, and the replay buffer and the epsilon schedule are sized from `rounds`.
    @pytest.mark.parametrize("key", [*(f"seed_{s}" for s in ("data", "init", "agent", "sampling")),
                                     "agent.n_step", "agent.buffer_capacity",
                                     "agent.epsilon_decay"])
    def test_old_seed_keys_are_unknown(self, tmp_path, caplog, key):
        path = tmp_path / "old.cfg"
        path.write_text(f"{key} = 5\n")
        with pytest.raises(ValueError, match=f"line 1: unknown key '{key}'"):
            parse_config(str(path))
        assert main(["validate-config", "--config", str(path)]) == 2
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert f"unknown key '{key}'" in caplog.text
        assert not (tmp_path / "o").exists()

    def test_seed_flag_equals_seed_key(self, tmp_path):
        (tmp_path / "flag.cfg").write_text(SMALL)
        (tmp_path / "key.cfg").write_text(SMALL + "seed = 9\n")
        assert main(["run", "--config", str(tmp_path / "flag.cfg"), "--seed", "9",
                     "--out", str(tmp_path / "flag")]) == 0
        assert main(["run", "--config", str(tmp_path / "key.cfg"), "--out",
                     str(tmp_path / "key")]) == 0
        for name in ("config.resolved.cfg", "rounds.jsonl", "finetune.jsonl", "summary.csv"):
            flag, key = (tmp_path / run / name for run in ("flag", "key"))
            assert flag.read_bytes() == key.read_bytes(), name

    def test_roundtrip(self, tmp_path):
        cfg = ExperimentConfig(rounds=12, optimized_client=None, hidden_dims=[16, 8])
        cfg.agent.epsilon_end = 0.05
        path = tmp_path / "rt.cfg"
        path.write_text(emit_config(cfg))
        assert parse_config(str(path)) == cfg


def _fresh_cli(*argv: str, **env: str) -> subprocess.CompletedProcess:
    """`fedopt` with `argv` in a fresh interpreter, with `env` added to the
    environment, so warnings, tracebacks and log lines reach stderr as they do
    for a user."""
    return subprocess.run(
        [sys.executable, "-m", "fedopt.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(Path(fedopt.__file__).resolve().parents[1]), **env},
        capture_output=True, text=True, timeout=120,
    )


def _fresh_quickstart(tmp_path, extra: str) -> subprocess.CompletedProcess:
    """`fedopt run` on configs/quickstart.cfg plus `extra` in a fresh interpreter."""
    repo = Path(__file__).resolve().parents[1]
    cfg = tmp_path / "hot.cfg"
    cfg.write_text((repo / "configs" / "quickstart.cfg").read_text() + extra)
    return _fresh_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o"))


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

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o027, 0o640), (0o077, 0o600)])
    def test_artifacts_get_the_mode_the_umask_gives(self, small_config, tmp_path, umask, mode):
        out, plots = tmp_path / "out", tmp_path / "plots"
        old = os.umask(umask)
        try:
            assert main(["run", "--config", str(small_config), "--out", str(out)]) == 0
            assert main(["plot-data", "--rounds", str(out / "rounds.jsonl"),
                         "--out", str(plots)]) == 0
        finally:
            os.umask(old)
        modes = {p.name: p.stat().st_mode & 0o777 for p in [*out.iterdir(), *plots.iterdir()]}
        assert {"rounds.jsonl", "summary.csv", "accuracy.csv"} <= modes.keys()
        assert not any(name.endswith(".tmp") for name in modes)
        assert modes == dict.fromkeys(modes, mode)

    def test_atomic_write_removes_its_temp_file_on_failure(self, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            _atomic_write(tmp_path / "rounds.jsonl", "{}\n")
        assert list(tmp_path.iterdir()) == []

    def test_bad_config_exit_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("c_ratio = 9\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_diverged_run_exits_3_naming_round_and_client(self, tmp_path, caplog):
        cfg = tmp_path / "hot.cfg"
        cfg.write_text("n_clients = 4\nrounds = 3\nlr = 1000\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        assert re.search(r"runtime: round \d+: client \d+: non-finite", caplog.text)
        assert not (out / "rounds.jsonl").exists()
        assert not (out / "summary.csv").exists()

    @pytest.mark.parametrize("lr,where", [
        ("1e30", "round 0: client 3"),  # overflows in training
        ("5", "round 15: client 1"),  # grows huge but finite first: overflows in evaluation
    ])
    def test_diverged_quickstart_prints_only_its_error_line(self, tmp_path, lr, where):
        proc = _fresh_quickstart(tmp_path, f"lr = {lr}\n")
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [
            f"ERROR:fedopt:runtime: {where}: non-finite parameters (diverged)"]

    @pytest.mark.parametrize("rate,code,stderr", [
        # The critic overflows in its first update, then the actor it steers.
        ("critic_lr", 3,
         ["ERROR:fedopt:runtime: round 1: client 0: non-finite fractions (diverged)"]),
        # The actor's logits overflow, but its scaled sigmoid keeps every action finite.
        ("actor_lr", 0, []),
    ], ids=["critic", "actor"])
    def test_diverged_agent_prints_only_its_error_line(self, tmp_path, rate, code, stderr):
        proc = _fresh_quickstart(tmp_path, f"agent.batch_size = 1\nagent.{rate} = 1e300\n")
        assert proc.returncode == code
        assert proc.stderr.splitlines() == stderr

    @pytest.mark.parametrize("bad,message", [
        ("nan", "data row 5: non-finite feature"),
        ("inf", "data row 5: non-finite feature"),
        (None, "no feature column, only a label per row"),
    ], ids=["nan", "inf", "labels_only"])
    def test_csv_with_bad_feature_column_exits_3_naming_the_file(self, tmp_path, caplog, bad,
                                                                 message):
        rows = [f"{i % 3}.5,{i}.0,{i % 2}" for i in range(40)]
        if bad is None:
            rows = [row.rsplit(",", 1)[1] for row in rows]
        else:
            rows[4] = f"{bad},4.0,0"
        data = tmp_path / "bad.csv"
        data.write_text("\n".join(rows) + "\n")
        cfg = tmp_path / "csv.cfg"
        cfg.write_text(f"dataset_csv = {data}\nn_clients = 2\nrounds = 2\n")
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        assert f"runtime: {data}: {message}" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("edit", [
        lambda rows: ["f0,f1,label", *rows],
        lambda rows: [*rows[:4], "4.5,4.0", *rows[5:]],
    ], ids=["header_row", "ragged_row"])
    def test_csv_numpy_cannot_parse_exits_3_naming_the_file(self, tmp_path, caplog, edit):
        data = tmp_path / "bad.csv"
        data.write_text("\n".join(edit([f"{i % 3}.5,{i}.0,{i % 2}" for i in range(40)])) + "\n")
        cfg = tmp_path / "csv.cfg"
        cfg.write_text(f"dataset_csv = {data}\nn_clients = 2\nrounds = 2\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        assert f"runtime: {data}: " in caplog.text
        assert not out.exists()

    def test_ragged_csv_row_exits_3_naming_the_row_and_column_counts(self, tmp_path, caplog):
        data = tmp_path / "ragged.csv"
        data.write_text("1.0,2.0,0\n3.0,1\n4.0,5.0,1\n")
        cfg = tmp_path / "csv.cfg"
        cfg.write_text(f"dataset_csv = {data}\nn_clients = 2\nrounds = 2\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        assert f"runtime: {data}: data row 2 has 2 columns, expected 3\n" in caplog.text
        assert "usecols" not in caplog.text
        assert not out.exists()

    def test_rounds_jsonl_equals_the_per_client_encoding(self, tmp_path, monkeypatch):
        # The writer used to encode vars(record) with one dict per client and
        # round; 600 validation rows take two evaluation chunks.
        from fedopt import metrics, orchestrator

        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMALL.replace("n_per_class = 30", "n_per_class = 1000"))
        cfg = parse_config(str(cfg))
        per_round = []  # each round's global parameters and evaluated row count

        def spy(model, x, y, *rest):
            if rest:  # a per-round evaluation, not one of the fine-tune's
                per_round.append((model.params.copy(), len(y)))
            return metrics.evaluate(model, x, y, *rest)

        monkeypatch.setattr(orchestrator, "evaluate", spy)
        result = run_federated(cfg)
        _write_outputs(tmp_path / "o", cfg, result)
        assert len(per_round) == cfg.rounds and per_round[0][1] > metrics.EVAL_CHUNK
        expect = "".join(
            json.dumps({"round": r.round, "sampled": r.sampled,
                        "client_metrics": reference_client_metrics(cfg, params),
                        "optimized": r.optimized, "aggregation": r.aggregation},
                       sort_keys=True, allow_nan=False) + "\n"
            for r, (params, _) in zip(result.rounds, per_round))
        assert (tmp_path / "o" / "rounds.jsonl").read_text() == expect

    def test_decaying_reward_fit_falls_back_and_stays_finite(self, tmp_path):
        # At this seed the reference fit decays toward 0. Used as the reward's
        # denominator it made the reward grow without bound, and the actor
        # turned NaN at round 271; FIT_FLOOR makes such a fit fall back.
        cfg = tmp_path / "agent_long.cfg"
        cfg.write_text("n_clients = 4\nrounds = 400\nn_per_class = 100\n"
                       "action_strategy = weighted_metric\naggregation = fedprox\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--seed", "708060"]) == 0
        records = strict_json_lines(out / "rounds.jsonl")
        assert len(records) == 400
        assert all(0.0 < f <= 1.0 for r in records if r["optimized"]
                   for f in r["optimized"]["fractions"])
        assert strict_json_lines(out / "finetune.jsonl")
        for row in (out / "summary.csv").read_text().splitlines()[1:]:
            assert all(math.isfinite(float(v)) for v in row.split(",")[1:]), row

    def test_non_finite_action_exits_3_naming_round_and_client(self, small_config, tmp_path,
                                                               caplog, monkeypatch):
        from fedopt import agent

        monkeypatch.setattr(agent, "policy_action", lambda ac, state: np.full(len(state), np.nan))
        out = tmp_path / "o"
        assert main(["run", "--config", str(small_config), "--out", str(out)]) == 3
        assert "runtime: round 0: client 0: non-finite fractions (diverged)" in caplog.text
        assert not (out / "rounds.jsonl").exists()

    def test_round_without_training_rows_exits_3_naming_it(self, tmp_path, caplog):
        # The only sampled client holds no training rows, so nothing is aggregated.
        cfg = tmp_path / "sparse.cfg"
        cfg.write_text("n_clients = 4\nrounds = 2\nn_classes = 3\nn_per_class = 20\n"
                       "dirichlet_alpha = 1e-9\nc_ratio = 1e-9\nseed = 12\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        assert "runtime: round 0: no sampled client has training rows (client 3)" in caplog.text
        assert not out.exists()

    def test_outputs_reject_non_finite_values(self, tmp_path):
        cfg = ExperimentConfig()
        record = RoundRecord(0, [0], np.empty((0, 4)), [], {"reward": float("nan")}, "fedavg")
        result = RunResult(np.zeros(3), {}, [record], np.empty((1, 0, 4)), [], [])
        with pytest.raises(ValueError):
            _write_outputs(tmp_path / "o", cfg, result)
        assert not (tmp_path / "o").exists()

    def test_non_finite_score_writes_no_file(self, small_config, tmp_path):
        cfg = parse_config(str(small_config))
        result = run_federated(cfg)
        result.metrics[1, 0, 2] = np.nan  # a recall; round 1's record holds a view of it
        with pytest.raises(ValueError, match="non-finite"):
            _write_outputs(tmp_path / "o", cfg, result)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text,seed,naive_all", [
        # 20 clients: a round's naive mean is over more than 8 clients, where
        # numpy's pairwise summation starts.
        ("n_clients = 20\nrounds = 4\nn_per_class = 60\naggregation = fedprox\n", None, False),
        ("n_clients = 20\nrounds = 4\nn_per_class = 60\naggregation = fedprox\n", None, True),
        # Client 0 is never sampled at this seed.
        ("n_clients = 10\nc_ratio = 0.1\nrounds = 3\nn_per_class = 50\n", 1, False),
    ], ids=["many_naive", "naive_all", "optimized_never_sampled"])
    def test_writer_equals_the_per_record_oracle(self, tmp_path, text, seed, naive_all):
        # rounds.jsonl must be the json.dumps of each record's per-client
        # dicts, and summary.csv's floats the maxima of _per_round over the
        # records read back from it, as the writer once computed them.
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        cfg = parse_config(str(path))
        cfg.seed = cfg.seed if seed is None else seed
        if naive_all:
            cfg.optimized_client = None
        result = run_federated(cfg)
        out = tmp_path / "o"
        _write_outputs(out, cfg, result)
        assert (out / "rounds.jsonl").read_text() == "".join(
            json.dumps({"round": r.round, "sampled": r.sampled, "client_metrics": r.client_metrics,
                        "optimized": r.optimized, "aggregation": r.aggregation},
                       sort_keys=True, allow_nan=False) + "\n"
            for r in result.rounds)

        opt_id = cfg.optimized_client
        keys = ("precision", "recall", "accuracy")
        naive_best, opt_best = [0.0] * 3, [0.0] * 3
        records = strict_json_lines(out / "rounds.jsonl")
        for rec in records:
            _, naive, row = _per_round(rec, opt_id, opt_id)
            naive_best = [max(b, naive[k]) for b, k in zip(naive_best, keys)]
            if row:
                opt_best = [max(b, row[k]) for b, k in zip(opt_best, keys)]
        for e in strict_json_lines(out / "finetune.jsonl"):
            opt_best[2] = max(opt_best[2], e["val_accuracy"])
        want = {"naive_mean": naive_best}
        if opt_id is not None:
            want["optimized"] = opt_best
        assert _bests(result, opt_id) == want
        assert (out / "summary.csv").read_text().splitlines()[1:] == [
            f"{label},{p:.6f},{r:.6f},{a:.6f}" for label, (p, r, a) in want.items()]

        n_naive = sum(m["client"] != opt_id for m in records[0]["client_metrics"])
        sampled_0 = any(0 in rec["sampled"] for rec in records)
        assert (n_naive > 8) if seed is None else not (sampled_0 or records[0]["optimized"])

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
        assert ("runtime: no naive client has validation rows to evaluate "
                "(client 0, client 1, client 2, client 3)") in caplog.text
        assert not out.exists()

    def test_optimized_client_alone_exits_3(self, tmp_path, caplog):
        # Its naive mean used to fall back to the optimized client's own metrics.
        cfg = tmp_path / "one.cfg"
        cfg.write_text("n_clients = 1\nrounds = 3\nn_per_class = 50\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        assert ("runtime: no naive client has validation rows to evaluate "
                "(client 0 is the only client)") in caplog.text
        assert not out.exists()

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

    @staticmethod
    def _naive_mean_without_client_0(out, plots):
        """Check accuracy.csv's naive mean leaves optimized client 0 out of
        every round and peaks at summary.csv's; returns (records, rows)."""
        records = strict_json_lines(out / "rounds.jsonl")
        acc = [line.split(",") for line in (plots / "accuracy.csv").read_text().splitlines()[1:]]
        for rec, row in zip(records, acc, strict=True):
            naive = [m["accuracy"] for m in rec["client_metrics"] if m["client"] != 0]
            assert row[1] == f"{np.mean(naive):.6f}", rec["round"]
        summary = (out / "summary.csv").read_text().splitlines()[1].split(",")
        assert max(row[1] for row in acc) == summary[3]
        return records, acc

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

    def test_naive_mean_leaves_optimized_client_out_of_every_round(self, tmp_path):
        cfg = tmp_path / "partial.cfg"
        cfg.write_text(SMALL.replace("n_clients = 3", "n_clients = 4").replace("rounds = 3",
                                                                              "rounds = 8")
                       + "c_ratio = 0.5\n")
        records, _ = self._naive_mean_without_client_0(*self._run(cfg, tmp_path))
        assert any(r["optimized"] for r in records) and not all(r["optimized"] for r in records)

    def test_unsampled_optimized_client_stays_out_of_naive_mean(self, tmp_path):
        # Client 0 is never sampled, so no record has an optimized fragment;
        # the run's config still names it as the optimized client.
        cfg = tmp_path / "unsampled.cfg"
        cfg.write_text("n_clients = 10\nc_ratio = 0.1\nrounds = 3\nn_per_class = 50\n")
        run = self._run(cfg, tmp_path, extra=("--seed", "1"))
        records, acc = self._naive_mean_without_client_0(*run)
        assert not any(r["optimized"] for r in records)
        assert acc[0][:2] == ["0", "0.277778"]

    def test_missing_run_config_exits_3_naming_it(self, small_config, tmp_path, caplog):
        out = tmp_path / "run"
        assert main(["run", "--config", str(small_config), "--out", str(out)]) == 0
        (out / "config.resolved.cfg").unlink()
        plots = tmp_path / "plots"
        assert main(["plot-data", "--rounds", str(out / "rounds.jsonl"),
                     "--out", str(plots)]) == 3
        assert "config.resolved.cfg" in caplog.text
        assert not plots.exists()

    @pytest.mark.parametrize("line,old,key", [
        # A run written before the one `seed` key holds four seed keys.
        pytest.param("seed = 0\n",
                     "seed_data = 0\nseed_init = 1\nseed_agent = 2\nseed_sampling = 3\n",
                     "seed_data", id="seed_keys"),
        # One written before the buffer was sized from `rounds` holds its capacity.
        pytest.param("agent.batch_size = 32\n",
                     "agent.buffer_capacity = 10000\nagent.batch_size = 32\n",
                     "agent.buffer_capacity", id="buffer_capacity"),
    ])
    def test_old_run_config_exits_3_naming_it(self, small_config, tmp_path, caplog, line, old,
                                              key):
        out = tmp_path / "run"
        assert main(["run", "--config", str(small_config), "--out", str(out)]) == 0
        cfg = out / "config.resolved.cfg"
        assert line in cfg.read_text()
        cfg.write_text(cfg.read_text().replace(line, old))
        plots = tmp_path / "plots"
        assert main(["plot-data", "--rounds", str(out / "rounds.jsonl"),
                     "--out", str(plots)]) == 3
        assert re.search(f"plot-data: {re.escape(str(cfg))}: line \\d+: unknown key '{key}'",
                         caplog.text)
        assert not plots.exists()

    def test_non_utf8_run_config_exits_3_naming_it(self, small_config, tmp_path, caplog):
        out = tmp_path / "run"
        assert main(["run", "--config", str(small_config), "--out", str(out)]) == 0
        cfg = out / "config.resolved.cfg"
        cfg.write_bytes(cfg.read_bytes() + b"\xff\xfe")
        plots = tmp_path / "plots"
        assert main(["plot-data", "--rounds", str(out / "rounds.jsonl"),
                     "--out", str(plots)]) == 3
        assert f"plot-data: {cfg}: 'utf-8' codec can't decode byte 0xff" in caplog.text
        assert not plots.exists()

    @pytest.mark.parametrize("name", ["rounds.jsonl", "finetune.jsonl"])
    def test_non_utf8_records_exit_3_naming_file_and_line(self, small_config, tmp_path, caplog,
                                                          name):
        out = tmp_path / "run"
        assert main(["run", "--config", str(small_config), "--out", str(out)]) == 0
        path = out / name
        lines = len(path.read_bytes().splitlines())
        path.write_bytes(path.read_bytes() + b"\xff\n")
        plots = tmp_path / "plots"
        assert main(["plot-data", "--rounds", str(out / "rounds.jsonl"),
                     "--out", str(plots)]) == 3
        assert (f"plot-data: {path}:{lines + 1}: 'utf-8' codec can't decode byte 0xff in "
                "position 0") in caplog.text
        assert not plots.exists()

    @pytest.mark.parametrize("command,prefix", [("run", "runtime"), ("plot-data", "plot-data")])
    def test_out_an_existing_file_exits_3_with_one_line(self, small_config, tmp_path, command,
                                                       prefix):
        run = tmp_path / "run"
        assert main(["run", "--config", str(small_config), "--out", str(run)]) == 0
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        source = (["--config", str(small_config)] if command == "run"
                  else ["--rounds", str(run / "rounds.jsonl")])
        proc = _fresh_cli(command, *source, "--out", str(taken))
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr.startswith(f"ERROR:fedopt:{prefix}: ") and str(taken) in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert taken.read_text() == "kept\n"

    def test_malformed_input(self, tmp_path):
        bad = tmp_path / "rounds.jsonl"
        bad.write_text('{"round": 0}\nnot json\n')
        assert main(["plot-data", "--rounds", str(bad), "--out", str(tmp_path / "p")]) == 3

    @pytest.mark.parametrize("name,line", [
        ("rounds.jsonl", '{"round": 0}'),
        ("rounds.jsonl", '{"round": 0, "client_metrics": [{"client": 1}], "optimized": null}'),
        ("rounds.jsonl", '{"round": 0, "client_metrics": 5, "optimized": null}'),
        ("rounds.jsonl", '[0, 1]'),
        ("finetune.jsonl", '{"epoch": 1}'),
    ], ids=["no_client_metrics", "metric_missing", "metrics_not_a_list", "not_an_object",
            "finetune_no_accuracy"])
    def test_json_record_of_the_wrong_shape_exits_3_naming_the_file(
        self, small_config, tmp_path, caplog, name, line
    ):
        # Each line parses as JSON beside a valid config.resolved.cfg.
        out = tmp_path / "run"
        assert main(["run", "--config", str(small_config), "--out", str(out)]) == 0
        (out / name).write_text(line + "\n")
        plots = tmp_path / "plots"
        assert main(["plot-data", "--rounds", str(out / "rounds.jsonl"),
                     "--out", str(plots)]) == 3
        assert f"plot-data: {out / name}: malformed record" in caplog.text
        assert not plots.exists()


class TestLogLevel:
    # logging knows these names too, but the documented levels are the five below.
    @pytest.mark.parametrize("name", ["verbose", "notset", "fatal", "warn"])
    def test_unknown_level_is_a_usage_error(self, small_config, monkeypatch, caplog, name):
        monkeypatch.setenv("FEDOPT_LOG", name)
        assert main(["validate-config", "--config", str(small_config)]) == 1
        assert f"FEDOPT_LOG={name} is not a log level" in caplog.text

    @pytest.mark.parametrize("name", ["debug", "Info", "WARNING", "error", "critical"])
    def test_level_name_in_any_case(self, small_config, monkeypatch, name):
        fedopt_log = logging.getLogger("fedopt")
        before = fedopt_log.level
        try:
            monkeypatch.setenv("FEDOPT_LOG", name)
            assert main(["validate-config", "--config", str(small_config)]) == 0
            assert fedopt_log.level == getattr(logging, name.upper())
        finally:
            fedopt_log.setLevel(before)

    def test_level_applies_on_every_in_process_call(self, tmp_path, monkeypatch, caplog):
        # logging.basicConfig does nothing after its first call; the level must still change.
        bad = tmp_path / "bad.cfg"
        bad.write_text("c_ratio = 9\n")
        argv = ["run", "--config", str(bad), "--out", str(tmp_path / "o")]
        fedopt_log = logging.getLogger("fedopt")
        before = fedopt_log.level
        try:
            monkeypatch.setenv("FEDOPT_LOG", "INFO")
            assert main(argv) == 2
            assert "config: c_ratio outside (0, 1]" in caplog.text
            caplog.clear()
            monkeypatch.setenv("FEDOPT_LOG", "CRITICAL")
            assert main(argv) == 2
            assert caplog.records == []
        finally:
            fedopt_log.setLevel(before)

    def test_unknown_level_prints_one_line_and_no_traceback(self, small_config):
        # A fresh interpreter: the root logger has no handler yet.
        proc = _fresh_cli("validate-config", "--config", str(small_config), FEDOPT_LOG="verbose")
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "ERROR:fedopt:FEDOPT_LOG=verbose is not a log level"
            " (use DEBUG, INFO, WARNING, ERROR or CRITICAL)"
        ]


class TestCmdBound:
    def test_zero_gap(self, capsys):
        assert main(["bound", "--Z", "0.5,0.5", "--z", "0.5,0.5"]) == 0
        assert "Omega    = 0.000000" in capsys.readouterr().out

    def test_hand_value(self, capsys):
        assert main(["bound", "--Z", "1,1", "--z", "0.5,0.5"]) == 0
        assert "4.712389" in capsys.readouterr().out

    def test_length_mismatch_usage_error(self):
        assert main(["bound", "--Z", "1,1", "--z", "0.5"]) == 1

    @pytest.mark.parametrize("empty", ["", ",", " , "])
    def test_empty_vectors_are_a_usage_error(self, empty, capsys, caplog):
        assert main(["bound", "--Z", empty, "--z", empty]) == 1
        assert capsys.readouterr().out == ""
        assert "bound: need two radius vectors of one length, at least 1" in caplog.text

    @pytest.mark.parametrize("big,small", [("nan,0.5", "0.1,0.2"), ("0.5,0.5", "0.1,nan"),
                                           ("nan", "nan")])
    def test_nan_radius_is_a_usage_error(self, big, small, capsys, caplog):
        assert main(["bound", "--Z", big, "--z", small]) == 1
        assert capsys.readouterr().out == ""
        assert "bound: need 0 <= z_c <= Z_c <= 1" in caplog.text


class TestValidateConfig:
    def test_echoes_resolved(self, small_config, capsys):
        assert main(["validate-config", "--config", str(small_config)]) == 0
        out = capsys.readouterr().out
        assert "rounds = 3" in out
        assert "agent.gamma = 0.99" in out

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["validate-config", "--config", str(tmp_path / "nope.cfg")]) == 2


# The C locale without Python's UTF-8 mode or locale coercion: open()'s
# default encoding is ASCII there.
C_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


class TestTextEncoding:
    """Config and CSV files are read as UTF-8 whatever the locale; a config
    file that is not UTF-8 is a config error."""

    @pytest.mark.parametrize("command", ["validate-config", "run"])
    def test_non_utf8_config_exits_2_with_one_line(self, tmp_path, command):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"rounds = 3\n\xff\xfe")
        out = tmp_path / "o"
        argv = ["--out", str(out)] if command == "run" else []
        proc = _fresh_cli(command, "--config", str(cfg), *argv)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "ERROR:fedopt:config: 'utf-8' codec can't decode byte 0xff in position 11:"
            " invalid start byte"
        ]
        assert not out.exists()

    def test_utf8_config_validates_in_the_c_locale(self, small_config):
        small_config.write_text("# café\n" + SMALL, encoding="utf-8")
        proc = _fresh_cli("validate-config", "--config", str(small_config), **C_LOCALE)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == emit_config(parse_config(str(small_config)))

    def test_utf8_csv_loads_in_the_c_locale(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("# café\n" + "".join(f"{i % 3}.5,{i}.0,{i % 2}\n" for i in range(40)),
                        encoding="utf-8")
        cfg = tmp_path / "csv.cfg"
        cfg.write_text(f"dataset_csv = {data}\nn_clients = 2\nrounds = 2\ndirichlet_alpha = 100\n")
        out = tmp_path / "o"
        proc = _fresh_cli("run", "--config", str(cfg), "--out", str(out), **C_LOCALE)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert len(strict_json_lines(out / "rounds.jsonl")) == 2
