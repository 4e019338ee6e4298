"""Tests of the benchmark's own code: span arithmetic, output checks, wrappers."""

import contextlib
import io
import json
from pathlib import Path

import pytest

import outputs
import run
import spans
from spans import Span

TINY = """
n_clients = 3
rounds = 4
n_per_class = 30
aggregation = fedcda
agent.batch_size = 2
reward.tau = 2
"""


def _tiny_run(tmp_path: Path, name: str) -> Path:
    from fedopt import cli

    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY)
    out = tmp_path / name
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    return out


def test_self_time_subtracts_direct_children_only():
    recorded = [
        Span("a", 0.0, 10.0, -1),
        Span("b", 1.0, 4.0, 0),
        Span("c", 2.0, 3.0, 1),
        Span("d", 5.0, 7.0, 0),
    ]
    assert spans.self_times(recorded) == [5.0, 2.0, 1.0, 2.0]


def test_select_counts_nested_spans_of_one_group_once():
    recorded = [
        Span("run", 0.0, 10.0, -1),
        Span("act", 1.0, 4.0, 0),
        Span("policy", 2.0, 3.0, 1),
        Span("policy", 5.0, 6.0, 0),
        Span("finetune", 7.0, 9.0, 0),
        Span("policy", 7.5, 8.0, 4),
    ]
    anc = spans.ancestry(recorded)
    group = spans.select(recorded, anc, ["act", "policy"])
    assert spans.total(group) == pytest.approx(3.0 + 1.0 + 0.5)
    assert len(spans.select(recorded, anc, ["policy"], not_under=["finetune"])) == 2
    assert len(spans.select(recorded, anc, ["policy"], under=["act"])) == 1
    assert len(spans.select(recorded, anc, ["policy"], parent="run")) == 1


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_strict_json_rejects_non_finite(token):
    with pytest.raises(ValueError):
        outputs.strict_loads('{"reward": %s}' % token)
    assert outputs.strict_loads('{"reward": 1.5}') == {"reward": 1.5}


def test_check_run_accepts_a_good_run_and_flags_bad_ones(tmp_path):
    out = _tiny_run(tmp_path, "out")
    problems, figures = outputs.check_run(out, 0, rounds=4)
    assert problems == []
    assert 0.0 <= figures["opt_accuracy"] <= 1.0
    assert figures["rounds_bytes"] == (out / "rounds.jsonl").stat().st_size

    assert outputs.check_run(out, 0, rounds=5)[0] == ["4 rounds recorded, expected 5"]
    assert outputs.check_run(out, 3, rounds=4)[0] == ["exit code 3"]
    lines = (out / "rounds.jsonl").read_text().splitlines()
    rec = json.loads(lines[0])
    rec["client_metrics"][0]["f1"] = 1.5
    (out / "rounds.jsonl").write_text("\n".join([json.dumps(rec)] + lines[1:]) + "\n")
    assert "f1=1.5" in outputs.check_run(out, 0, rounds=4)[0][0]
    (out / "finetune.jsonl").write_text('{"epoch": 1, "val_accuracy": NaN}\n')
    assert "NaN" in outputs.check_run(out, 0, rounds=4)[0][0]


def test_traced_run_restores_wrapped_functions_and_keeps_outputs(tmp_path):
    from fedopt import agent, cli, data, orchestrator

    owners = (agent, cli, data, orchestrator, orchestrator._OptimizedClient)
    before = [dict(vars(owner)) for owner in owners]
    plain = _tiny_run(tmp_path, "plain")
    tracer, captured = spans.Tracer(), {}
    with tracer:
        spans.trace_fedopt(tracer, captured)
        assert cli.main is not before[1]["main"]
        traced = _tiny_run(tmp_path, "traced")
    after = [dict(vars(owner)) for owner in owners]
    assert all(
        after[i][key] is value for i, ns in enumerate(before) for key, value in ns.items()
    )
    assert (plain / "rounds.jsonl").read_bytes() == (traced / "rounds.jsonl").read_bytes()

    fig = spans.run_figures(tracer.take())
    assert fig["updates"] > 0 and fig["fits"] > 0 and fig["steps"] > 0
    assert fig["main_s"] > fig["run_federated_s"] > fig["train_s"] + fig["finetune_s"]
    assert fig["train_s"] > 0 and fig["step_s"] > 0
    strategy_us = spans.time_strategies(captured, repeats=3)
    metrics = spans.layer_metrics([fig], 4, [fig["main_s"]], strategy_us, 100)
    assert set(metrics) == set(spans.PER_LAYER)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: entry[:2] for name, entry in spans.PER_LAYER.items()
    }
    assert [w["name"] for w in spec["workloads"]] == list(run.SEEDS)


def test_seeds_skip_partitions_that_fedopt_run_rejects(tmp_path):
    from fedopt import cli

    runner = run.Runner("quickstart", tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        seeds = runner.seeds(103)
    assert len(seeds) == run.SEEDS["quickstart"] and 103056 not in seeds
    assert seeds[:3] == [103000, 103004, 103008] and seeds[-1] == 103400
    argv = ["run", "--config", str(runner.config), "--out", str(tmp_path / "out")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv + ["--seed", "103056"]) != 0
