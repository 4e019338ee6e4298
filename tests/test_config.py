"""The config schema is the dataclass fields; fuzzing checks every key's outcome."""

from __future__ import annotations

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedopt.agent import ACTION_STRATEGIES
from fedopt.aggregation import STRATEGIES
from fedopt.cli import main
from fedopt.config import _fmt, _keys, _parser, emit_config, parse_config
from fedopt.orchestrator import ExperimentConfig

ANNOTATIONS = {key: f.type for key, _, f in _keys(ExperimentConfig())}
KEYS = list(ANNOTATIONS)

EMITTED_KEYS = [
    "n_clients", "c_ratio", "rounds", "local_epochs", "batch_size", "lr",
    "optimized_client", "aggregation", "action_strategy", "dirichlet_alpha",
    "split_ratio", "seed", "hidden_dims", "n_classes", "n_per_class", "feature_dim",
    "spread", "dataset_csv", "finetune_patience", "finetune_max_epochs", "prox_mu",
    "fedavgm_beta", "fedavgm_server_lr", "cda_depth",
    "agent.gamma", "agent.actor_lr", "agent.critic_lr", "agent.soft_update_tau",
    "agent.epsilon_start", "agent.epsilon_end", "agent.eta", "agent.b_l", "agent.b_u",
    "agent.batch_size", "agent.hidden",
    "reward.tau", "reward.lambda",
]


def write(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return str(path)


class TestSchema:
    def test_every_field_annotation_has_a_parser(self):
        for key, owner, f in _keys(ExperimentConfig()):
            value = getattr(owner, f.name)
            assert _parser(f.type)(_fmt(value)) == value, key

    def test_emitted_keys_are_the_dataclass_fields_in_order(self):
        assert KEYS == EMITTED_KEYS
        emitted = [line.split(" = ")[0] for line in emit_config(ExperimentConfig()).splitlines()]
        assert emitted == EMITTED_KEYS

    def test_a_new_section_field_needs_no_schema_edit(self):
        @dataclasses.dataclass
        class Section:
            width: int = 2
            rate: float | None = None

        @dataclasses.dataclass
        class Top:
            name: str = "x"
            sizes: list[int] = dataclasses.field(default_factory=lambda: [1, 2])
            section: Section = dataclasses.field(default_factory=Section)

        keys = [(key, _parser(f.type)) for key, _, f in _keys(Top())]
        assert [key for key, _ in keys] == ["name", "sizes", "section.width", "section.rate"]
        parse = dict(keys)
        assert parse["sizes"]("3,4") == [3, 4]
        assert parse["section.width"]("5") == 5
        assert parse["section.rate"]("none") is None and parse["section.rate"]("0.5") == 0.5

    def test_lambda_is_the_file_spelling_of_lam(self, tmp_path):
        assert parse_config(write(tmp_path, "reward.lambda = 0.4\n")).reward.lam == 0.4
        with pytest.raises(ValueError, match="line 1: unknown key 'reward.lam'"):
            parse_config(write(tmp_path, "reward.lam = 0.4\n"))

    @pytest.mark.parametrize("line", ["agent = 1", "agent.validate = 1", "reward. = 1"])
    def test_section_names_and_methods_are_not_keys(self, tmp_path, line):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config(write(tmp_path, line + "\n"))

    @pytest.mark.parametrize("line,value", [
        ("optimized_client = none", None), ("optimized_client = NONE", None),
        ("optimized_client = 2", 2), ("dataset_csv = none", None),
        ("hidden_dims = 8, 4", [8, 4]), ("hidden_dims =", []),
    ])
    def test_values_parse_by_annotation(self, tmp_path, line, value):
        cfg = parse_config(write(tmp_path, line + "\n"))
        assert getattr(cfg, line.split("=")[0].strip()) == value

    @pytest.mark.parametrize("line", ["rounds = none", "lr = none", "rounds = 2.5",
                                      "hidden_dims = 8,x", "agent.eta = none"])
    def test_none_and_bad_numbers_rejected_for_required_fields(self, tmp_path, line):
        key = line.split("=")[0].strip()
        with pytest.raises(ValueError, match=f"line 1: invalid value .* for key '{key}'"):
            parse_config(write(tmp_path, line + "\n"))

    @pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "1e999"])
    def test_every_float_key_rejects_non_finite_values(self, tmp_path, value):
        floats = [key for key, annotation in ANNOTATIONS.items() if "float" in annotation]
        assert len(floats) == 17
        for key in floats:
            with pytest.raises(ValueError, match=f"invalid value .* for key '{key}'"):
                parse_config(write(tmp_path, f"{key} = {value}\n"))


# -- fuzzing --------------------------------------------------------------

# Arbitrary bytes, and `key = <arbitrary bytes>` lines that reach the value parsers.
_CONFIG_BYTES = st.one_of(
    st.binary(),
    st.lists(st.tuples(st.sampled_from(KEYS), st.binary(max_size=12)), max_size=4).map(
        lambda lines: b"".join(key.encode() + b" = " + value + b"\n" for key, value in lines)),
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_CONFIG_BYTES)
def test_arbitrary_bytes_parse_or_exit_2_with_one_line(text, tmp_path, capsys, caplog):
    """Any file parses to a config, which validate-config echoes (exit 0), or
    raises ValueError or OSError, which validate-config reports in one
    `config:` line (exit 2). A drawn config is never run: it may be huge."""
    path = tmp_path / "drawn.cfg"
    path.write_bytes(text)
    try:
        echo, code = emit_config(parse_config(str(path))), 0
    except (ValueError, OSError):
        echo, code = "", 2
    caplog.clear()
    assert main(["validate-config", "--config", str(path)]) == code
    assert capsys.readouterr().out == echo
    messages = [r.getMessage() for r in caplog.records]
    if code == 2:
        assert len(messages) == 1 and messages[0].startswith("config: "), messages
    else:
        assert messages == []


# Tiny runs: the drawn values below never exceed 4 clients or 3 rounds.
BASE = """n_clients = 4
rounds = 2
n_classes = 3
n_per_class = 20
dirichlet_alpha = 5
feature_dim = 3
finetune_max_epochs = 3
finetune_patience = 1
agent.batch_size = 2
"""

_EDGES = {
    "int": ["-1", "0", "1", "2", "3"],
    "float": ["-1", "0", "1e-9", "0.5", "1", "2", "nan", "inf", "-inf"],
    "str": [*STRATEGIES, *ACTION_STRATEGIES, "bogus"],
    "list[int]": ["", "0", "1", "2,3", "3,-1"],
}


def edge_values(annotation, csv_paths):
    base = annotation.removesuffix(" | None")
    values = list(_EDGES[base])
    if base != annotation:
        values += ["none", *csv_paths] if base == "str" else ["none"]
    return values


def strict_json_lines(path):
    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")

    return [json.loads(line, parse_constant=reject) for line in path.read_text().splitlines()]


@pytest.fixture(scope="module")
def csv_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("csv")
    rng = np.random.default_rng(0)
    good, one = root / "good.csv", root / "one_class.csv"
    good.write_text("".join(f"{a:.3f},{b:.3f},{i % 3}\n"
                            for i, (a, b) in enumerate(rng.normal(size=(24, 2)))))
    one.write_text("".join(f"{i}.0,0\n" for i in range(8)))
    return [str(good), str(one), str(root / "missing.csv")]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_configs_have_an_allowed_outcome(data, csv_paths, tmp_path_factory, caplog):
    """Each config either exits 2 naming a drawn key, exits 0 with finite,
    strict-JSON outputs, or exits 3 naming a round, a client or the CSV."""
    drawn = data.draw(st.lists(st.sampled_from(KEYS), min_size=1, max_size=4, unique=True))
    lines = {key: data.draw(st.sampled_from(edge_values(ANNOTATIONS[key], csv_paths)), label=key)
             for key in drawn}
    root = tmp_path_factory.mktemp("fuzz")
    cfg = write(root, BASE + "".join(f"{k} = {v}\n" for k, v in lines.items()))
    out = root / "out"

    caplog.clear()
    with np.errstate(all="ignore"):
        code = main(["run", "--config", cfg, "--out", str(out)])
    message = "\n".join(caplog.messages)

    if code == 2:
        assert message.startswith("config: "), message
        assert any(re.search(rf"\b{re.escape(k)}\b", message) for k in drawn), message
        assert not out.exists()
    elif code == 3:
        named = [r"round \d+", r"client \d+"]
        if "dataset_csv" in lines:
            named.append(re.escape(lines["dataset_csv"]))
        assert message.startswith("runtime: "), message
        assert any(re.search(p, message) for p in named), message
        assert not (out / "rounds.jsonl").exists()
    else:
        assert code == 0, message
        records = strict_json_lines(out / "rounds.jsonl")
        assert len(records) == parse_config(cfg).rounds
        strict_json_lines(out / "finetune.jsonl")
        for row in (out / "summary.csv").read_text().splitlines()[1:]:
            assert all(math.isfinite(float(v)) for v in row.split(",")[1:]), row
