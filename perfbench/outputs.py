"""Checks on the artifacts of one `fedopt run` and the figures read from them.

Only the standard library is used here, so the module can be imported
before numpy is loaded with the benchmark's BLAS settings.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

METRIC_KEYS = ("accuracy", "precision", "recall", "f1")


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_loads(line: str):
    """`json.loads` that refuses the bare NaN, Infinity and -Infinity tokens."""
    return json.loads(line, parse_constant=_reject_constant)


def read_strict_jsonl(path: Path) -> list:
    rows = []
    with open(path) as fh:
        for i, line in enumerate(fh, start=1):
            try:
                rows.append(strict_loads(line))
            except ValueError as exc:
                raise ValueError(f"{path.name}:{i}: {exc}") from None
    return rows


def _summary_accuracy(path: Path) -> dict[str, float]:
    """Accuracy column of summary.csv keyed by row label."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    col = header.index("accuracy")
    return {row.split(",")[0]: float(row.split(",")[col]) for row in lines[1:] if row}


def check_run(out_dir: Path, exit_code: int, rounds: int) -> tuple[list[str], dict]:
    """Validate one run's artifacts.

    Returns (problems, figures). The run is good when `problems` is empty;
    `figures` then holds the rounds.jsonl sha256 and size, the two summary
    accuracies and the optimized client's per-round data fractions.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"], {}
    problems: list[str] = []
    rounds_path = out_dir / "rounds.jsonl"
    try:
        records = read_strict_jsonl(rounds_path)
        read_strict_jsonl(out_dir / "finetune.jsonl")
        summary = _summary_accuracy(out_dir / "summary.csv")
    except (OSError, ValueError, IndexError) as exc:
        return [str(exc)], {}
    if len(records) != rounds:
        problems.append(f"{len(records)} rounds recorded, expected {rounds}")
    if "naive_mean" not in summary or "optimized" not in summary:
        problems.append(f"summary.csv rows {sorted(summary)}")
    try:
        for rec in records:
            for row in rec["client_metrics"]:
                for key in METRIC_KEYS:
                    value = row[key]
                    if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                        problems.append(
                            f"round {rec['round']} client {row['client']} {key}={value!r}"
                        )
        fractions = [
            rec["optimized"]["samples_used"] / rec["optimized"]["train_size"]
            for rec in records
            if rec["optimized"]
        ]
    except (KeyError, TypeError) as exc:
        return problems + [f"malformed rounds.jsonl record: {exc!r}"], {}
    data = rounds_path.read_bytes()
    figures = {
        "sha256": hashlib.sha256(data).hexdigest(),
        "rounds_bytes": len(data),
        "opt_accuracy": summary.get("optimized"),
        "naive_accuracy": summary.get("naive_mean"),
        "fractions": fractions,
    }
    return problems, figures
