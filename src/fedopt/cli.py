"""Experiment driver CLI.

Subcommands: run, plot-data, bound, validate-config. Exit codes:
0 success, 1 usage, 2 config error, 3 runtime failure. `FEDOPT_LOG`
sets log verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path
from typing import Iterable

import numpy as np

from .config import emit_config, parse_config
from .orchestrator import (
    METRICS,
    ExperimentConfig,
    RunResult,
    compute_performance_bound,
    run_federated,
)

log = logging.getLogger("fedopt")

EXIT_OK, EXIT_USAGE, EXIT_CONFIG, EXIT_RUNTIME = 0, 1, 2, 3


def _atomic_write(path: Path, texts: Iterable[str]) -> None:
    # Not mkstemp: its 0600 mode would survive the rename. A new file gets
    # 0666 less the umask, as any other file the user writes. The texts are
    # written as they come, so a long file is never held whole.
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(texts)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(header: str, rows) -> str:
    return "".join(f"{line}\n" for line in (header, *rows))


def _per_round(rec: dict, opt_id: int | None, shown_id: int | None):
    """(round, naive mean, shown client's row or None) of one rounds.jsonl record.

    The naive mean holds precision, recall and accuracy averaged over every
    client but `opt_id`; `run_federated` stops before round 0 unless some
    naive client has validation rows.
    """
    rows = rec["client_metrics"]
    naive = [m for m in rows if m["client"] != opt_id]
    if not naive:
        raise ValueError(f"round {rec['round']}: no naive client has metrics")
    mean = {key: float(np.mean([m[key] for m in naive]))
            for key in ("precision", "recall", "accuracy")}
    return rec["round"], mean, next((m for m in rows if m["client"] == shown_id), None)


class _FloatText(dict):
    """json's text of each float, `float.__repr__`, formatted once per distinct value.
    Float keys make 0.0 and -0.0 one key: safe, as a score is never -0.0."""

    def __missing__(self, v: float) -> str:
        self[v] = text = repr(v)
        return text


# Indices into the last axis of RunResult.metrics: a rounds.jsonl client
# entry's scores in sorted key order, and summary.csv's columns.
_JSON_ORDER = [METRICS.index(k) for k in ("accuracy", "f1", "precision", "recall")]
_SUMMARY_ORDER = [METRICS.index(k) for k in ("precision", "recall", "accuracy")]


def _bests(result: RunResult, opt_id: int | None) -> dict[str, list[float]]:
    """summary.csv's rows: the best precision, recall and accuracy over the rounds
    of the mean over every client but `opt_id`, and of `opt_id` itself, whose
    accuracy includes the fine-tune's. Each mean runs along a contiguous client
    axis, so it sums in the order np.mean of one round's list does."""
    naive = [i for i, k in enumerate(result.evaluated) if k != opt_id]
    if not naive:
        raise ValueError("no naive client has metrics")
    # (rounds, 3, naive clients), copied: the index result is not C-contiguous.
    scores = np.ascontiguousarray(result.metrics[:, [naive], [[c] for c in _SUMMARY_ORDER]])
    bests = {"naive_mean": scores.mean(axis=-1).max(axis=0, initial=0.0).tolist()}
    if opt_id is not None:
        row = result.metrics[:, result.evaluated.index(opt_id), _SUMMARY_ORDER]
        p, r, a = row.max(axis=0, initial=0.0).tolist()
        bests["optimized"] = [p, r, max([a, *(e["val_accuracy"] for e in result.finetune_trace)])]
    return bests


def _write_outputs(out_dir: Path, cfg: ExperimentConfig, result: RunResult) -> None:
    # Check every value before writing anything: a non-finite one raises here.
    if not np.isfinite(result.metrics).all():
        raise ValueError("non-finite client metrics")
    optimized = [json.dumps(r.optimized, sort_keys=True, allow_nan=False) for r in result.rounds]
    # A rounds.jsonl line is the record's json.dumps(sort_keys=True): `line`
    # holds the fixed texts, keys in sorted order, at its odd slots and one
    # text per score between them. One join sizes the line exactly, where
    # %-formatting a whole line regrows its buffer and raised the peak RSS.
    template = ", ".join(
        f'{{"accuracy": %s, "client": {k}, "f1": %s, "precision": %s, "recall": %s}}'
        for k in result.evaluated)
    line = [""] * (2 * template.count("%s") + 3)
    line[1:-1:2] = template.split("%s")
    text = _FloatText()

    def lines():  # streamed into the file: every value was checked above
        for r, m, opt in zip(result.rounds, result.metrics, optimized):
            line[0] = '{"aggregation": %s, "client_metrics": [' % json.dumps(r.aggregation)
            line[2:-2:2] = map(text.__getitem__, m[:, _JSON_ORDER].ravel().tolist())
            line[-1] = '], "optimized": %s, "round": %d, "sampled": %s}\n' % (
                opt, r.round, json.dumps(r.sampled))
            yield "".join(line)

    ft_text = "".join(
        json.dumps(e, sort_keys=True, allow_nan=False) + "\n" for e in result.finetune_trace
    )
    summary = _csv("label,precision,recall,accuracy", (
        f"{label},{p:.6f},{r:.6f},{a:.6f}"
        for label, (p, r, a) in _bests(result, cfg.optimized_client).items()))
    out_dir.mkdir(parents=True, exist_ok=True)
    _atomic_write(out_dir / "config.resolved.cfg", [emit_config(cfg)])
    _atomic_write(out_dir / "rounds.jsonl", lines())
    _atomic_write(out_dir / "finetune.jsonl", [ft_text])
    _atomic_write(out_dir / "summary.csv", [summary])


def cmd_run(args) -> int:
    try:
        cfg = ExperimentConfig() if args.config is None else parse_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.ablation_naive_all:
            cfg.optimized_client = None
        cfg.validate()
    except (ValueError, OSError) as exc:
        log.error("config: %s", exc)
        return EXIT_CONFIG
    try:
        result = run_federated(cfg)
        _write_outputs(Path(args.out), cfg, result)
    except (ValueError, OSError) as exc:
        log.error("runtime: %s", exc)
        return EXIT_RUNTIME
    print(f"wrote {args.out}/rounds.jsonl ({len(result.rounds)} rounds)")
    return EXIT_OK


def _read_jsonl(path: Path) -> list[dict]:
    rows = []
    with open(path, "rb") as fh:  # decoded line by line, so a decode error names its line
        for i, line in enumerate(fh, start=1):
            try:
                text = line.decode("utf-8")
                if text.strip():
                    rows.append(json.loads(text))
            except ValueError as exc:  # UnicodeDecodeError or json.JSONDecodeError
                raise ValueError(f"{path}:{i}: {exc}") from None
    return rows


def cmd_plot_data(args) -> int:
    rounds_path = Path(args.rounds)
    ft_path = rounds_path.parent / "finetune.jsonl"
    source = rounds_path  # the file whose records are being read
    try:
        records = _read_jsonl(rounds_path)
        # The run's own config names its optimized client, sampled or not;
        # a naive-all run has none, and --optimized-client picks the one shown.
        cfg_path = rounds_path.parent / "config.resolved.cfg"
        try:
            opt_id = parse_config(str(cfg_path)).optimized_client
        except ValueError as exc:
            raise ValueError(f"{cfg_path}: {exc}") from None
        shown_id = args.optimized_client if opt_id is None else opt_id
        texts = {"accuracy.csv": _csv("round,naive_mean_acc,optimized_acc", (
            f"{t},{naive['accuracy']:.6f},{(row['accuracy'] if row else float('nan')):.6f}"
            for t, naive, row in (_per_round(rec, opt_id, shown_id) for rec in records)))}
        fracs = [(r["round"], r["optimized"]["fractions"]) for r in records if r.get("optimized")]
        if fracs:
            header = "round," + ",".join(f"frac_{c}" for c in range(len(fracs[0][1])))
            texts["fractions.csv"] = _csv(header, (
                f"{t}," + ",".join(f"{v:.6f}" for v in f) for t, f in fracs))
        if ft_path.exists():
            source = ft_path
            texts["finetune.csv"] = _csv("epoch,finetune_acc", (
                f"{e['epoch']},{e['val_accuracy']:.6f}" for e in _read_jsonl(ft_path)))
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            _atomic_write(out_dir / name, [text])
    except (OSError, ValueError) as exc:
        log.error("plot-data: %s", exc)
        return EXIT_RUNTIME
    except (KeyError, TypeError, AttributeError) as exc:
        # Valid JSON, but not the record fedopt writes: a key is missing or has the wrong type.
        log.error("plot-data: %s: malformed record (%s: %s)", source, type(exc).__name__, exc)
        return EXIT_RUNTIME
    print(f"wrote plot data to {out_dir}")
    return EXIT_OK


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",") if v.strip() != ""])
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated vector: {text!r}") from None


def cmd_bound(args) -> int:
    try:
        p_full, p_sel, omega = compute_performance_bound(args.Z, args.z)
    except ValueError as exc:
        log.error("bound: %s", exc)
        return EXIT_USAGE
    print(f"P_k      = {p_full:.6f}")
    print(f"P'_k     = {p_sel:.6f}")
    print(f"Omega    = {omega:.6f}")
    return EXIT_OK


def cmd_validate_config(args) -> int:
    try:
        cfg = parse_config(args.config)
    except (ValueError, OSError) as exc:
        log.error("config: %s", exc)
        return EXIT_CONFIG
    sys.stdout.write(emit_config(cfg))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a federated experiment")
    p_run.add_argument("--config", help="config file (defaults apply when omitted)")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, help="override the config's seed")
    p_run.add_argument("--ablation-naive-all", action="store_true",
                       help="disable the optimized client (naive actions for everyone)")
    p_run.set_defaults(func=cmd_run)

    p_plot = sub.add_parser("plot-data", help="export plot-ready CSV series")
    p_plot.add_argument("--rounds", required=True, help="rounds.jsonl from a run")
    p_plot.add_argument("--out", required=True)
    p_plot.add_argument("--optimized-client", type=int, default=0)
    p_plot.set_defaults(func=cmd_plot_data)

    p_bound = sub.add_parser("bound", help="performance-bound calculator")
    p_bound.add_argument("--Z", required=True, type=_parse_vector, help="full-data radii")
    p_bound.add_argument("--z", required=True, type=_parse_vector, help="selected radii")
    p_bound.set_defaults(func=cmd_bound)

    p_val = sub.add_parser("validate-config", help="parse and echo a resolved config")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=cmd_validate_config)
    return parser


def main(argv: list[str] | None = None) -> int:
    name = os.environ.get("FEDOPT_LOG", "INFO")
    known = name.upper() in ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")
    logging.basicConfig()  # a no-op after the first call, so the level is set on `log`
    log.setLevel(name.upper() if known else logging.INFO)
    if not known:
        log.error("FEDOPT_LOG=%s is not a log level (use DEBUG, INFO, WARNING, ERROR or CRITICAL)",
                  name)
        return EXIT_USAGE
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
