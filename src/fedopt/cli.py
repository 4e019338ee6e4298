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
import tempfile
from pathlib import Path

import numpy as np

from .config import ConfigError, emit_config, parse_config
from .orchestrator import (
    ExperimentConfig,
    RunResult,
    compute_performance_bound,
    run_federated,
)

log = logging.getLogger("fedopt")

EXIT_OK, EXIT_USAGE, EXIT_CONFIG, EXIT_RUNTIME = 0, 1, 2, 3


def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_config(path: str | None) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    return parse_config(path)


def _naive_mean(record: dict, optimized_id: int | None) -> dict[str, float]:
    rows = [m for m in record["client_metrics"] if m["client"] != optimized_id]
    if not rows:
        rows = record["client_metrics"]
    return {
        key: float(np.mean([m[key] for m in rows]))
        for key in ("accuracy", "precision", "recall")
    }


def _client_row(record: dict, client_id: int) -> dict | None:
    for m in record["client_metrics"]:
        if m["client"] == client_id:
            return m
    return None


def _write_outputs(out_dir: Path, cfg: ExperimentConfig, result: RunResult) -> None:
    # Serialize before writing anything: a non-finite value raises here.
    records = [r.to_dict() for r in result.rounds]
    rounds_text = "".join(
        json.dumps(rec, sort_keys=True, allow_nan=False) + "\n" for rec in records
    )
    ft_text = "".join(
        json.dumps(e, sort_keys=True, allow_nan=False) + "\n" for e in result.finetune_trace
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    _atomic_write(out_dir / "config.resolved.cfg", emit_config(cfg))
    _atomic_write(out_dir / "rounds.jsonl", rounds_text)
    _atomic_write(out_dir / "finetune.jsonl", ft_text)

    opt_id = cfg.optimized_client
    best_naive = {"accuracy": 0.0, "precision": 0.0, "recall": 0.0}
    best_opt = {"accuracy": 0.0, "precision": 0.0, "recall": 0.0}
    for rec in records:
        naive = _naive_mean(rec, opt_id)
        for key in best_naive:
            best_naive[key] = max(best_naive[key], naive[key])
        if opt_id is not None:
            row = _client_row(rec, opt_id)
            if row:
                for key in best_opt:
                    best_opt[key] = max(best_opt[key], row[key])
    if result.finetune_trace:
        best_ft = max(e["val_accuracy"] for e in result.finetune_trace)
        best_opt["accuracy"] = max(best_opt["accuracy"], best_ft)
    lines = ["label,precision,recall,accuracy"]
    lines.append(
        f"naive_mean,{best_naive['precision']:.6f},{best_naive['recall']:.6f},{best_naive['accuracy']:.6f}"
    )
    if opt_id is not None:
        lines.append(
            f"optimized,{best_opt['precision']:.6f},{best_opt['recall']:.6f},{best_opt['accuracy']:.6f}"
        )
    _atomic_write(out_dir / "summary.csv", "\n".join(lines) + "\n")


def cmd_run(args) -> int:
    try:
        cfg = _load_config(args.config)
    except (ConfigError, OSError) as exc:
        log.error("config: %s", exc)
        return EXIT_CONFIG
    if args.seed is not None:
        cfg.seed_data, cfg.seed_init = args.seed, args.seed + 1
        cfg.seed_agent, cfg.seed_sampling = args.seed + 2, args.seed + 3
    if args.ablation_naive_all:
        cfg.optimized_client = None
    try:
        cfg.validate()
    except ValueError as exc:
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
    with open(path) as fh:
        for i, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{i}: {exc}") from None
    return rows


def cmd_plot_data(args) -> int:
    rounds_path = Path(args.rounds)
    try:
        records = _read_jsonl(rounds_path)
    except (OSError, ValueError) as exc:
        log.error("plot-data: %s", exc)
        return EXIT_RUNTIME
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    opt_id = None
    for rec in records:
        if rec.get("optimized"):
            opt_id = rec["optimized"].get("client", 0)
            break
    if opt_id is None:
        opt_id = args.optimized_client

    acc_lines = ["round,naive_mean_acc,optimized_acc"]
    frac_lines = None
    for rec in records:
        naive = _naive_mean(rec, opt_id if rec.get("optimized") else None)
        opt_row = _client_row(rec, opt_id)
        opt_acc = opt_row["accuracy"] if opt_row else float("nan")
        acc_lines.append(f"{rec['round']},{naive['accuracy']:.6f},{opt_acc:.6f}")
        frag = rec.get("optimized")
        if frag:
            fracs = frag["fractions"]
            if frac_lines is None:
                header = ",".join(f"frac_{c}" for c in range(len(fracs)))
                frac_lines = [f"round,{header}"]
            frac_lines.append(f"{rec['round']}," + ",".join(f"{v:.6f}" for v in fracs))
    _atomic_write(out_dir / "accuracy.csv", "\n".join(acc_lines) + "\n")
    if frac_lines:
        _atomic_write(out_dir / "fractions.csv", "\n".join(frac_lines) + "\n")

    ft_path = rounds_path.parent / "finetune.jsonl"
    if ft_path.exists():
        trace = _read_jsonl(ft_path)
        ft_lines = ["epoch,finetune_acc"]
        ft_lines += [f"{e['epoch']},{e['val_accuracy']:.6f}" for e in trace]
        _atomic_write(out_dir / "finetune.csv", "\n".join(ft_lines) + "\n")
    print(f"wrote plot data to {out_dir}")
    return EXIT_OK


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",") if v.strip() != ""])
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated vector: {text!r}") from None


def cmd_bound(args) -> int:
    if len(args.Z) != len(args.z):
        log.error("bound: Z and z must have equal length")
        return EXIT_USAGE
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
    except (ConfigError, OSError) as exc:
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
    p_run.add_argument("--seed", type=int, help="override all seed streams from this base")
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
    logging.basicConfig(level=os.environ.get("FEDOPT_LOG", "INFO").upper())
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
