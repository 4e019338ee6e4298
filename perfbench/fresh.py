"""Fresh-interpreter probes started by run.py.

    fresh.py setup CONFIG SEED      import fedopt, parse CONFIG and build the
                                    client partitions, then print "ready"
    fresh.py run CONFIG SEED OUT    one `fedopt run` into OUT, then print
                                    {"exit": code, "peak_rss_kb": peak RSS}

The parent times `setup` from spawn to the "ready" line. Both modes expect
PYTHONPATH to point at the fedopt sources.
"""

import json
import sys


def partitions(cfg, seed: int) -> list:
    """The client partitions `fedopt run --seed SEED` builds for `cfg`.

    Same calls as run_federated, with its data seed and per-client split seeds.
    """
    import numpy as np

    from fedopt import data

    ds = data.generate_synthetic(cfg.n_classes, cfg.n_per_class, cfg.feature_dim,
                                 cfg.spread, seed)
    raw = data.dirichlet_partition(ds, cfg.n_clients, cfg.dirichlet_alpha, seed)
    return [
        data.train_val_split(
            p, cfg.split_ratio,
            int(np.random.SeedSequence([seed, 17, p.client_id]).generate_state(1)[0]),
        )
        for p in raw
    ]


def setup(config: str, seed: int) -> None:
    from fedopt.config import parse_config

    parts = partitions(parse_config(config), seed)
    print("ready", len(parts), flush=True)


def peak_rss_kb() -> int:
    """VmHWM of this process image (Linux).

    ru_maxrss is not used: it keeps the parent's peak across fork and exec.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run(config: str, seed: int, out: str) -> None:
    import contextlib

    from fedopt import cli

    with contextlib.redirect_stdout(sys.stderr):
        code = cli.main(["run", "--config", config, "--out", out, "--seed", str(seed)])
    print(json.dumps({"exit": code, "peak_rss_kb": peak_rss_kb()}), flush=True)


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        setup(sys.argv[2], int(sys.argv[3]))
    elif mode == "run":
        run(sys.argv[2], int(sys.argv[3]), sys.argv[4])
    else:
        sys.exit(f"unknown mode {mode!r}")
