"""The repository benchmark: host time of the reproduction, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload ucp_sweep --seed 1 --seconds 35 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
passes with spans recorded on every other pair and prints every per-layer
metric.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable report, including the engine that ran.

See ``perfbench/README.md`` for the workloads, the metrics and which
end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("ucp_sweep", "fig_sweep")


def work_dir() -> Path:
    """Scratch space of the benchmark inside the checkout (git-ignored)."""
    return ROOT / ".perfbench"


def pinned_knobs(work: Path) -> dict[str, str]:
    """Every ``REPRO_*`` setting the workloads depend on, set explicitly."""
    return {
        "REPRO_SIM_KERNEL": "1",
        "REPRO_SIM_CHECK": "0",
        "REPRO_SIM_TRACE": "0",
        "REPRO_SIM_SKIP": "1",
        "REPRO_SIM_INTERVAL": "1024",
        "REPRO_SIM_TELEMETRY": "0",
        "REPRO_SIM_JOBS": str(os.cpu_count() or 1),
        "REPRO_SIM_JOB_TIMEOUT": "0",
        "REPRO_SIM_CACHE": "1",
        "REPRO_SIM_CACHE_DIR": str(work / "cache"),
        "REPRO_SIM_CACHE_MAX_BYTES": "0",
        "REPRO_SIM_CACHE_MAX_ENTRIES": "0",
        "REPRO_TRACE_DIR": str(work / "traces"),
    }


def prepare_environment() -> dict[str, str]:
    """Pin the knobs and make the program importable; fails without sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program sources not found under {SRC}")
    knobs = pinned_knobs(work_dir())
    os.environ.update(knobs)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return knobs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    knobs = prepare_environment()

    import harness

    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace), knobs)


if __name__ == "__main__":
    sys.exit(main())
