"""Kernel-vs-interpreter differential oracle.

The batched kernel (:mod:`repro.core.kernel`) promises *bit-identical*
results to the scalar interpreter — same :meth:`SimResult.to_dict`
export (windowed counters, totals, confidence blocks, interval samples)
and the same idle-skip telemetry.  This module is the enforcement: it
runs both paths on the same trace/config and raises
:class:`~repro.verify.invariants.SimCheckError` with invariant
``kernel-differential`` on any divergence, pinpointing the first key
that differs.

The two sides differ only in the engine: the interpreter side is
pinned to ``kernel=False`` and the kernel side is a
:class:`~repro.core.kernel.KernelSimulator`.  Both defer to the
environment for the sanitizer and the observer, so a CI job that exports
``REPRO_SIM_CHECK=1`` checks every invariant on both runs.

Also usable as a CLI (``python -m repro.verify.kernel_diff``) which
writes a JSON comparison artifact — per-case instr/s for both paths and
the geomean replay speedup — uploaded by the CI ``kernel-diff`` step.
"""

from __future__ import annotations

import argparse
import json
import math
import time
from dataclasses import dataclass, field
from typing import Any

from repro.core.configs import SimConfig
from repro.core.kernel import KernelSimulator
from repro.core.pipeline import Simulator
from repro.isa.trace import Trace
from repro.verify.invariants import SimCheckError
from repro.workloads import load_workload

#: Invariant name the oracle reports under (shows up in fault catches).
KERNEL_DIFFERENTIAL = "kernel-differential"


def _first_divergence(reference: dict, candidate: dict) -> str:
    """Human-oriented description of the first differing key."""
    for key in reference:
        ref_value = reference[key]
        cand_value = candidate.get(key)
        if ref_value == cand_value:
            continue
        if isinstance(ref_value, dict) and isinstance(cand_value, dict):
            for sub in sorted(set(ref_value) | set(cand_value)):
                if ref_value.get(sub) != cand_value.get(sub):
                    return (
                        f"{key}[{sub!r}]: interpreter="
                        f"{ref_value.get(sub)!r} kernel={cand_value.get(sub)!r}"
                    )
        return f"{key}: interpreter={ref_value!r} kernel={cand_value!r}"
    extra = set(candidate) - set(reference)
    if extra:
        return f"kernel export has unexpected keys: {sorted(extra)}"
    return "exports differ but no key-level divergence found"


def kernel_differential(
    trace: Trace,
    config: SimConfig,
    name: str,
    idle_skip: bool | None = None,
    interval: int | None = None,
) -> dict[str, Any]:
    """Run interpreter and kernel on one case; raise on any divergence.

    Returns a comparison record (timings, instr/s, speedup) on success.
    """
    t0 = time.perf_counter()  # lint-ok: SIM002 timing telemetry, never touches results
    interp_sim = Simulator(
        trace, config, name=name, idle_skip=idle_skip, interval=interval, kernel=False
    )
    interp = interp_sim.run()
    t1 = time.perf_counter()  # lint-ok: SIM002 timing telemetry, never touches results
    kernel_sim = KernelSimulator(
        trace, config, name=name, idle_skip=idle_skip, interval=interval
    )
    kernel = kernel_sim.run()
    t2 = time.perf_counter()  # lint-ok: SIM002 timing telemetry, never touches results

    ref, cand = interp.to_dict(), kernel.to_dict()
    if ref != cand:
        raise SimCheckError(
            KERNEL_DIFFERENTIAL,
            name,
            int(cand.get("cycles", 0)),
            _first_divergence(ref, cand),
        )
    skip_ref = (interp_sim.skipped_cycles, interp_sim.skip_events)
    skip_cand = (kernel_sim.skipped_cycles, kernel_sim.skip_events)
    if skip_ref != skip_cand:
        raise SimCheckError(
            KERNEL_DIFFERENTIAL,
            name,
            int(cand.get("cycles", 0)),
            f"idle-skip telemetry diverged: interpreter "
            f"(skipped, events)={skip_ref} kernel={skip_cand}",
        )

    n = len(trace)
    interp_s = t1 - t0
    kernel_s = t2 - t1
    return {
        "case": name,
        "instructions": n,
        "cycles": cand["cycles"],
        "interpreter_seconds": round(interp_s, 6),
        "kernel_seconds": round(kernel_s, 6),
        "interpreter_instr_per_sec": round(n / interp_s) if interp_s > 0 else None,
        "kernel_instr_per_sec": round(n / kernel_s) if kernel_s > 0 else None,
        "speedup": round(interp_s / kernel_s, 3) if kernel_s > 0 else None,
    }


# ----------------------------------------------------------------------
# Case matrix
# ----------------------------------------------------------------------


def _config_variants() -> dict[str, SimConfig]:
    """Baseline, full UCP, and the UCP flavours whose replay differs: the
    TAGE-Conf and perceptron triggers, no Alt-Ind, and UCP-TillL1I."""
    from repro.experiments.common import baseline_config, ucp_config

    return {
        "base": baseline_config(),
        "ucp": ucp_config(),
        "ucp_tage_conf": ucp_config(confidence="tage"),
        "ucp_perceptron": ucp_config(confidence="perceptron"),
        "ucp_no_altind": ucp_config(use_indirect=False),
        "ucp_tilll1i": ucp_config(till_l1i_only=True),
    }


#: The pinned perf suite plus the datacenter slice (ISSUE 8 scope).
DEFAULT_WORKLOADS: tuple[str, ...] = (
    "fp_01",
    "int_02",
    "srv_05",
    "dc_call_01",
    "dc_interp_01",
    "dc_mega_01",
)


@dataclass
class KernelDiffReport:
    """All case comparisons from one oracle sweep."""

    cases: list[dict[str, Any]] = field(default_factory=list)

    @property
    def geomean_speedup(self) -> float | None:
        ratios = [c["speedup"] for c in self.cases if c.get("speedup")]
        if not ratios:
            return None
        return math.exp(sum(math.log(r) for r in ratios) / len(ratios))

    def to_dict(self) -> dict[str, Any]:
        geomean = self.geomean_speedup
        return {
            "schema": 1,
            "oracle": KERNEL_DIFFERENTIAL,
            "cases": list(self.cases),
            "geomean_speedup": round(geomean, 3) if geomean else None,
        }

    def render(self) -> str:
        lines = ["kernel-vs-interpreter differential: all cases identical"]
        for case in self.cases:
            lines.append(
                f"  {case['case']:24s} interp {case['interpreter_instr_per_sec'] or 0:>9,} i/s"
                f"  kernel {case['kernel_instr_per_sec'] or 0:>9,} i/s"
                f"  speedup {case['speedup'] or 0:.2f}x"
            )
        geomean = self.geomean_speedup
        if geomean:
            lines.append(f"  geomean replay speedup: {geomean:.2f}x")
        return "\n".join(lines)


def run_kernel_differential(
    n_instructions: int = 4_000,
    workloads: tuple[str, ...] = DEFAULT_WORKLOADS,
) -> KernelDiffReport:
    """Sweep the workload × config matrix through the oracle.

    The first run of each (trace, config) pays the record/precompute
    pre-pass; the per-case speedups therefore *understate* steady-state
    replay gains (perf repeats amortise the pre-pass — see
    ``benchmarks/perf``).
    """
    report = KernelDiffReport()
    variants = _config_variants()
    for workload in workloads:
        trace = load_workload(workload, n_instructions).trace
        for label, config in variants.items():
            record = kernel_differential(trace, config, f"{workload}/{label}")
            report.cases.append(record)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify.kernel_diff",
        description="Run the kernel-vs-interpreter differential oracle.",
    )
    parser.add_argument(
        "--instructions", type=int, default=4_000, help="instructions per case"
    )
    parser.add_argument(
        "--out", default=None, help="write the comparison artifact (JSON) here"
    )
    args = parser.parse_args(argv)
    try:
        report = run_kernel_differential(n_instructions=args.instructions)
    except SimCheckError as error:
        print(f"KERNEL DIFFERENTIAL FAILED: {error}")
        return 1
    print(report.render())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
