"""Measurement loop, metrics and report of the benchmark (see ``run.py``)."""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

import references
from run import ROOT, SRC, work_dir
from spans import NullTracer, Tracer
from workloads import (
    FIG_INSTRUCTIONS,
    ExecutorProbe,
    FigSweep,
    OpResult,
    UcpSweep,
    disk_hit_seconds,
)

from repro.core.kernel import kernel_applicability

BENCHMARK = ROOT / "BENCHMARK.json"
#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 3


def make_workload(name: str, seed: int) -> Any:
    if name == "ucp_sweep":
        return UcpSweep(seed)
    if name == "fig_sweep":
        return FigSweep(seed, jobs=os.cpu_count() or 1)
    raise ValueError(f"unknown workload {name!r}")


@dataclass
class Pass:
    kind: str
    traced: bool
    seconds: float
    ops: list[OpResult]
    #: Tracer op ids of this pass's ops.
    op_ids: range
    #: Workload numbers read after the pass.
    after: dict[str, float] = field(default_factory=dict)
    #: (runner, jobs) of each ParallelRunner.run in a traced fig pass.
    executor_calls: list[tuple[Any, list[Any]]] = field(default_factory=list)


def program_load_seconds(modules: tuple[str, ...]) -> float:
    """Wall time of a fresh interpreter importing ``modules``."""
    start = perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import " + ", ".join(modules)],
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        cwd=ROOT,
    )
    return perf_counter() - start


def set_up(workload: Any, tracer: Tracer | NullTracer) -> list[float]:
    """Set the workload up several times; each includes a program load."""
    times = []
    for _ in range(SETUP_REPEATS):
        load = program_load_seconds(workload.entry_modules)
        start = perf_counter()
        workload.setup(tracer)
        times.append(load + perf_counter() - start)
    return times


def measure(workload: Any, seconds: float, tracer: Tracer | None) -> list[Pass]:
    """Run whole pairs - a cold pass, then the workload's ``warm_passes``
    warm passes - until they hold the workload's ``min_ops`` ops and
    ``seconds`` have elapsed.

    Every pass covers the workload's whole op set.  ``min_ops`` is a
    floor on the number of ops, which keeps the tail percentile at or
    above the median even on a host fast enough to reach ``seconds``
    first.  Contention on a shared host comes and goes over tens of
    seconds, so a long run and medians over all of it are what keep runs
    comparable.  With a tracer, every odd pair records spans and the even
    pairs stay untraced, so the two give the tracing overhead; a traced
    run has at least two pairs.
    """
    null = NullTracer()
    passes: list[Pass] = []
    start = perf_counter()
    pair = 0
    while True:
        active: Tracer | NullTracer = tracer if tracer is not None and pair % 2 else null
        for kind in ("cold",) + ("warm",) * workload.warm_passes:
            workload.reset(kind)
            # Garbage left by the previous pass is not this pass's cost.
            gc.collect()
            probe = ExecutorProbe(active) if isinstance(active, Tracer) else None
            first = active.op + 1
            pass_start = perf_counter()
            try:
                ops = workload.run_pass(kind, active)
            finally:
                if probe is not None:
                    probe.close()
            elapsed = perf_counter() - pass_start
            record = Pass(kind, active.enabled, elapsed, ops, range(first, active.op + 1))
            record.after = workload.after_pass(kind)
            if probe is not None:
                record.executor_calls = probe.calls
            passes.append(record)
        pair += 1
        n_ops = sum(len(p.ops) for p in passes if is_op_pass(workload.name, p.kind))
        if (
            n_ops >= workload.min_ops
            and perf_counter() - start >= seconds
            and (tracer is None or pair >= 2)
        ):
            return passes


# ---------------------------------------------------------------------------
# End-to-end metrics
# ---------------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, int, int]:
    """The highest whole percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond); percentiles interpolate
    like ``statistics.quantiles(method="inclusive")``, so p50 is the
    median.  With ten samples or fewer none qualifies: the maximum comes
    back as p100.
    """
    ordered = sorted(samples)
    if len(ordered) <= 10:
        return ordered[-1], 100, 0
    cuts = statistics.quantiles(ordered, n=100, method="inclusive")
    for percentile in range(99, 0, -1):
        value = cuts[percentile - 1]
        beyond = sum(1 for sample in ordered if sample > value)
        if beyond >= 10:
            return value, percentile, beyond
    raise AssertionError("unreachable: p1 of eleven or more samples has ten beyond it")


def is_op_pass(workload: str, kind: str) -> bool:
    """Passes that hold the workload's ops: every ucp_sweep pass, and the
    cold passes of fig_sweep (its warm passes are timed as a whole)."""
    return kind == "cold" or workload == "ucp_sweep"


def end_to_end(
    workload: str, passes: list[Pass], setup_times: list[float]
) -> tuple[dict[str, float], list[str]]:
    op_passes = [p for p in passes if is_op_pass(workload, p.kind)]
    op_seconds = [op.seconds for p in op_passes for op in p.ops]
    cold = [p.seconds for p in passes if p.kind == "cold"]
    warm = [p.seconds for p in passes if p.kind == "warm"]
    if workload == "fig_sweep":
        # The pool simulates during cold passes, one result-cache entry each.
        sims = sum(p.after["disk_entries"] for p in passes if p.kind == "cold")
        instructions = sims * FIG_INSTRUCTIONS
        busy = sum(cold)
    else:
        sims = float(len(op_seconds))
        instructions = float(sum(op.instructions for p in op_passes for op in p.ops))
        busy = sum(op_seconds)
    value, percentile, beyond = tail(op_seconds)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "sim_instr_per_s": instructions / busy,
        "sims_per_s": sims / busy,
        "op_s_p50": statistics.median(op_seconds),
        "op_s_tail": value,
        "sweep_cold_s": statistics.median(cold),
        "sweep_warm_s": statistics.median(warm),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [
        f"op_s_tail is p{percentile} of {len(op_seconds)} ops, {beyond} beyond it",
        f"setup_s is the median of {len(setup_times)} set-ups: "
        + " ".join(f"{t:.3f}" for t in setup_times),
        f"sweep_cold_s over {len(cold)} passes, sweep_warm_s over {len(warm)} passes",
    ]
    return metrics, notes


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


class Totals:
    """Span and aggregate sums by name over a set of op ids."""

    def __init__(self, tracer: Tracer, ops: set[int]) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, float] = defaultdict(float)
        for span in tracer.spans:
            if span["op"] in ops:
                duration = span["end"] - span["start"]
                self._add(span["name"], duration, duration - span["child_seconds"], 1)
        for record in tracer.aggregates:
            if record.op in ops:
                self._add(record.name, record.seconds, record.seconds - record.child, record.calls)

    def _add(self, name: str, seconds: float, self_seconds: float, calls: int) -> None:
        self.seconds[name] += seconds
        self.self_seconds[name] += self_seconds
        self.calls[name] += calls


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def sim_layers(totals: Totals, ops: list[OpResult]) -> dict[str, float]:
    """Per-op means of the simulation layers over traced ops."""
    n = len(ops)
    count = defaultdict(float)
    for op in ops:
        for key, value in op.counts.items():
            count[key] += value
    own = totals.self_seconds
    whole = totals.seconds
    calls = totals.calls
    return {
        "kernel.columns_s": own["kernel.columns"] / n,
        "kernel.columns_reuse_ratio": ratio(
            calls["kernel.columns"] - count["kernel.columns_built"], calls["kernel.columns"]
        ),
        "kernel.stream_s": own["kernel.stream"] / n,
        "kernel.stream_reuse_ratio": ratio(
            calls["kernel.stream"] - count["kernel.stream_recorded"], calls["kernel.stream"]
        ),
        "pipeline.build_s": own["pipeline.build"] / n,
        "pipeline.run_s": whole["pipeline.run"] / n,
        "pipeline.run_self_s": own["pipeline.run"] / n,
        "pipeline.host_ns_per_cycle": 1e9 * ratio(whole["pipeline.run"], count["cycles"]),
        "pipeline.skipped_cycle_frac": ratio(count["skipped_cycles"], count["cycles"]),
        "bpu.generate_s": own["bpu.generate"] / n,
        "bpu.generate_calls": calls["bpu.generate"] / n,
        "fetch.tick_s": own["fetch.tick"] / n,
        "fetch.tick_calls": calls["fetch.tick"] / n,
        "backend.commit_s": own["backend.commit"] / n,
        "backend.dispatch_s": own["backend.dispatch"] / n,
        "caches.l1i_prefetch_s": own["caches.l1i_prefetch"] / n,
        "uopcache.hit_rate": ratio(count["uops_uop"], count["uops_all"]),
        # The walker's alt-path predicts are part of the UCP layer, so
        # ucp.tick_s keeps them; ucp.alt_predict_s breaks them out.
        "ucp.tick_s": whole["ucp.tick"] / n,
        "ucp.tick_calls": calls["ucp.tick"] / n,
        "ucp.alt_predict_s": whole["ucp.alt_predict"] / n,
        "ucp.alt_predict_calls": calls["ucp.alt_predict"] / n,
        "ucp.walks": count["ucp.walks"] / n,
        "ucp.useful_entry_ratio": ratio(
            count["ucp.entries_prefetched"], count["ucp.entries_generated"]
        ),
    }


def fig_layers(tracer: Tracer, traced: list[Pass], disk_hits: list[float]) -> dict[str, float]:
    """Executor, result-cache and experiments numbers, per traced cold sweep
    (all 0 for a workload that never reaches the pool)."""
    cold = [p for p in traced if p.kind == "cold"]
    n = len(cold)
    cold_ops = {op for p in cold for op in p.op_ids}
    totals = Totals(tracer, cold_ops)

    def counters(passes: list[Pass], name: str) -> float:
        return float(sum(runner.stats.counters[name] for p in passes for runner, _jobs in p.executor_calls))

    job_seconds = [
        t.seconds for p in cold for runner, _jobs in p.executor_calls for t in runner.stats.timings
    ]
    capacity = 0.0
    busy = 0.0
    for p in traced:
        for runner, _jobs in p.executor_calls:
            simulated = runner.stats.counters["jobs_simulated"]
            if simulated:
                capacity += min(runner.jobs, simulated) * runner.stats.wall_seconds
                busy += sum(t.seconds for t in runner.stats.timings)
    lookups = counters(traced, "jobs_requested") - counters(traced, "jobs_deduped")
    hits = counters(traced, "jobs_from_memory") + counters(traced, "jobs_from_disk")
    last = cold[-1].after
    return {
        "runner.disk_hit_s_p50": median(disk_hits),
        "runner.hit_ratio": ratio(hits, lookups),
        "runner.bytes_per_entry": ratio(last.get("disk_bytes", 0.0), last.get("disk_entries", 0.0)),
        "executor.jobs_simulated": counters(cold, "jobs_simulated") / n,
        "executor.jobs_deduped": counters(cold, "jobs_deduped") / n,
        "executor.job_s_p50": median(job_seconds),
        "executor.utilization": ratio(busy, capacity),
        "experiments.self_s": totals.self_seconds["experiments.run"] / n,
    }


def per_layer(
    workload: str, passes: list[Pass], tracer: Tracer, disk_hits: list[float]
) -> tuple[dict[str, float], list[str]]:
    setup = Totals(tracer, {-1})
    traced = [p for p in passes if p.traced]
    op_passes = [p for p in traced if is_op_pass(workload, p.kind)]
    ops = [op for p in op_passes for op in p.ops]
    totals = Totals(tracer, {op for p in op_passes for op in p.op_ids})
    # A layer the workload does not reach reads 0.
    metrics = {
        "setup.generate_s": setup.self_seconds["workloads.generate"] / SETUP_REPEATS,
        "setup.columns_s": setup.self_seconds["kernel.columns"] / SETUP_REPEATS,
        "setup.stream_s": setup.self_seconds["kernel.stream"] / SETUP_REPEATS,
        **sim_layers(totals, ops),
        **fig_layers(tracer, traced, disk_hits),
    }
    traced_cold = statistics.median(p.seconds for p in traced if p.kind == "cold")
    plain_cold = statistics.median(p.seconds for p in passes if p.kind == "cold" and not p.traced)
    metrics["tracing.overhead_s"] = traced_cold - plain_cold
    metrics["tracing.overhead_frac"] = (traced_cold - plain_cold) / plain_cold
    notes = [
        f"per-layer numbers from {len(traced)} traced passes ({len(ops)} ops); "
        + ("per cold sweep" if workload == "fig_sweep" else "per op"),
        "tracing overhead: median traced cold pass minus median untraced cold pass",
    ]
    return metrics, notes


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


def run(name: str, seed: int, seconds: float, trace: bool, knobs: dict[str, str]) -> int:
    work = work_dir()
    units = declared("per_layer" if trace else "end_to_end")
    workload = make_workload(name, seed)
    tracer = Tracer() if trace else None
    setup_times = set_up(workload, tracer or NullTracer())
    workload.references, source = references.load(workload, seed, work, os.cpu_count() or 1)

    applicable, reason = kernel_applicability(None, None)
    engine = "kernel" if applicable else f"interpreter ({reason})"
    print(f"perfbench {name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print(f"engine: {engine}; references: interpreter (kernel=False), {source}")
    print("knobs: " + " ".join(f"{k}={v}" for k, v in sorted(knobs.items()) if "DIR" not in k))

    workload.warm_up()
    passes = measure(workload, seconds, tracer)
    disk_hits: list[float] = []
    if tracer is not None and name == "fig_sweep":
        disk_hits = disk_hit_seconds(
            [job for p in passes for _runner, jobs in p.executor_calls for job in jobs]
        )

    if tracer is not None:
        metrics, notes = per_layer(name, passes, tracer, disk_hits)
        tracer.dump(work / f"spans-{name}-seed{seed}.jsonl")
    else:
        metrics, notes = end_to_end(name, passes, setup_times)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")

    ops = [op for p in passes for op in p.ops]
    failed = [op for op in ops if not op.ok]
    for note in notes:
        print(note)
    print(f"failed_frac: {len(failed) / len(ops):.4f} ({len(failed)}/{len(ops)} ops)")
    for op in failed[:5]:
        print(f"FAILED: {op.error}")
    for key, unit in units.items():
        print(f"  {key:<30s} {metrics[key]:>16.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(ops),
                "failed": len(failed),
                "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
            }
        )
    )
    return 0
