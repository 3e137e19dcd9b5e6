"""Batch experiment execution: a synchronous facade over the job executor.

Every figure reproduction fans out dozens of independent
``(workload, config, n_instructions)`` simulations.  :class:`ParallelRunner`
dedups them by cache key, resolves what the in-memory or on-disk cache
already holds without starting an event loop, and hands the *pending*
rest to :class:`repro.serve.scheduler.Scheduler` — the executor behind
``repro serve`` too — with one worker slot per pending job, up to
``jobs``.  Results are bit-identical to running
:func:`repro.analysis.runner.run_cached` serially — same seeds, same
stats — just faster on multi-core machines.

Worker count resolution order:

1. explicit ``jobs=`` argument;
2. the ``REPRO_SIM_JOBS`` environment variable;
3. ``os.cpu_count()``.

``jobs=1`` (or a single pending job) runs a plain in-process loop — no
event loop, no pool, no pickling, identical results.  Otherwise
:meth:`ParallelRunner.run` calls :func:`asyncio.run`, so it must not be
called from inside a running event loop.

Example
-------
>>> from repro.analysis.parallel import ParallelRunner, SimJob
>>> runner = ParallelRunner(jobs=4)
>>> results = runner.run([SimJob("fp_01", SimConfig(), 20_000)])
>>> runner.stats.counters["jobs_simulated"]
1
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis import runner as _runner
from repro.common.stats import StatBlock, TimingSummary
from repro.core.configs import SimConfig
from repro.core.pipeline import SimResult

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.serve.protocol import ServeError
    from repro.serve.scheduler import FlightResult

__all__ = [
    "SimJob",
    "EngineStats",
    "JobTimeoutError",
    "ParallelExecutionError",
    "ParallelRunner",
    "resolve_job_count",
    "resolve_job_timeout",
    "run_jobs",
]


@dataclass(frozen=True)
class SimJob:
    """One unit of work: simulate ``workload`` under ``config``."""

    workload: str
    config: SimConfig
    n_instructions: int = 40_000

    @property
    def key(self) -> str:
        return _runner.cache_key(self.workload, self.n_instructions, self.config)

    def describe(self) -> str:
        return f"{self.workload}@{self.n_instructions}"


@dataclass
class JobTiming:
    """Wall-clock timing of one executed (non-cache-hit) job."""

    job: SimJob
    seconds: float


class EngineStats:
    """Per-run counters plus job timing / throughput accounting.

    ``counters`` is a :class:`repro.common.stats.StatBlock` with:

    * ``jobs_requested`` — jobs passed to :meth:`ParallelRunner.run`;
    * ``jobs_deduped`` — duplicates folded by single-flight keying;
    * ``jobs_from_memory`` / ``jobs_from_disk`` — cache hits;
    * ``jobs_simulated`` — jobs actually executed this run;
    * ``jobs_failed`` — jobs whose worker raised or died;
    * ``jobs_timed_out`` — jobs abandoned past the per-job timeout
      (counted in ``jobs_failed`` too).
    """

    def __init__(self) -> None:
        self.counters = StatBlock("parallel_engine")
        self.timings: list[JobTiming] = []
        self.wall_seconds: float = 0.0

    def timing_summary(self) -> TimingSummary:
        return TimingSummary.from_samples(t.seconds for t in self.timings)

    @property
    def throughput(self) -> float:
        """Simulated jobs per wall-clock second (0.0 when nothing ran)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.counters["jobs_simulated"] / self.wall_seconds

    def render(self) -> str:
        summary = self.timing_summary()
        c = self.counters
        return (
            f"jobs: {c['jobs_requested']} requested, "
            f"{c['jobs_deduped']} deduped, "
            f"{c['jobs_from_memory'] + c['jobs_from_disk']} cached, "
            f"{c['jobs_simulated']} simulated, {c['jobs_failed']} failed | "
            f"wall {self.wall_seconds:.2f}s, "
            f"{self.throughput:.2f} jobs/s, "
            f"per-job mean {summary.mean:.2f}s p95 {summary.p95:.2f}s"
        )


class ParallelExecutionError(RuntimeError):
    """One or more workers failed; successful results are already cached."""

    def __init__(self, failures: list[tuple[SimJob, BaseException]]) -> None:
        self.failures = failures
        detail = "; ".join(
            f"{job.describe()}: {type(error).__name__}: {error}"
            for job, error in failures
        )
        super().__init__(f"{len(failures)} simulation job(s) failed: {detail}")


class JobTimeoutError(RuntimeError):
    """A pool job ran past its per-job timeout and was abandoned.

    The worker executing it may be wedged (that is what the timeout is
    for); the executor kills that worker's slot and restarts it, so a
    poisoned config cannot leak a hung worker past the run.
    """

    def __init__(self, job: SimJob, timeout: float) -> None:
        self.job = job
        self.timeout = timeout
        super().__init__(
            f"{job.describe()} exceeded the {timeout:.1f}s per-job timeout"
        )


def resolve_job_count(jobs: int | None = None) -> int:
    """Worker count: explicit arg > ``REPRO_SIM_JOBS`` > ``os.cpu_count()``."""
    if jobs is None:
        env = os.environ.get("REPRO_SIM_JOBS", "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                jobs = None
    if jobs is None:
        jobs = os.cpu_count() or 1
    return max(1, jobs)


def resolve_job_timeout(timeout: float | None = None) -> float | None:
    """Per-job timeout in seconds: explicit arg > ``REPRO_SIM_JOB_TIMEOUT``.

    ``None`` (the default) and non-positive or unparsable values mean "no
    timeout" — the engine's historical behaviour.
    """
    if timeout is None:
        env = os.environ.get("REPRO_SIM_JOB_TIMEOUT", "").strip()
        if env:
            try:
                timeout = float(env)
            except ValueError:
                timeout = None
    if timeout is None or timeout <= 0:
        return None
    return timeout


class ParallelRunner:
    """Runs deduplicated simulation jobs, in parallel when it pays.

    Parameters
    ----------
    jobs:
        Worker count; ``None`` resolves via :func:`resolve_job_count`.
    progress:
        Optional callback ``progress(done, total, job)`` invoked in the
        calling process as each job resolves (from cache or a worker).
    job_timeout:
        Per-job wall-clock budget in seconds; ``None`` resolves via
        :func:`resolve_job_timeout` (``REPRO_SIM_JOB_TIMEOUT``, default:
        no timeout).  A job past its budget fails with
        :class:`JobTimeoutError` and only its worker is restarted while
        the remaining jobs finish.  The in-process path (one worker)
        cannot interrupt a simulation and ignores the timeout.
    """

    def __init__(
        self,
        jobs: int | None = None,
        progress=None,
        job_timeout: float | None = None,
    ) -> None:
        self.jobs = resolve_job_count(jobs)
        self.progress = progress
        self.job_timeout = resolve_job_timeout(job_timeout)
        self.stats = EngineStats()

    def run(self, jobs: list[SimJob]) -> dict[str, SimResult]:
        """Resolve every job, returning ``{cache_key: SimResult}``.

        Cache hits are returned directly; the remaining unique jobs are
        simulated (in parallel when ``self.jobs > 1``) and land in the
        in-memory and on-disk caches.  If any job fails, the successes
        are still cached and a :class:`ParallelExecutionError` is raised.
        """
        start = time.perf_counter()  # lint-ok: SIM002 wall-clock telemetry for run reports
        counters = self.stats.counters
        results: dict[str, SimResult] = {}
        failures: list[tuple[SimJob, BaseException]] = []
        try:
            counters.add("jobs_requested", len(jobs))

            # Single-flight dedup: two figures requesting the same key in one
            # batch (or the same key twice in one suite) simulate once.
            unique: dict[str, SimJob] = {}
            for job in jobs:
                if job.key in unique:
                    counters.add("jobs_deduped")
                else:
                    unique[job.key] = job

            def resolve(job: SimJob, result: SimResult) -> None:
                results[job.key] = result
                if self.progress is not None:
                    self.progress(len(results), len(unique), job)

            def settle(
                job: SimJob, outcome: FlightResult | ServeError | Exception
            ) -> None:
                if not isinstance(outcome, Exception):
                    counters.add("jobs_simulated")
                    self.stats.timings.append(JobTiming(job, outcome.seconds))
                    resolve(job, outcome.result)
                    return
                counters.add("jobs_failed")
                error: BaseException = outcome
                code = getattr(outcome, "code", None)
                if code == "timeout":
                    counters.add("jobs_timed_out")
                    error = JobTimeoutError(job, self.job_timeout or 0.0)
                elif code == "internal" and outcome.__cause__ is not None:
                    error = outcome.__cause__  # what the job body raised
                failures.append((job, error))

            pending: list[SimJob] = []
            for key, job in unique.items():
                cached = _runner._memory_cache.get(key)
                if cached is not None:
                    counters.add("jobs_from_memory")
                else:
                    cached = _runner._load_disk(key)
                    if cached is None:
                        pending.append(job)
                        continue
                    counters.add("jobs_from_disk")
                    _runner._memory_cache[key] = cached
                resolve(job, cached)

            workers = min(self.jobs, len(pending))
            if workers == 1:
                for job in pending:
                    settle(job, _run_in_process(job))
            elif workers > 1:
                # Imported here: the import-time cost of asyncio and the
                # serve package falls only on runs that need a pool.
                import asyncio

                from repro.serve.scheduler import Scheduler

                scheduler = Scheduler(
                    workers,
                    mode="process",
                    # Already resolved: 0 means "none", not "read the env".
                    job_timeout=self.job_timeout or 0.0,
                )
                asyncio.run(scheduler.run_batch(pending, settle))
        finally:
            self.stats.wall_seconds += time.perf_counter() - start  # lint-ok: SIM002 timing telemetry

        if failures:
            raise ParallelExecutionError(failures)
        return results


def _run_in_process(job: SimJob) -> FlightResult | Exception:
    """Run one job through the job body in this process."""
    from repro.serve import scheduler as _scheduler

    try:
        result, seconds, taxonomy, _spans = _scheduler.execute_job(
            job.workload,
            job.config,
            job.n_instructions,
            observe=None,
            trace_wire=None,
        )
    except Exception as error:
        return error
    _runner._memory_cache[job.key] = result
    return _scheduler.FlightResult(result, False, "simulated", seconds, taxonomy)


def run_jobs(
    jobs: list[SimJob],
    *,
    workers: int | None = None,
    progress=None,
    job_timeout: float | None = None,
) -> dict[str, SimResult]:
    """One-shot convenience wrapper around :class:`ParallelRunner`."""
    return ParallelRunner(
        jobs=workers, progress=progress, job_timeout=job_timeout
    ).run(jobs)
