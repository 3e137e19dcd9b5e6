"""The benchmark workloads and the per-layer numbers they yield.

Every workload is a closed loop with one client in one process.  It runs
*pairs* of passes over a fixed op set made from the seed: a cold pass,
then a warm pass over the same inputs.

* ``ucp_sweep`` - set-up walks a 50K-instruction trace, builds its
  columns and records its stream; each op replays one UCP configuration
  of the paper's sweep axes on it.  The simulator is called directly, so
  there is no result cache: cold and warm passes are the same work, the
  bypass side of the result cache.
* ``fig_sweep`` - figure experiments through ``run_experiment`` over two
  short traces, on an emptied result cache (cold) and again with only
  the memory cache cleared (warm).  The only workload that uses the
  process pool, dedup and the result cache.

The benchmark calls only public functions of the program.  Per-layer
time is measured from outside, by spans around those calls and by
wrapping methods of the simulator instance the benchmark built.
"""

from __future__ import annotations

import hashlib
import json
import random
import weakref
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Any, Callable

from spans import NullTracer, Tracer

from repro.analysis.parallel import ParallelRunner
from repro.analysis.runner import (
    cache_stats,
    clear_disk_cache,
    clear_memory_cache,
    run_cached,
)
from repro.core.configs import SimConfig
from repro.core.kernel import (
    KernelSimulator,
    columns_key,
    get_columns,
    get_stream,
    kernel_applicability,
    stream_key,
)
from repro.core.pipeline import SimResult
from repro.experiments.common import Scale, baseline_config, ucp_config
from repro.experiments.registry import run_experiment
from repro.isa.trace import Trace
from repro.workloads import (
    SUITE,
    ProgramGenerator,
    ingest_trace,
)

AnyTracer = Tracer | NullTracer

#: ucp_sweep walks a suite program along a path picked by the seed.
#: Among the walker-heavy shapes (walker >= 40% of a replay) crypto_02
#: varies least in host time from one path to another (a few percent at
#: 50K, against 15-45% for the srv and int programs and up to 30% for
#: dc_interp_01).  One trace gives every op several samples in a run.
UCP_SHAPES = ("crypto_02",)
UCP_INSTRUCTIONS = 50_000
#: The paper's sweep axes: stop threshold (Fig. 15), UCP-TillL1I
#: (Fig. 15), and no Alt-Ind / TAGE-Conf (Fig. 12).
UCP_CONFIGS: dict[str, dict[str, Any]] = {
    "ucp_t500": {},
    "ucp_t64_tilll1i": {"stop_threshold": 64, "till_l1i_only": True},
    "ucp_t4096": {"stop_threshold": 4096},
    "ucp_no_altind": {"use_indirect": False},
    "ucp_tage_conf": {"confidence": "tage"},
}

#: fig_sweep: base-only figures, UCP-heavy ones, and two (fig13, fig14)
#: whose simulations all come from the memory cache after fig10, over two
#: short paths.  Pool start-up and result-cache traffic are much of its
#: cold pass; the loop-heavy programs keep the simulations steady across
#: seeds.
FIGURES = ("fig02", "fig10", "fig12", "fig15", "fig13", "fig14")
FIG_SHAPES = ("crypto_02", "fp_01")
FIG_INSTRUCTIONS = 12_000


def digest(result: SimResult) -> str:
    """Content digest of a simulation's full exported result."""
    blob = json.dumps(result.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class Walk:
    """A trace of a suite program along a path picked by ``seed``.

    The program is the suite's own; only the dynamic path varies, which
    keeps the host cost of different seeds closer than new programs do.
    """

    shape: str
    seed: int
    n_instructions: int

    @property
    def name(self) -> str:
        return f"{self.shape}_w{self.seed}"

    def build(self) -> Trace:
        config = replace(SUITE[self.shape], n_instructions=self.n_instructions)
        program = ProgramGenerator(config).build()
        trace = program.walk(
            self.n_instructions, seed=self.seed, indirect_repeat=config.indirect_repeat
        )
        trace.validate()
        return trace


def walks(
    seed: int, shapes: tuple[str, ...], per_shape: int, n_instructions: int, tag: str
) -> list[Walk]:
    """Paths through the suite programs, walk seeds drawn from ``seed``."""
    rng = random.Random(f"{tag}:{seed}")
    return [
        Walk(shape, rng.randrange(1, 2**31), n_instructions)
        for _k in range(per_shape)
        for shape in shapes
    ]


@dataclass
class OpResult:
    """One timed op: host seconds, simulated instructions, correctness."""

    seconds: float
    instructions: int
    ok: bool
    error: str = ""
    #: Layer counters read after the op (outside its timed region).
    counts: dict[str, float] = field(default_factory=dict)


def checked_op(
    fn: Callable[[], tuple[int, str, dict[str, float]]], expected: str | None
) -> OpResult:
    """Time ``fn`` and compare its output digest with ``expected``.

    ``fn`` returns (instructions, digest, counts).  An exception or a
    digest mismatch fails the op; nothing is skipped.
    """
    start = perf_counter()
    try:
        instructions, got, counts = fn()
    except Exception as error:  # a failed op is counted, never fatal
        return OpResult(perf_counter() - start, 0, False, f"{type(error).__name__}: {error}")
    seconds = perf_counter() - start
    if got != expected:
        return OpResult(seconds, instructions, False, f"digest {got[:12]} != reference", counts)
    return OpResult(seconds, instructions, True, "", counts)


# ---------------------------------------------------------------------------
# Simulations on the kernel, instrumented from outside
# ---------------------------------------------------------------------------

#: KernelSimulator components timed per cycle: (attribute, method, span).
HOT_METHODS = (
    ("bpu", "generate", "bpu.generate"),
    ("fetch", "tick", "fetch.tick"),
    ("backend", "commit", "backend.commit"),
    ("backend", "dispatch", "backend.dispatch"),
    ("hierarchy", "tick_prefetch", "caches.l1i_prefetch"),
    ("ucp", "tick", "ucp.tick"),
)


class KernelRunner:
    """Runs one simulation on the kernel the way ``simulate()`` does.

    Columns and stream are fetched first through their public entries so
    each gets its own span; the simulator's own lookups then hit the
    program's per-trace caches.  Whether a lookup built or reused is read
    off this runner's own record of the (trace, key) pairs it requested.
    """

    def __init__(self) -> None:
        self._seen: weakref.WeakKeyDictionary[Trace, set[Any]] = weakref.WeakKeyDictionary()

    def _first_request(self, trace: Trace, key: Any) -> bool:
        keys = self._seen.setdefault(trace, set())
        if key in keys:
            return False
        keys.add(key)
        return True

    def prepare(self, trace: Trace, config: SimConfig, tracer: AnyTracer) -> dict[str, float]:
        columns_built = self._first_request(trace, ("columns", columns_key(config)))
        tracer.call("kernel.columns", get_columns, trace, config)
        stream_recorded = self._first_request(trace, ("stream", stream_key(config)))
        tracer.call("kernel.stream", get_stream, trace, config)
        return {
            "kernel.columns_built": float(columns_built),
            "kernel.stream_recorded": float(stream_recorded),
        }

    def simulate(
        self, trace: Trace, config: SimConfig, name: str, tracer: AnyTracer
    ) -> tuple[SimResult, dict[str, float]]:
        counts = self.prepare(trace, config, tracer)
        sim = tracer.call("pipeline.build", KernelSimulator, trace, config, name=name)
        if not sim.kernel_active:
            raise RuntimeError(f"kernel inactive ({sim.kernel_fallback_reason})")
        if tracer.enabled:
            for attribute, method, span in HOT_METHODS:
                owner = getattr(sim, attribute)
                if owner is not None:
                    tracer.wrap(owner, method, span)
            if sim.ucp is not None:
                tracer.wrap(sim.ucp.alt_bp, "predict", "ucp.alt_predict")
        result = tracer.call("pipeline.run", sim.run)
        totals = result.totals
        assert totals is not None
        window = result.window
        counts.update(
            {
                "cycles": float(result.cycles),
                "skipped_cycles": float(sim.skipped_cycles),
                "uops_uop": float(window.get("uops_uop", 0)),
                "uops_all": float(
                    window.get("uops_uop", 0)
                    + window.get("uops_decode", 0)
                    + window.get("uops_mrc", 0)
                ),
                "ucp.walks": float(totals["ucp_walks_started"]),
                "ucp.entries_prefetched": float(totals["ucp_entries_prefetched"]),
                "ucp.entries_generated": float(totals["ucp_entries_generated"]),
            }
        )
        return result, counts


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class UcpSweep:
    name = "ucp_sweep"
    entry_modules = ("repro.workloads", "repro.core.kernel")
    #: At least two pairs: twenty ops put the tail (ten beyond) at p52.
    min_ops = 4 * len(UCP_SHAPES) * len(UCP_CONFIGS)
    warm_passes = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.inputs: list[Walk] = []
        self.traces: list[Trace] = []
        self.configs = {label: ucp_config(**overrides) for label, overrides in UCP_CONFIGS.items()}
        self.references: dict[str, str] = {}
        self.kernel = KernelRunner()

    def setup(self, tracer: AnyTracer) -> None:
        self.inputs = walks(self.seed, UCP_SHAPES, 1, UCP_INSTRUCTIONS, self.name)
        self.kernel = KernelRunner()
        self.traces = []
        base = baseline_config()
        for recipe in self.inputs:
            trace = tracer.call("workloads.generate", recipe.build)
            self.kernel.prepare(trace, base, tracer)
            self.traces.append(trace)

    def ops(self) -> list[tuple[int, str, str]]:
        """(trace index, config label, op name): every config on every trace."""
        return [
            (index, label, f"{recipe.name}/{label}")
            for index, recipe in enumerate(self.inputs)
            for label in self.configs
        ]

    def reference_jobs(self) -> list[tuple[str, Walk, str]]:
        return [(name, self.inputs[index], label) for index, label, name in self.ops()]

    def warm_up(self) -> None:
        """One untimed pass: the first replay of each config pays one-time
        costs (allocation, first calls) that no later pass does."""
        self.run_pass("warm", NullTracer())

    def reset(self, kind: str) -> None:
        pass

    def run_pass(self, kind: str, tracer: AnyTracer) -> list[OpResult]:
        results = []
        for index, label, name in self.ops():
            tracer.begin_op()

            def one(
                trace: Trace = self.traces[index], config: SimConfig = self.configs[label], name: str = name
            ) -> tuple[int, str, dict[str, float]]:
                result, counts = self.kernel.simulate(trace, config, name, tracer)
                return result.instructions, digest(result), counts

            results.append(checked_op(one, self.references.get(name)))
        return results

    def after_pass(self, kind: str) -> dict[str, float]:
        return {}


class FigSweep:
    name = "fig_sweep"
    entry_modules = ("repro.experiments.registry",)
    #: At least four cold passes: the tail (p58 of 24) falls inside the
    #: fig02/fig10 costs.
    min_ops = 4 * len(FIGURES)
    #: A warm pass only reads the disk cache (~30 ms against ~8 s for a
    #: cold one), so ten per pair give its median enough samples.
    warm_passes = 10

    def __init__(self, seed: int, jobs: int) -> None:
        self.seed = seed
        self.jobs = jobs
        self.inputs: list[Walk] = []
        self.scale: Scale | None = None
        #: Rendered figure text per figure (the reference to match).
        self.references: dict[str, str] = {}
        #: Rendered text of the latest cold pass, which the warm pass must equal.
        self._cold_text: dict[str, str] = {}

    def setup(self, tracer: AnyTracer) -> None:
        self.inputs = walks(self.seed, FIG_SHAPES, 1, FIG_INSTRUCTIONS, self.name)
        names = []
        for index, recipe in enumerate(self.inputs):
            trace = tracer.call("workloads.generate", recipe.build)
            name = f"bench_{index}"
            ingest_trace(trace, name, "generated", source_path=recipe.name)
            names.append(name)
        self.scale = Scale("bench", tuple(names), FIG_INSTRUCTIONS)

    def warm_up(self) -> None:
        """Nothing: each cold pass is meant to start cold, pool included."""

    def reset(self, kind: str) -> None:
        if kind == "cold":
            clear_disk_cache()
        clear_memory_cache()

    def run_pass(self, kind: str, tracer: AnyTracer) -> list[OpResult]:
        results = []
        for figure in FIGURES:
            tracer.begin_op()
            start = perf_counter()
            try:
                _result, text = tracer.call(
                    "experiments.run", run_experiment, figure, self.scale, jobs=self.jobs
                )
            except Exception as error:
                results.append(
                    OpResult(perf_counter() - start, 0, False, f"{type(error).__name__}: {error}")
                )
                continue
            seconds = perf_counter() - start
            if kind == "cold":
                self._cold_text[figure] = text
            if not kernel_applicability(None, None)[0]:
                error = "kernel inactive"
            elif text != self.references.get(figure) or text != self._cold_text.get(figure):
                error = f"{figure} {kind} table differs from the reference"
            else:
                error = ""
            results.append(OpResult(seconds, 0, not error, error))
        return results

    def after_pass(self, kind: str) -> dict[str, float]:
        """Result-cache size once a pass is done: one entry per simulation."""
        stats = cache_stats()
        return {"disk_entries": float(stats["disk_entries"]), "disk_bytes": float(stats["disk_bytes"])}


# ---------------------------------------------------------------------------
# Per-layer numbers from the traced passes
# ---------------------------------------------------------------------------


class ExecutorProbe:
    """Wraps ``ParallelRunner.run`` during traced fig_sweep passes.

    Records a span per call and keeps each call's runner (for its
    ``stats``) and requested jobs; :meth:`close` restores the class.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.calls: list[tuple[ParallelRunner, list[Any]]] = []
        original = self._original = ParallelRunner.run
        calls = self.calls

        def run(runner: ParallelRunner, jobs: list[Any]) -> Any:
            calls.append((runner, list(jobs)))
            with tracer.span("executor.run"):
                return original(runner, jobs)

        ParallelRunner.run = run  # type: ignore[method-assign]

    def close(self) -> None:
        ParallelRunner.run = self._original  # type: ignore[method-assign]


def disk_hit_seconds(jobs: list[Any]) -> list[float]:
    """Time ``run_cached`` on each job with the memory cache cleared.

    Every job is already on disk after a cold pass, so each call is a
    disk hit through the public entry.
    """
    seconds = []
    seen = set()
    for job in jobs:
        if job.key in seen:
            continue
        seen.add(job.key)
        clear_memory_cache()
        start = perf_counter()
        run_cached(job.workload, job.config, job.n_instructions)
        seconds.append(perf_counter() - start)
    return seconds


