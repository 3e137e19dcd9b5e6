"""The cycle-level simulator: BPU → FTQ → fetch → dispatch → backend.

One :class:`Simulator` owns all structures for a single run of one trace
under one :class:`~repro.core.configs.SimConfig`.  The per-cycle order is:

1. commit (backend retires completed µ-ops in order);
2. branch resolution (the single outstanding mispredicted branch — fetch
   stalls at mispredictions, so there is at most one — redirects the BPU
   and restarts fetch once its completion cycle is reached);
3. dispatch (µ-op queue → backend, bounded by width and ROB room);
4. fetch (stream/build modes, µ-op cache, L1I path);
5. L1I prefetch queue issue (one per cycle);
6. BPU address generation into the FTQ (decoupled fetch, FDP);
7. UCP alternate-path walking and prefetching (when enabled).

Statistics are collected over the post-warm-up window: counters are
snapshotted when the commit count first passes ``warmup_fraction`` of the
trace and the deltas reported in :class:`SimResult`.
"""

from __future__ import annotations

import os

from repro.branch.confidence import ConfidenceStats, tage_conf_is_h2p, ucp_conf_is_h2p
from repro.caches.hierarchy import MemoryHierarchy
from repro.caches.uopcache import UopCache
from repro.common.stats import StatBlock, per_kilo, percent
from repro.core.backend import Backend
from repro.core.codemap import CodeMap
from repro.core.configs import SimConfig
from repro.core.mrc import MRC
from repro.frontend.bpu import BPU, BranchEvent, LiveSource, ReplaySource
from repro.frontend.fetch import NEVER, FetchEngine
from repro.frontend.ftq import FTQ
from repro.isa.trace import Trace
from repro.observe.metrics import NO_SAMPLE
from repro.prefetch.base import make_prefetcher
from repro.prefetch.djolt import DJoltPrefetcher


class SimResult:
    """Outcome of one simulation: IPC plus the measured-window counters."""

    #: Schema version of the :meth:`to_dict` export (the cache payload).
    SCHEMA = 1

    def __init__(
        self,
        name: str,
        config: SimConfig,
        instructions: int,
        cycles: int,
        window: dict[str, int],
        window_instructions: int,
        window_cycles: int,
        confidence: dict[str, ConfidenceStats],
        totals: StatBlock | None = None,
        intervals: list[dict] | None = None,
    ) -> None:
        self.name = name
        self.config = config
        self.instructions = instructions
        self.cycles = cycles
        self.window = window
        self.window_instructions = window_instructions
        self.window_cycles = window_cycles
        self.confidence = confidence
        #: Full-run counters (not warm-up-windowed); None for results built
        #: before the observability layer existed.
        self.totals = totals
        #: Interval-metrics time-series (see :mod:`repro.observe.metrics`).
        self.intervals = intervals if intervals is not None else []

    @property
    def ipc(self) -> float:
        if self.window_cycles == 0:
            return 0.0
        return self.window_instructions / self.window_cycles

    @property
    def uop_hit_rate(self) -> float:
        """Per-instruction µ-op cache hit rate (paper Fig. 3/13)."""
        stream = self.window.get("uops_uop", 0)
        build = self.window.get("uops_decode", 0)
        mrc = self.window.get("uops_mrc", 0)
        return percent(stream, stream + build + mrc)

    @property
    def switch_pki(self) -> float:
        return per_kilo(self.window.get("mode_switches", 0), self.window_instructions)

    @property
    def cond_mpki(self) -> float:
        return per_kilo(self.window.get("cond_mispredictions", 0), self.window_instructions)

    @property
    def prefetch_accuracy(self) -> float:
        """Timely UCP prefetches over issued (µ-op entry granularity)."""
        issued = self.window.get("ucp_entries_prefetched", 0)
        timely = self.window.get("ucp_entries_timely", 0)
        return percent(timely, issued)

    def to_dict(self) -> dict:
        """Stable export of everything except the config (which is a frozen
        dataclass and travels separately — e.g. pickled next to this dict
        in the result-cache envelope)."""
        return {
            "schema": self.SCHEMA,
            "name": self.name,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "window": dict(self.window),
            "window_instructions": self.window_instructions,
            "window_cycles": self.window_cycles,
            "confidence": {
                name: stats.stats.to_dict() for name, stats in self.confidence.items()
            },
            "totals": self.totals.to_dict() if self.totals is not None else None,
            "intervals": list(self.intervals),
        }

    @classmethod
    def from_dict(cls, data: dict, config: SimConfig) -> "SimResult":
        """Rebuild a result from :meth:`to_dict`; raises on shape mismatch."""
        if not isinstance(data, dict) or data.get("schema") != cls.SCHEMA:
            raise ValueError(f"not a SimResult export (schema {cls.SCHEMA})")
        confidence: dict[str, ConfidenceStats] = {}
        for name, block in data["confidence"].items():
            stats = ConfidenceStats(name)
            stats.stats = StatBlock.from_dict(block)
            confidence[name] = stats
        totals = data.get("totals")
        return cls(
            name=data["name"],
            config=config,
            instructions=data["instructions"],
            cycles=data["cycles"],
            window=dict(data["window"]),
            window_instructions=data["window_instructions"],
            window_cycles=data["window_cycles"],
            confidence=confidence,
            totals=StatBlock.from_dict(totals) if totals is not None else None,
            intervals=list(data.get("intervals", [])),
        )

    def __repr__(self) -> str:
        return f"SimResult({self.name!r}, IPC={self.ipc:.3f})"


class Simulator:
    """Glue object wiring all components for one run."""

    #: Safety valve: a run may not exceed this many cycles per instruction.
    MAX_CPI = 400

    def __init__(
        self,
        trace: Trace,
        config: SimConfig,
        name: str | None = None,
        check: bool | None = None,
        idle_skip: bool | None = None,
        observe: bool | None = None,
        interval: int | None = None,
        kernel: bool | None = None,
    ) -> None:
        from repro.core.kernel import get_columns, get_stream, kernel_enabled

        self.trace = trace
        self.config = config
        self.name = name or trace.name
        self.stats = StatBlock(self.name)
        self.codemap = CodeMap()
        self.hierarchy = MemoryHierarchy(config.hierarchy)
        self.uop_cache = UopCache(config.uop_cache) if config.uop_cache else None
        if self.uop_cache is not None:
            # Share the global counter block so µ-op cache events (incl.
            # prefetch provenance) land in the measured window.
            self.uop_cache.stats = self.stats
            if config.uop_cache.l1i_inclusive:
                line_size = self.hierarchy.config.l1i.line_size
                self.hierarchy.l1i.on_evict = lambda line: self.uop_cache.invalidate_line(
                    line * line_size, line_size
                )
        self.prefetcher = make_prefetcher(config.l1i_prefetcher)
        self.mrc = MRC(config.mrc_entries) if config.mrc_entries else None
        # The batched kernel and the interpreter differ in one input only:
        # the BPU's prediction source (replayed stream vs live predictors).
        # ``kernel=None`` defers to REPRO_SIM_KERNEL; like idle_skip it
        # stays out of SimConfig, since results are bit-identical either way.
        self.kernel_active = kernel_enabled(kernel)
        columns = get_columns(trace, config)
        source = (
            ReplaySource(get_stream(trace, config), columns.next_branch)
            if self.kernel_active
            else LiveSource.for_config(config, len(trace))
        )
        self.bpu = BPU(
            config,
            trace,
            self.stats,
            hierarchy=self.hierarchy,
            prefetcher=self.prefetcher,
            source=source,
        )
        self.fetch = FetchEngine(
            config,
            trace,
            self.uop_cache,
            self.hierarchy,
            self.codemap,
            self.stats,
            prefetcher=self.prefetcher,
            mrc=self.mrc,
        )
        self.backend = Backend(config.backend, trace, self.stats, columns)
        self.ftq = FTQ(config.frontend.ftq_capacity)
        self.confidence = {
            "tage": ConfidenceStats("tage"),
            "ucp": ConfidenceStats("ucp"),
        }
        self.ucp = None
        if config.ucp.enabled:
            from repro.core.ucp import UCPEngine

            self.ucp = UCPEngine(config, trace, self)
            self.bpu.uncond_hook = self.ucp.on_unconditional
        self.bpu.branch_hook = self._on_conditional
        if isinstance(self.prefetcher, DJoltPrefetcher):
            self.bpu.context_hook = self.prefetcher.update_context
        # Sim sanitizer (repro.verify): None unless REPRO_SIM_CHECK is set
        # or ``check=True`` — the run loop then pays only one pointer test
        # per cycle for the instrumentation.
        from repro.verify import make_checker

        self.checker = make_checker(self, enabled=check)
        # Observability (repro.observe): the event bus + stall taxonomy is
        # None unless REPRO_SIM_TRACE is set or ``observe=True`` — gated
        # exactly like the sanitizer, one pointer test per hook site.
        # Interval metrics are cheap enough to stay on by default (one
        # integer compare per cycle); ``interval=0`` or
        # REPRO_SIM_INTERVAL=0 disables them.  Neither knob lives in
        # SimConfig: both are purely observational and must not perturb
        # the result-cache key.
        from repro.observe import make_interval_recorder, make_observer

        self.observer = make_observer(self, enabled=observe)
        self.intervals = make_interval_recorder(self.stats, interval)
        # Event-driven idle-cycle skipping.  Deliberately *not* part of
        # SimConfig: results are bit-identical with and without it, and
        # ``repr(config)`` feeds the result-cache key, which must not
        # depend on a pure-performance knob.  ``idle_skip=None`` defers to
        # REPRO_SIM_SKIP (default on; "0" disables).
        if idle_skip is None:
            idle_skip = os.environ.get("REPRO_SIM_SKIP", "1") != "0"
        self.idle_skip = bool(idle_skip)
        #: Cycles jumped over / number of jumps (perf telemetry; kept out
        #: of the StatBlock so windowed stats stay identical either way).
        self.skipped_cycles = 0
        self.skip_events = 0
        self._fetch_block_size = config.frontend.fetch_block_size
        self._n_instructions = len(trace)

    @property
    def engine(self) -> str:
        """``"kernel"`` or ``"interpreter"``: where predictions come from."""
        return "kernel" if self.kernel_active else "interpreter"

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------

    def _on_conditional(self, event: BranchEvent, cycle: int) -> None:
        prediction = event.prediction
        self.confidence["tage"].record(tage_conf_is_h2p(prediction), event.mispredicted)
        self.confidence["ucp"].record(ucp_conf_is_h2p(prediction), event.mispredicted)
        if self.ucp is not None:
            self.ucp.on_conditional(event, cycle)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def _idle_until(self, cycle: int) -> int | None:
        """Event-driven idle-cycle skipping: the earliest cycle at which any
        component may change state, or None when this cycle must execute.

        The invariant is that **clock jumps never cross a schedulable
        event**: a wake cycle is returned only when every component is
        provably blocked until a known-latency event (ROB-head completion,
        branch resolution, µ-op readiness, L1I fill, BPU bubble), and the
        jump lands exactly on the earliest of those events.  Anything this
        analysis does not fully understand — a pending L1I prefetch, an
        active UCP walk, a component able to act right now — answers None
        and the cycle executes normally, so skipping is bit-identical to
        not skipping.
        """
        backend = self.backend
        rob = backend._rob
        wake = NEVER

        if rob:
            head_ready = rob[0][1]
            if head_ready <= cycle:
                return None  # commit can retire now
            wake = head_ready

        bpu = self.bpu
        stalled = bpu.stalled_on
        if stalled is not None:
            completion = backend._completion.get(stalled)
            if completion is not None:
                if completion <= cycle:
                    return None  # resolution is due
                if completion < wake:
                    wake = completion
            # Not dispatched yet: resolution waits on dispatch progress,
            # which the µ-op queue / fetch horizons below cover.
        elif bpu.index < self._n_instructions and self.ftq.has_room(
            self._fetch_block_size
        ):
            resume = bpu.resume_cycle
            if resume <= cycle:
                return None  # the BPU can generate now
            if resume < wake:
                wake = resume
        # else: trace exhausted or FTQ full — the BPU waits on others.

        queue = self.fetch.uop_queue
        if queue and len(rob) < backend.config.rob_entries:
            ready = queue[0][1]
            if ready <= cycle:
                return None  # dispatch can move µ-ops now
            if ready < wake:
                wake = ready
        # A full ROB drains via commit, whose wake is set above.

        if self.hierarchy._prefetch_queue:
            return None  # one queued prefetch issues per cycle

        ucp = self.ucp
        if ucp is not None and not ucp.is_idle():
            return None

        fetch_wake = self.fetch.idle_until(cycle, self.ftq)
        if fetch_wake is None:
            return None
        if fetch_wake < wake:
            wake = fetch_wake

        if wake <= cycle or wake >= NEVER:
            return None
        return wake

    def run(self) -> SimResult:
        trace = self.trace
        config = self.config
        n = len(trace)
        warmup_count = int(n * config.warmup_fraction)
        warm_snapshot: dict[str, int] | None = None
        warm_cycle = 0
        cycle = 0
        dispatch_width = config.backend.dispatch_width
        max_cycles = self.MAX_CPI * max(1, n)

        backend = self.backend
        fetch = self.fetch
        bpu = self.bpu
        ftq = self.ftq
        ucp = self.ucp
        hierarchy = self.hierarchy
        prefetcher = self.prefetcher
        line_size = hierarchy.config.l1i.line_size
        queue = fetch.uop_queue
        checker = self.checker
        observer = self.observer
        intervals = self.intervals
        # Hoisted interval boundary: one int compare per cycle when
        # sampling is on, and a never-true compare when it is off.
        next_sample = intervals.next_cycle if intervals is not None else NO_SAMPLE
        idle_skip = self.idle_skip
        stats_add = self.stats.add
        committed = backend.committed

        while committed < n:
            if idle_skip:
                wake = self._idle_until(cycle)
                if wake is not None:
                    if observer is not None:
                        observer.on_skip(cycle, wake)
                    self.skipped_cycles += wake - cycle
                    self.skip_events += 1
                    cycle = wake

            if cycle >= next_sample:
                # Sample at interval boundaries with pre-tick state: after
                # an idle-skip jump the counters are provably unchanged
                # since the skipped boundaries, so the series is identical
                # with skipping on or off.
                next_sample = intervals.catch_up(cycle, committed)

            if observer is not None:
                observer.begin_cycle(cycle)

            backend.commit(cycle)
            committed = backend.committed

            # Branch resolution: at most one outstanding misprediction.
            stalled = bpu.stalled_on
            if stalled is not None:
                completion = backend._completion.get(stalled)
                if completion is not None and completion <= cycle:
                    bpu.redirect(cycle)
                    fetch.on_redirect(cycle, stalled + 1)
                    if ucp is not None:
                        ucp.on_resolution(stalled, cycle)
                    if observer is not None:
                        observer.on_resolve(stalled)
                    stats_add("resolved_mispredictions")

            dispatched = 0
            while (
                dispatched < dispatch_width
                and queue
                and queue[0][1] <= cycle
                and backend.rob_has_room()
            ):
                index, _ready = queue.popleft()
                backend.dispatch(index, cycle)
                dispatched += 1

            fetch.tick(cycle, ftq)

            filled = hierarchy.tick_prefetch(cycle)
            if filled is not None:
                line = filled[0] // line_size
                if prefetcher is not None:
                    prefetcher.on_prefetch_fill(line, filled[1])
                if ucp is not None:
                    ucp.on_prefetch_fill(line, filled[1])

            bpu.generate(ftq, cycle)

            if ucp is not None:
                ucp.tick(cycle)

            if warm_snapshot is None and committed >= warmup_count:
                warm_snapshot = self.stats.as_dict()
                warm_cycle = cycle

            if checker is not None:
                checker.on_cycle(cycle)

            if observer is not None:
                observer.end_cycle(cycle)

            cycle += 1
            if cycle > max_cycles:
                raise RuntimeError(
                    f"{self.name}: no forward progress "
                    f"(committed {committed}/{n} after {cycle} cycles)"
                )

        if checker is not None:
            checker.on_finish(cycle)
        if observer is not None:
            observer.on_finish(cycle)
        if intervals is not None:
            intervals.finish(cycle, committed)
        if self.kernel_active:
            from repro.core.kernel import count_kernel_run

            count_kernel_run(trace)

        if warm_snapshot is None:  # degenerate warmup fractions
            warm_snapshot = {}
            warm_cycle = 0
            warmup_count = 0

        window = {
            key: value - warm_snapshot.get(key, 0)
            for key, value in self.stats.as_dict().items()
        }
        return SimResult(
            name=self.name,
            config=config,
            instructions=n,
            cycles=cycle,
            window=window,
            window_instructions=n - warmup_count,
            window_cycles=cycle - warm_cycle,
            confidence=self.confidence,
            totals=self.stats,
            intervals=self.intervals.samples if self.intervals is not None else [],
        )


def simulate(
    trace: Trace,
    config: SimConfig,
    name: str | None = None,
    check: bool | None = None,
    idle_skip: bool | None = None,
    observe: bool | None = None,
    interval: int | None = None,
    kernel: bool | None = None,
) -> SimResult:
    """Convenience wrapper: build a :class:`Simulator` and run it.

    ``check`` forces the runtime invariant checker on (True) or off
    (False); None defers to the ``REPRO_SIM_CHECK`` environment variable.
    ``idle_skip`` likewise forces event-driven idle-cycle skipping on or
    off (None defers to ``REPRO_SIM_SKIP``; results are bit-identical
    either way, only wall time changes).  ``observe`` forces the
    :mod:`repro.observe` event bus on or off (None defers to
    ``REPRO_SIM_TRACE``; results are bit-identical either way), and
    ``interval`` overrides the interval-metrics window in cycles (0
    disables sampling, None defers to ``REPRO_SIM_INTERVAL``).
    ``kernel`` selects the batched replay kernel
    (:mod:`repro.core.kernel`) or the scalar interpreter; None defers to
    ``REPRO_SIM_KERNEL`` (default on, ``"0"`` disables).  Results are
    bit-identical either way.  Like the other knobs, it is deliberately
    not part of ``SimConfig`` so the result-cache key cannot depend on it.
    """
    return Simulator(
        trace,
        config,
        name=name,
        check=check,
        idle_skip=idle_skip,
        observe=observe,
        interval=interval,
        kernel=kernel,
    ).run()
