"""Fault injection: deliberate model bugs the sanitizer must catch.

Each :class:`Fault` monkeypatches one method of a live model class with a
subtly broken variant — the kind of off-by-one, missing-update or
double-count bug that slips through code review — runs a simulation with
the invariant checker forced on, and records which invariant fired.  The
harness proves two properties:

* **sensitivity** — every registered fault raises :class:`SimCheckError`
  from one of its expected invariants;
* **specificity** — the clean model never fires (covered by
  :func:`repro.verify.differential.run_verification` and the tier-1
  invariant tests).

Patches are installed on the *class* under a context manager and always
restored, so faults cannot leak between runs.  Exposed through
``repro verify --inject`` and ``tests/test_verify_faults.py`` (the
mutation-catch tier-1 test).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

from repro.caches.cache import CacheConfig
from repro.caches.hierarchy import HierarchyConfig
from repro.core.configs import SimConfig
from repro.core.pipeline import Simulator
from repro.isa.trace import Trace
from repro.verify.invariants import SimCheckError
from repro.workloads import load_workload


@contextmanager
def _patched(cls: type, attribute: str, replacement):
    """Swap a class attribute for the duration of the block."""
    original = getattr(cls, attribute)
    setattr(cls, attribute, replacement)
    try:
        yield
    finally:
        setattr(cls, attribute, original)


@dataclass(frozen=True)
class Fault:
    """One injectable model bug and the invariants expected to catch it."""

    name: str
    description: str
    #: Invariant names that legitimately detect this fault (any one).
    expected_invariants: tuple[str, ...]
    #: Returns the context manager installing the bug.
    inject: Callable[[], object]
    #: Workload known to exercise the broken path.
    workload: str = "int_02"
    n_instructions: int = 4_000
    config: SimConfig = field(default_factory=SimConfig)


FAULTS: dict[str, Fault] = {}


def _register(fault: Fault) -> Fault:
    if fault.name in FAULTS:
        raise ValueError(f"duplicate fault {fault.name!r}")
    FAULTS[fault.name] = fault
    return fault


# ----------------------------------------------------------------------
# The faults.  Each `_inject_*` clones the real method minus one detail.
# ----------------------------------------------------------------------


def _inject_uopcache_overflow():
    """µ-op cache insert forgets to evict when the set is full."""
    from repro.caches.uopcache import UopCache

    def insert(self, entry):
        entries = self._sets[self._set_index(entry.start_pc)]
        victim = None
        if entry.start_pc in entries:
            victim = entries.pop(entry.start_pc)
            entry.used = victim.used and not entry.from_prefetch
        # BUG: no eviction when len(entries) >= ways — the set grows
        # without bound, silently inflating the modelled capacity.
        entries[entry.start_pc] = entry
        self.stats.add("insertions")
        if entry.from_prefetch:
            self.stats.add("prefetch_insertions")
        return victim

    return _patched(UopCache, "insert", insert)


_register(
    Fault(
        name="uopcache-overflow",
        description="µ-op cache insert stops evicting: sets exceed the "
        "configured associativity (capacity silently inflated)",
        expected_invariants=("uop-cache-bounds", "uop-cache-entries"),
        inject=_inject_uopcache_overflow,
    )
)


def _inject_ftq_leak():
    """FTQ pop forgets to release the occupancy it consumed."""
    from repro.frontend.ftq import FTQ

    def pop(self):
        # BUG: occupancy counter not decremented — the FTQ appears to
        # fill up and the BPU back-pressures forever.
        return self._blocks.popleft()

    return _patched(FTQ, "pop", pop)


_register(
    Fault(
        name="ftq-leak",
        description="FTQ pop leaks occupancy: the counter drifts from the "
        "queued instruction count until the frontend wedges",
        expected_invariants=("ftq-order",),
        inject=_inject_ftq_leak,
    )
)


def _inject_ras_double_bump():
    """RAS push advances the top-of-stack pointer twice."""
    from repro.branch.ras import ReturnAddressStack

    def push(self, return_address):
        if self.shadow is not None:
            self.shadow.push(return_address)
        self._entries[self._top] = return_address
        # BUG: top advances by two, so peek/pop read a stale slot and
        # returns mispredict to garbage targets.
        self._top = (self._top + 2) % self.capacity
        self._occupancy = min(self.capacity, self._occupancy + 1)

    return _patched(ReturnAddressStack, "push", push)


_register(
    Fault(
        name="ras-double-bump",
        description="RAS push advances the top pointer by two slots: the "
        "predicted return address comes from a stale entry",
        expected_invariants=("bpu-ras", "ucp-queues"),
        inject=_inject_ras_double_bump,
    )
)


def _inject_commit_overcount():
    """Backend commit counts one more retirement than it performed."""
    from repro.core.backend import Backend

    real_commit = Backend.commit

    def commit(self, cycle):
        retired = real_commit(self, cycle)
        if retired:
            # BUG: the commit counter (the IPC numerator) runs ahead of
            # the µ-ops actually drained from the ROB.
            self.committed += 1
        return retired

    return _patched(Backend, "commit", commit)


_register(
    Fault(
        name="commit-overcount",
        description="commit counter increments past the µ-ops actually "
        "retired from the ROB, inflating IPC",
        expected_invariants=("commit-conservation", "commit-monotonic"),
        inject=_inject_commit_overcount,
    )
)


def _inject_fetch_dup():
    """Fetch delivers the first µ-op of every group twice."""
    from repro.frontend.fetch import FetchEngine

    real_deliver = FetchEngine._deliver

    def _deliver(self, index, n, ready, source):
        real_deliver(self, index, n, ready, source)
        # BUG: the group's first µ-op is re-queued — the backend would
        # dispatch (and count) the same trace index twice.
        self.uop_queue.append((index, ready))

    return _patched(FetchEngine, "_deliver", _deliver)


_register(
    Fault(
        name="fetch-dup",
        description="fetch re-queues the first µ-op of each delivered "
        "group, duplicating instructions in the dispatch stream",
        expected_invariants=("fetch-queue",),
        inject=_inject_fetch_dup,
    )
)


def _inject_l1i_lru_skip():
    """L1I hits stop refreshing recency — replacement decays to FIFO."""
    from repro.caches.cache import SetAssocCache

    def access(self, addr, cycle, fill_latency):
        line = self.line_of(addr)
        self._drain_mshr(cycle)
        entries = self._sets[self._set_index(line)]
        if line in self._mshr:
            self.misses += 1
            self.mshr_merges += 1
            if self.shadow is not None:
                self.shadow.touch(line)
            if line in entries:
                del entries[line]
                entries[line] = None
            return False, self._mshr[line]

        if line in entries:
            self.hits += 1
            if self.shadow is not None and not self.shadow.access(line):
                self.shadow_mismatches += 1
            # BUG: hit does not move the line to MRU — replacement is
            # effectively FIFO, evicting hot lines.  Only the functional
            # oracle can see this: geometry stays legal, victims differ.
            return True, cycle + self.config.hit_latency

        self.misses += 1
        if self.shadow is not None and self.shadow.access(line):
            self.shadow_mismatches += 1
        start = cycle
        if len(self._mshr) >= self.config.mshr_entries:
            self.mshr_stalls += 1
            start = max(start, min(self._mshr.values()))
        ready = start + self.config.hit_latency + fill_latency
        self._mshr[line] = ready
        self.allocate(addr)
        return False, ready

    return _patched(SetAssocCache, "access", access)


_register(
    Fault(
        name="l1i-lru-skip",
        description="L1I hits skip the LRU refresh: replacement decays to "
        "FIFO, a pure policy bug invisible to structural checks",
        expected_invariants=("l1i-shadow",),
        inject=_inject_l1i_lru_skip,
        workload="srv_04",
        # A policy bug only shows when victims are actually chosen: shrink
        # the L1I to 4KB/2-way so srv_04's footprint forces replacement.
        config=SimConfig(
            hierarchy=HierarchyConfig(
                l1i=CacheConfig(
                    "L1I", size_bytes=4 * 1024, ways=2, hit_latency=4,
                    mshr_entries=16,
                )
            )
        ),
    )
)


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------


@dataclass
class FaultResult:
    """What happened when one fault ran under the checker."""

    fault: str
    caught: bool
    invariant: str | None
    cycle: int | None
    detail: str

    def render(self) -> str:
        if self.caught:
            return (
                f"CAUGHT  {self.fault}: [{self.invariant}] at cycle "
                f"{self.cycle} — {self.detail}"
            )
        return f"MISSED  {self.fault}: {self.detail}"


def run_injected(fault: Fault, body: Callable[[Trace], object]) -> FaultResult:
    """Run ``body`` on the fault's workload with the fault injected.

    A catch is a :class:`SimCheckError` from one of the fault's expected
    invariants.  A run that dies some other way — a wedged pipeline's
    no-forward-progress RuntimeError, a replay cursor's IndexError — or
    completes cleanly counts as missed, since the checks' job is to
    localise the bug.
    """
    trace = load_workload(fault.workload, fault.n_instructions).trace
    with fault.inject():
        try:
            body(trace)
        except SimCheckError as error:
            expected = error.invariant in fault.expected_invariants
            return FaultResult(
                fault=fault.name,
                caught=expected,
                invariant=error.invariant,
                cycle=error.cycle,
                detail=str(error)
                if expected
                else f"fired unexpected invariant: {error}",
            )
        except (RuntimeError, IndexError) as error:
            return FaultResult(
                fault=fault.name,
                caught=False,
                invariant=None,
                cycle=None,
                detail=f"run died without a check firing: {error!r}",
            )
    return FaultResult(
        fault=fault.name,
        caught=False,
        invariant=None,
        cycle=None,
        detail="run completed cleanly — fault undetected",
    )


def run_fault(name: str, kernel: bool | None = None) -> FaultResult:
    """Inject one fault and run with the checker on; report the catch.

    ``kernel`` selects the engine as ``Simulator(kernel=...)`` does (None
    defers to ``REPRO_SIM_KERNEL``).
    """
    fault = FAULTS[name]
    return run_injected(
        fault,
        lambda trace: Simulator(
            trace, fault.config, name=fault.workload, check=True, kernel=kernel
        ).run(),
    )


def run_all_faults() -> list[FaultResult]:
    """Run every registered fault; used by ``repro verify --inject all``."""
    return [run_fault(name) for name in FAULTS]
