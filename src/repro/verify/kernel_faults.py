"""Kernel fault injection: deliberate replay bugs the oracle must catch.

The batched kernel's correctness story rests on the kernel-vs-interpreter
differential oracle (:mod:`repro.verify.kernel_diff`).  This module
proves the oracle's *sensitivity* the same way :mod:`repro.verify.faults`
proves the sanitizer's: each fault breaks one seam only the kernel uses —
the replay span column, the replay cursor, the recorded prediction
stream, or UCP's alternate-path replay — and the harness asserts the
differential fires with the ``kernel-differential`` invariant.  ``BPU``,
the live prediction source, ``UCPEngine`` and ``Backend`` are never
patched, so the interpreter reference stays clean and the oracle is the
*only* thing standing between the bug and a silently wrong result.

Exposed through ``repro verify --inject`` / ``--list-faults`` alongside
the core and service fault registries.
"""

from __future__ import annotations

import contextlib
import weakref
from collections.abc import Callable, Iterator
from typing import Any

from repro.core.configs import SimConfig, UCPConfig
from repro.core.kernel import stream as stream_module
from repro.core.kernel.stream import AltPathReplay
from repro.frontend.bpu import INDIRECT_CLASSES, ReplaySource
from repro.isa.instruction import BranchClass
from repro.verify.faults import Fault, FaultResult, _patched, run_injected
from repro.verify.kernel_diff import KERNEL_DIFFERENTIAL, kernel_differential

KERNEL_FAULTS: dict[str, Fault] = {}


def _register(name: str, description: str, **fields: Any) -> None:
    """Register a fault that only the differential oracle may catch."""
    if name in KERNEL_FAULTS:
        raise ValueError(f"duplicate kernel fault {name!r}")
    KERNEL_FAULTS[name] = Fault(
        name=name,
        description=description,
        expected_invariants=(KERNEL_DIFFERENTIAL,),
        **fields,
    )


def _after_replay_init(adjust: Callable[[ReplaySource], None]):
    """Patch :class:`ReplaySource` construction to end with ``adjust``."""
    original = ReplaySource.__init__

    def __init__(self, stream, spans):
        original(self, stream, spans)
        adjust(self)

    return _patched(ReplaySource, "__init__", __init__)


# ----------------------------------------------------------------------
# The faults.  Each breaks one replay-only seam.
# ----------------------------------------------------------------------


def _inject_span_off_by_one():
    """Every replay span overshoots by one instruction."""

    def overshoot(source: ReplaySource) -> None:
        n = len(source.spans)
        # BUG: off-by-one span end — the branch that ends each non-branch
        # run is jumped over as a plain instruction, so its handler never
        # runs.  (A fresh list: the cached columns stay intact.)
        source.spans = [
            min(end + 1, n) if end > i else end for i, end in enumerate(source.spans)
        ]

    return _after_replay_init(overshoot)


_register(
    "kernel-span-off-by-one",
    "replay span jump overshoots by one instruction, swallowing branches "
    "at span boundaries without handling them",
    inject=_inject_span_off_by_one,
)


def _inject_skewed_cursor():
    """The conditional replay cursor starts one recording behind."""
    # BUG: the first read wraps to the last recording (index -1), then
    # every prediction is replayed one branch late.
    return _after_replay_init(lambda source: setattr(source, "_cond_cursor", -1))


_register(
    "kernel-skewed-cursor",
    "replay cursor is skewed by one: every conditional branch receives "
    "its predecessor's recorded prediction",
    inject=_inject_skewed_cursor,
)


@contextlib.contextmanager
def _inject_stale_branch_class() -> Iterator[None]:
    """The recorder takes indirect calls for direct calls."""
    record = stream_module.record_stream

    def record_stream(trace, config):
        stream = record(trace, config)
        classes = [c for c in trace.branch_classes.tolist() if c in INDIRECT_CLASSES]
        # BUG: stale branch class — a CALL_INDIRECT is recorded with a
        # direct call's outcome (static target, never mispredicted).
        stream.indirect_mispredicts = [
            mispredicted and branch_class != BranchClass.CALL_INDIRECT
            for mispredicted, branch_class in zip(stream.indirect_mispredicts, classes)
        ]
        return stream

    # A private stream cache, so no other run replays the bad recording.
    with _patched(stream_module, "record_stream", record_stream), _patched(
        stream_module, "_CACHE", weakref.WeakKeyDictionary()
    ):
        yield


_register(
    "kernel-stale-branch-class",
    "recorder treats indirect calls as direct calls: their target "
    "mispredictions never reach the replay",
    inject=_inject_stale_branch_class,
    workload="dc_call_01",
)


def _inject_stale_alt_history():
    """A walk starts from the previous conditional's recorded state."""

    def restore(self, histories, indirect_histories):
        # BUG: stale alternate history — the state recorded after
        # conditional k-1 is restored, so the H2P branch that triggered
        # the walk is missing from the alternate path's history.
        k = self._cond_cursor - 2
        histories.restore(self._cond_states[k])
        if indirect_histories is not None:
            indirect_histories.restore(self._indirect_states[k])

    return _patched(AltPathReplay, "restore", restore)


_register(
    "kernel-stale-alt-history",
    "UCP walk restores the alternate-path history recorded one "
    "conditional branch early, dropping the triggering branch",
    inject=_inject_stale_alt_history,
    config=SimConfig(ucp=UCPConfig(enabled=True)),
)


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------


def run_kernel_fault(name: str) -> FaultResult:
    """Inject one kernel fault and run the differential oracle on it."""
    fault = KERNEL_FAULTS[name]
    return run_injected(
        fault, lambda trace: kernel_differential(trace, fault.config, fault.workload)
    )


def run_all_kernel_faults() -> list[FaultResult]:
    """Run every registered kernel fault (``repro verify --inject all``)."""
    return [run_kernel_fault(name) for name in KERNEL_FAULTS]
