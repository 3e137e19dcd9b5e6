"""The batched tick kernel: a :class:`Simulator` that replays predictions.

Kernel and interpreter are the same ``Simulator``, ``BPU``, ``Backend``
and per-cycle loop; only the BPU's prediction source differs (a
:class:`~repro.frontend.bpu.ReplaySource` over the stream recorded by
:mod:`repro.core.kernel.stream` here, a
:class:`~repro.frontend.bpu.LiveSource` on the interpreter).  The
sanitizer and the observer read only live state (RAS, BTB, L1I, FTQ, the
BPU cursor), so checked and traced runs stay on the kernel.  Bit-identity
is enforced by :mod:`repro.verify.kernel_diff`.
"""

from __future__ import annotations

import os
from typing import Any

from repro.core.configs import SimConfig
from repro.core.pipeline import Simulator
from repro.isa.trace import Trace


def kernel_enabled(override: bool | None = None) -> bool:
    """Resolve the kernel on/off decision for one simulation.

    ``override`` forces the choice; None defers to ``REPRO_SIM_KERNEL``
    (default on, ``"0"`` disables).  Read at call time, never at import
    time, so tests and the differential oracle can flip the variable
    per run.
    """
    if override is not None:
        return override
    return os.environ.get("REPRO_SIM_KERNEL", "1") != "0"


def kernel_applicability(*_ignored: object) -> tuple[bool, str | None]:
    """Whether the kernel is selected (``REPRO_SIM_KERNEL``), plus why not.

    Returns ``(True, None)`` or ``(False, "REPRO_SIM_KERNEL=0")``.  Any
    arguments (callers pass the checker/observer settings) are ignored:
    checked and traced runs run on the kernel too.
    """
    if kernel_enabled():
        return True, None
    return False, "REPRO_SIM_KERNEL=0"


def count_kernel_run(trace: Trace) -> None:
    """Telemetry for one completed kernel run (no-op when telemetry is off)."""
    from repro.observe import telemetry

    tel = telemetry.maybe()
    if tel is None:
        return
    tel.counter(
        "repro_kernel_runs_total",
        "Simulations completed on the replay kernel.",
    ).inc()
    # Span-jump savings: every non-branch instruction is consumed by a
    # precomputed-span jump instead of a per-instruction step.
    tel.counter(
        "repro_kernel_span_jumped_instructions_total",
        "Instructions consumed via next_branch span jumps instead "
        "of per-instruction walking.",
    ).inc(int((trace.branch_classes == 0).sum()))


class KernelSimulator(Simulator):
    """A :class:`Simulator` with the replay kernel forced on."""

    #: The kernel never falls back; kept for callers that report the reason.
    kernel_fallback_reason: str | None = None

    def __init__(self, trace: Trace, config: SimConfig, **options: Any) -> None:
        super().__init__(trace, config, kernel=True, **options)
