"""Batched tick kernel: record-once/replay-many simulation fast path.

``repro.core.kernel`` holds the strictly-typed kernel that batches the
per-cycle hot path over :class:`~repro.isa.trace.Trace`'s numpy columns:

* :mod:`~repro.core.kernel.columns` — per-trace precomputed columns
  (backend latency/dependency hashes, branch spans);
* :mod:`~repro.core.kernel.stream` — the recorded TAGE-SC-L/ITTAGE
  prediction stream (one pre-pass per trace × predictor config) and
  UCP's recorded Alt-BP/Alt-Ind predicted-path training (one per trace);
* :mod:`~repro.core.kernel.engine` — :class:`KernelSimulator`, the
  :class:`~repro.core.pipeline.Simulator` with the kernel forced on: its
  BPU replays the stream and jumps branch spans, bit-identical by
  construction.

``Simulator(kernel=...)`` selects the path; None defers to
``REPRO_SIM_KERNEL`` (default on; ``"0"`` disables — same convention as
``REPRO_SIM_SKIP``).  The flag deliberately does not live in
:class:`~repro.core.configs.SimConfig`: kernel and interpreter produce
identical results, so the result-cache key must not depend on it.
Bit-identity is enforced by :mod:`repro.verify.kernel_diff`.
"""

from __future__ import annotations

from repro.core.kernel.columns import KernelColumns, build_columns, columns_key, get_columns
from repro.core.kernel.engine import (
    KernelSimulator,
    count_kernel_run,
    kernel_applicability,
    kernel_enabled,
)
from repro.core.kernel.stream import PredictionStream, get_stream, record_stream, stream_key

__all__ = [
    "KernelColumns",
    "KernelSimulator",
    "PredictionStream",
    "build_columns",
    "columns_key",
    "count_kernel_run",
    "get_columns",
    "get_stream",
    "kernel_applicability",
    "kernel_enabled",
    "record_stream",
    "stream_key",
]
