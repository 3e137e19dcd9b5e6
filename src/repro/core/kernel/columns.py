"""Per-trace precomputed columns.

One numpy pass per (trace, config-scalars) pair replaces per-instruction
recomputation:

* the backend's PC-hash latency and dependency-distance columns, which
  :meth:`repro.core.backend.Backend.dispatch` reads on both engines;
* the branch-span column ``next_branch`` (for every index, the first
  index at or after it whose branch class is not ``NOT_BRANCH``, with
  ``len(trace)`` as the no-more-branches sentinel) — the replay source's
  span column, which lets the BPU jump over non-branch runs in one step
  instead of walking them instruction by instruction.

Columns are materialised as plain Python lists (per-element numpy
indexing is slower than list indexing at simulator scale, see
``Trace.list_columns``) and cached per live trace object in a weak-key
map, so repeated simulations of the same trace — the perf harness, the
experiment matrix, differential tests — pay the precompute once.
"""

from __future__ import annotations

import weakref
from collections.abc import Callable
from typing import TypeVar

import numpy as np

from repro.core.configs import SimConfig
from repro.isa.trace import Trace

K = TypeVar("K")
V = TypeVar("V")

#: Cache key: every config scalar the column formulas consume.
ColumnsKey = tuple[int, int, int, int, int, int]


class KernelColumns:
    """Precomputed per-instruction columns for one (trace, config) pair."""

    __slots__ = ("latency", "distance", "next_branch")

    def __init__(
        self,
        latency: list[int],
        distance: list[int],
        next_branch: list[int],
    ) -> None:
        #: Execution latency per non-branch instruction (PC-hash formula).
        self.latency = latency
        #: Synthetic dependency distance per non-branch instruction.
        self.distance = distance
        #: First branch index at or after each index (``len(trace)`` = none left).
        self.next_branch = next_branch


def columns_key(config: SimConfig) -> ColumnsKey:
    """The config scalars the column formulas depend on."""
    backend = config.backend
    return (
        backend.load_hash_mod,
        backend.long_load_every,
        backend.long_load_latency,
        backend.load_latency,
        backend.simple_latency,
        backend.dep_window,
    )


def build_columns(trace: Trace, config: SimConfig) -> KernelColumns:
    """One vectorized pass over the trace columns (no caching)."""
    backend = config.backend
    n = len(trace)
    pcs = trace.pcs
    classes = trace.branch_classes

    # Backend PC hash: load-likeness and the dependency distance.
    h = pcs >> 2
    h = h ^ (h >> 7)
    h = h ^ (h >> 13)
    h = h & 0xFFFF
    is_load = (h % backend.load_hash_mod) == 0
    is_long = ((h >> 8) % backend.long_load_every) == 0
    latency = np.where(
        is_load,
        np.where(is_long, backend.long_load_latency, backend.load_latency),
        backend.simple_latency,
    )
    distance = 1 + ((h >> 4) % backend.dep_window)

    # next_branch: reverse running minimum over branch positions.
    index = np.arange(n, dtype=np.int64)
    marks = np.where(classes != 0, index, np.int64(n))
    next_branch = np.minimum.accumulate(marks[::-1])[::-1]

    return KernelColumns(
        latency=latency.tolist(),
        distance=distance.tolist(),
        next_branch=next_branch.tolist(),
    )


def per_trace_lookup(
    cache: weakref.WeakKeyDictionary[Trace, dict[K, V]],
    trace: Trace,
    key: K,
    build: Callable[[], V],
    metric: str,
    description: str,
    fresh: str,
) -> V:
    """``cache[trace][key]``, built on first use; the lookup is counted as
    ``fresh`` or ``"reused"`` on the ``metric`` telemetry counter."""
    per_trace = cache.setdefault(trace, {})
    value = per_trace.get(key)
    outcome = "reused"
    if value is None:
        value = per_trace[key] = build()
        outcome = fresh
    from repro.observe import telemetry

    tel = telemetry.maybe()
    if tel is not None:
        tel.counter(metric, description, labels=("outcome",)).inc(outcome=outcome)
    return value


_CACHE: weakref.WeakKeyDictionary[Trace, dict[ColumnsKey, KernelColumns]] = (
    weakref.WeakKeyDictionary()
)


def get_columns(trace: Trace, config: SimConfig) -> KernelColumns:
    """Cached :func:`build_columns` (weakly keyed by the trace object)."""
    return per_trace_lookup(
        _CACHE,
        trace,
        columns_key(config),
        lambda: build_columns(trace, config),
        "repro_kernel_columns_total",
        "Kernel column lookups: built fresh vs reused from the per-trace cache.",
        fresh="built",
    )
