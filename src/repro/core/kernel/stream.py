"""Record-once/replay-many prediction streams.

The expensive half of the interpreter's per-cycle cost is the baseline
predictor stack (TAGE-SC-L + ITTAGE + folded global histories).  Its
output is *timing-independent*: the BPU stalls at every misprediction
(no wrong-path fetch), so it processes each branch exactly once, in
trace order, and every predictor consult/update sequence is a pure
function of (trace, predictor configs) — block boundaries, FTQ pressure
and stall cycles only change *when* a branch is processed, never *what*
the predictors see.

:func:`record_stream` therefore drives a
:class:`~repro.frontend.bpu.LiveSource` — the interpreter's own
prediction source, so the call order exists once — over the trace's
branches and records

* the :class:`~repro.branch.tage_sc_l.TageScLPrediction` object for
  every conditional branch, and
* the mispredict outcome for every indirect/indirect-call branch,

which a :class:`~repro.frontend.bpu.ReplaySource` then hands back to the
BPU by cursor.  Everything *not* recorded here (BTB contents, RAS, bank
sets, ``taken_target``) stays live in the BPU: those structures are
cheap, and UCP reads them mid-run.

Streams are cached per live trace object in a weak-key map (the
workload suite caches traces per (name, length), so repeated
simulations — perf repeats, experiment matrices, differential tests —
record once and replay many times).
"""

from __future__ import annotations

import weakref

from repro.branch.tage_sc_l import TageScLPrediction
from repro.core.configs import SimConfig
from repro.core.kernel.columns import per_trace_lookup
from repro.frontend.bpu import INDIRECT_CLASSES, LiveSource
from repro.isa.instruction import BranchClass
from repro.isa.trace import Trace

_COND_DIRECT = int(BranchClass.COND_DIRECT)

#: Cache key: the two predictor configs (frozen dataclasses).  BTB and
#: RAS configuration is deliberately absent — neither feeds the TAGE or
#: ITTAGE consult/update sequence.
StreamKey = tuple[object, object]


class PredictionStream:
    """The recorded predictor outcomes for one (trace, config) pair."""

    __slots__ = ("cond_predictions", "indirect_mispredicts")

    def __init__(
        self,
        cond_predictions: list[TageScLPrediction],
        indirect_mispredicts: list[bool],
    ) -> None:
        #: One prediction per conditional branch, in trace order.
        self.cond_predictions = cond_predictions
        #: One mispredict flag per indirect/indirect-call, in trace order.
        self.indirect_mispredicts = indirect_mispredicts


def stream_key(config: SimConfig) -> StreamKey:
    return (config.branch_predictor, config.indirect_predictor)


def record_stream(trace: Trace, config: SimConfig) -> PredictionStream:
    """One pre-pass of the live source over the trace's branches (no caching)."""
    source = LiveSource(config, len(trace))
    pcs, classes, takens, targets, _next_pcs = trace.list_columns()
    cond_predictions: list[TageScLPrediction] = []
    indirect_mispredicts: list[bool] = []
    for i in trace.branch_classes.nonzero()[0].tolist():
        branch_class = classes[i]
        if branch_class == _COND_DIRECT:
            cond_predictions.append(source.conditional(pcs[i], takens[i]))
            continue
        mispredicted = source.unconditional(pcs[i], branch_class, targets[i])
        if branch_class in INDIRECT_CLASSES:
            indirect_mispredicts.append(mispredicted)
    return PredictionStream(cond_predictions, indirect_mispredicts)


_CACHE: weakref.WeakKeyDictionary[Trace, dict[StreamKey, PredictionStream]] = (
    weakref.WeakKeyDictionary()
)


def get_stream(trace: Trace, config: SimConfig) -> PredictionStream:
    """Cached :func:`record_stream` (weakly keyed by the trace object)."""
    return per_trace_lookup(
        _CACHE,
        trace,
        stream_key(config),
        lambda: record_stream(trace, config),
        "repro_kernel_stream_total",
        "Prediction-stream lookups: recorded fresh vs replayed from the "
        "per-trace cache.",
        fresh="recorded",
    )
