"""Record-once/replay-many prediction streams.

The expensive half of the interpreter's per-cycle cost is the predictor
stacks (TAGE-SC-L + ITTAGE + folded global histories).  Their output is
*timing-independent*: the BPU stalls at every misprediction (no
wrong-path fetch), so it processes each branch exactly once, in trace
order, and every predictor consult/update sequence is a pure function of
(trace, predictor configs) — block boundaries, FTQ pressure and stall
cycles only change *when* a branch is processed, never *what* the
predictors see.

Two recordings are kept, both by driving a
:class:`~repro.frontend.bpu.LiveSource` — the interpreter's own source,
so each call order exists once — over the trace's branches:

* :func:`record_stream` runs the baseline pair and records the
  :class:`~repro.branch.tage_sc_l.TageScLPrediction` of every
  conditional branch and the mispredict outcome of every
  indirect/indirect-call branch, which a
  :class:`~repro.frontend.bpu.ReplaySource` hands back to the BPU by
  cursor.  Predictions are kept without their table indices and tags:
  they have trained already, and replay, confidence and UCP read only
  the provenance.
* :func:`record_alt_path` runs UCP's Alt-BP/Alt-Ind pair the way UCP
  trains it on the predicted path (the BPU's hooks fire once per
  branch, in trace order, so this too is timing-independent).  It
  records every Alt-BP and Alt-Ind prediction, and after each
  conditional the predicted-path history state a walk starts from.
  :class:`AltPathReplay` trains UCP's live tables from the recorded
  predictions (no predicts, no history pushes) and restores a walk's
  histories from the recorded state.

Everything *not* recorded stays live: BTB contents, RAS, bank sets and
``taken_target`` in the BPU (cheap, and UCP reads them mid-run), and the
Alt-BP/Alt-Ind tables themselves plus every walk-time prediction, which
depend on timing (when a walk runs relative to training).

Recordings are cached per live trace object in a weak-key map (the
workload suite caches traces per (name, length), so repeated
simulations — perf repeats, experiment matrices, differential tests —
record once and replay many times).
"""

from __future__ import annotations

import weakref
from collections.abc import Iterator

from repro.branch.ittage import (
    ITTAGE,
    ITTAGEConfig,
    ITTAGEHistories,
    ITTAGEPrediction,
    ITTAGEState,
)
from repro.branch.tage_sc_l import (
    TageScL,
    TageScLConfig,
    TageScLHistories,
    TageScLPrediction,
    TageScLState,
)
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


def _branches(trace: Trace) -> Iterator[tuple[int, int, bool, int]]:
    """(pc, branch class, taken, target) of every branch, in trace order."""
    pcs, classes, takens, targets, _next_pcs = trace.list_columns()
    for i in trace.branch_classes.nonzero()[0].tolist():
        yield pcs[i], classes[i], takens[i], targets[i]


def record_stream(trace: Trace, config: SimConfig) -> PredictionStream:
    """One pre-pass of the live source over the trace's branches (no caching)."""
    source = LiveSource.for_config(config, len(trace))
    cond_predictions: list[TageScLPrediction] = []
    indirect_mispredicts: list[bool] = []
    for pc, branch_class, taken, target in _branches(trace):
        if branch_class == _COND_DIRECT:
            prediction = source.conditional(pc, taken)
            # Trained already: only the provenance is ever read again.
            prediction.tage.indices = prediction.tage.tags = prediction.sc.indices = ()
            cond_predictions.append(prediction)
            continue
        mispredicted = source.unconditional(pc, branch_class, target)
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


# ----------------------------------------------------------------------
# UCP's predicted-path Alt-BP/Alt-Ind training
# ----------------------------------------------------------------------

#: Cache key: the Alt-BP and Alt-Ind geometries (frozen dataclasses).
AltPathKey = tuple[TageScLConfig, ITTAGEConfig]


class AltPathRecord:
    """UCP's predicted-path Alt-BP/Alt-Ind training for one trace."""

    __slots__ = ("cond_predictions", "cond_states", "indirect_states", "indirect_predictions")

    def __init__(
        self,
        cond_predictions: list[TageScLPrediction],
        cond_states: list[TageScLState],
        indirect_states: list[ITTAGEState],
        indirect_predictions: list[ITTAGEPrediction],
    ) -> None:
        #: One Alt-BP prediction per conditional branch, in trace order.
        self.cond_predictions = cond_predictions
        #: Alt-BP / Alt-Ind predicted-path history state after each
        #: conditional branch (what a walk it triggers starts from).
        self.cond_states = cond_states
        self.indirect_states = indirect_states
        #: One Alt-Ind prediction per indirect/indirect-call, in trace order.
        self.indirect_predictions = indirect_predictions


def record_alt_path(
    trace: Trace, cond_config: TageScLConfig, indirect_config: ITTAGEConfig
) -> AltPathRecord:
    """One pre-pass of UCP's predicted-path training (no caching)."""
    alt_bp, alt_ind = TageScL(cond_config), ITTAGE(indirect_config)
    source = LiveSource(alt_bp, alt_ind)
    cond_histories, indirect_histories = alt_bp.histories, alt_ind.histories
    cond_predictions: list[TageScLPrediction] = []
    cond_states: list[TageScLState] = []
    indirect_states: list[ITTAGEState] = []
    indirect_predictions: list[ITTAGEPrediction] = []
    for pc, branch_class, taken, target in _branches(trace):
        if branch_class == _COND_DIRECT:
            cond_predictions.append(source.conditional(pc, taken))
            cond_states.append(cond_histories.snapshot())
            indirect_states.append(indirect_histories.snapshot())
            continue
        prediction = source.unconditional_prediction(pc, branch_class, target)
        if prediction is not None:
            indirect_predictions.append(prediction)
    return AltPathRecord(cond_predictions, cond_states, indirect_states, indirect_predictions)


class AltPathReplay:
    """Trains UCP's Alt-BP/Alt-Ind from an :class:`AltPathRecord` by cursor.

    Same ``conditional``/``unconditional`` interface as the
    :class:`~repro.frontend.bpu.LiveSource` UCP uses on the interpreter:
    the tables train from the recorded predictions, and neither a
    predicted-path ``predict`` nor a history push ever runs.  Without an
    Alt-Ind (``alt_ind=None``) no ITTAGE is touched.
    """

    def __init__(self, record: AltPathRecord, alt_bp: TageScL, alt_ind: ITTAGE | None) -> None:
        self._predictions = record.cond_predictions
        self._cond_states = record.cond_states
        self._indirect_states = record.indirect_states
        self._indirect = record.indirect_predictions
        self._alt_bp = alt_bp
        self._alt_ind = alt_ind
        #: Next conditional / next indirect recording to train on.
        self._cond_cursor = 0
        self._indirect_cursor = 0

    def conditional(self, pc: int, taken: bool) -> TageScLPrediction:
        prediction = self._predictions[self._cond_cursor]
        self._cond_cursor += 1
        self._alt_bp.train(prediction, taken)
        return prediction

    def unconditional(self, pc: int, branch_class: int, target: int) -> bool:
        if self._alt_ind is None or branch_class not in INDIRECT_CLASSES:
            return False
        prediction = self._indirect[self._indirect_cursor]
        self._indirect_cursor += 1
        self._alt_ind.update(prediction, target)
        return prediction.target != target

    def restore(
        self, histories: TageScLHistories, indirect_histories: ITTAGEHistories | None
    ) -> None:
        """Set walk histories to the predicted-path state after the latest
        conditional branch (what ``copy_from`` gives the interpreter)."""
        k = self._cond_cursor - 1
        histories.restore(self._cond_states[k])
        if indirect_histories is not None:
            indirect_histories.restore(self._indirect_states[k])


_ALT_CACHE: weakref.WeakKeyDictionary[Trace, dict[AltPathKey, AltPathRecord]] = (
    weakref.WeakKeyDictionary()
)


def get_alt_record(
    trace: Trace, cond_config: TageScLConfig, indirect_config: ITTAGEConfig
) -> AltPathRecord:
    """Cached :func:`record_alt_path` (weakly keyed by the trace object)."""
    return per_trace_lookup(
        _ALT_CACHE,
        trace,
        (cond_config, indirect_config),
        lambda: record_alt_path(trace, cond_config, indirect_config),
        "repro_kernel_alt_record_total",
        "UCP alternate-path record lookups: recorded fresh vs replayed "
        "from the per-trace cache.",
        fresh="recorded",
    )
