"""Statistical corrector — the SC component of TAGE-SC-L.

A GEHL-style bank of signed-counter tables indexed by PC xor folded global
history of several lengths (plus a pure bias table).  The tables vote; the
weighted sum ``LSUM`` — which also includes the intermediate (TAGE/loop)
prediction's vote — decides whether to *revert* the intermediate
prediction.  The magnitude of ``LSUM`` is the SC confidence the paper
buckets in Fig. 6b (output value ranges like 0–31, 32–63, … 128–255).

Like :class:`~repro.branch.tage.TAGE`, the SC hashes against a detachable
:class:`SCHistories` bundle so UCP's alternate-path predictor can keep a
divergent history without duplicating table state.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.common.history import FoldedHistory, GlobalHistory

#: History lengths of the corrector tables (0 = bias table, PC-indexed).
DEFAULT_SC_LENGTHS: tuple[int, ...] = (0, 4, 10, 16, 27, 44)


class SCHistories:
    """Global-history bundle with one folded view per history-indexed table."""

    def __init__(self, history_lengths: tuple[int, ...], size_bits: int) -> None:
        self.history_lengths = history_lengths
        self.global_history = GlobalHistory(capacity=max(max(history_lengths), 1) + 1)
        self.folds: list[FoldedHistory | None] = [
            self.global_history.add_folded(length, size_bits) if length else None
            for length in history_lengths
        ]

    def push(self, taken: bool) -> None:
        self.global_history.push(taken)

    def copy_from(self, other: "SCHistories") -> None:
        self.global_history.copy_from(other.global_history)


class SCPrediction:
    """SC vote for one branch: the sum, its direction, and update hooks."""

    __slots__ = ("lsum", "taken", "indices", "used")

    def __init__(self, lsum: int, taken: bool, indices: Sequence[int]) -> None:
        self.lsum = lsum
        self.taken = taken
        self.indices = indices
        #: Set by the combined predictor when SC overrode the intermediate
        #: prediction (i.e. SC is the provider).
        self.used = False

    @property
    def magnitude(self) -> int:
        return abs(self.lsum)


class StatisticalCorrector:
    """GEHL-style corrector over global history.

    Counters are 6-bit signed; each contributes ``2*c + 1`` to the sum so a
    zero counter still casts a weak vote.  The intermediate prediction also
    votes, weighted by ``tage_weight``.
    """

    COUNTER_MIN = -32
    COUNTER_MAX = 31

    def __init__(
        self,
        history_lengths: tuple[int, ...] = DEFAULT_SC_LENGTHS,
        size_bits: int = 10,
        tage_weight: int = 8,
        use_threshold: int = 20,
    ) -> None:
        self.history_lengths = history_lengths
        self.size_bits = size_bits
        self.size = 1 << size_bits
        self._mask = self.size - 1
        self.tage_weight = tage_weight
        self.use_threshold = use_threshold
        self._tables = [[0] * self.size for _ in history_lengths]
        self.histories = SCHistories(history_lengths, size_bits)

    def make_histories(self) -> SCHistories:
        """A fresh, independent history bundle with matching geometry."""
        return SCHistories(self.history_lengths, self.size_bits)

    def _indices(self, pc: int, histories: SCHistories) -> list[int]:
        base = pc >> 2
        indices = []
        for table, fold in enumerate(histories.folds):
            value = base ^ (base >> (table + 3))
            if fold is not None:
                value ^= fold.value
            indices.append(value & self._mask)
        return indices

    def predict(
        self,
        pc: int,
        intermediate_taken: bool,
        histories: SCHistories | None = None,
        tage_weight: int | None = None,
    ) -> SCPrediction:
        histories = histories or self.histories
        # Fused copy of _indices() + the vote loop: one pass, no method call.
        base = pc >> 2
        mask = self._mask
        tables = self._tables
        indices = []
        append = indices.append
        lsum = 0
        shift = 3
        for table, fold in enumerate(histories.folds):
            value = base ^ (base >> shift)
            if fold is not None:
                value ^= fold.value
            value &= mask
            append(value)
            lsum += 2 * tables[table][value] + 1
            shift += 1
        weight = self.tage_weight if tage_weight is None else tage_weight
        lsum += weight if intermediate_taken else -weight
        return SCPrediction(lsum, lsum >= 0, indices)

    def should_override(self, prediction: SCPrediction, intermediate_taken: bool) -> bool:
        """SC overrides when it disagrees and its sum is confident enough."""
        return (
            prediction.taken != intermediate_taken
            and prediction.magnitude >= self.use_threshold
        )

    def update(self, prediction: SCPrediction, taken: bool) -> None:
        """GEHL update: train on mispredictions and low-confidence sums."""
        correct = prediction.taken == taken
        if correct and prediction.magnitude > 4 * self.use_threshold:
            return
        for table, index in enumerate(prediction.indices):
            counter = self._tables[table][index]
            if taken:
                self._tables[table][index] = min(self.COUNTER_MAX, counter + 1)
            else:
                self._tables[table][index] = max(self.COUNTER_MIN, counter - 1)

    def push_history(self, taken: bool) -> None:
        self.histories.push(taken)

    def __repr__(self) -> str:
        return f"StatisticalCorrector({len(self.history_lengths)} tables x {self.size})"
