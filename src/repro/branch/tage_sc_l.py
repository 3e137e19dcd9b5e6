"""TAGE-SC-L: the combined conditional branch predictor of the baseline.

Prediction chain (as in Seznec's CBP-5 predictor):

1. TAGE produces a prediction with HitBank/AltBank/bimodal provenance.
2. If the loop predictor has a *confident* entry for the branch, it
   overrides TAGE.
3. The statistical corrector computes its weighted sum (which includes the
   intermediate prediction's vote) and overrides when it confidently
   disagrees.

Every prediction carries its :class:`Provider` — which component had the
final word — and the provider's raw confidence value.  That provenance is
exactly what the paper's Fig. 6/7 measure and what TAGE-Conf / UCP-Conf
classify on (Section IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.branch.loop import LoopPredictor, LoopPrediction
from repro.branch.sc import SCHistories, SCPrediction, StatisticalCorrector
from repro.branch.tage import TAGE, TageConfig, TageHistories, TagePrediction
from repro.common.history import HistoryState

#: :meth:`TageScLHistories.snapshot`: TAGE GHR, TAGE path, SC GHR.
TageScLState = tuple[HistoryState, int, HistoryState]


class Provider(Enum):
    """Which component provided the final direction prediction."""

    BIMODAL = "bimodal"
    BIMODAL_1IN8 = "bimodal(>1in8)"  # bimodal with a miss in its last 8
    HITBANK = "hitbank"
    ALTBANK = "altbank"
    LOOP = "loop"
    SC = "sc"


@dataclass(frozen=True)
class TageScLConfig:
    """Geometry of the combined predictor."""

    tage: TageConfig = TageConfig()
    loop_size_bits: int = 6
    sc_size_bits: int = 10
    sc_use_threshold: int = 20

    @classmethod
    def small(cls) -> "TageScLConfig":
        """The ~8KB-class Alt-BP geometry (paper Section IV-F)."""
        return cls(tage=TageConfig.small(), loop_size_bits=4, sc_size_bits=7)

    @property
    def storage_kb(self) -> float:
        """Approximate storage in KB (dominated by the TAGE tables)."""
        sc_bits = 6 * 6 * (1 << self.sc_size_bits)
        loop_bits = (1 << self.loop_size_bits) * 52
        return (self.tage.storage_bits + sc_bits + loop_bits) / 8192


class TageScLHistories:
    """Joint history bundle for the TAGE and SC components.

    UCP's Alt-BP keeps two of these (predicted-path and alternate-path);
    :meth:`copy_from` is the resynchronisation the paper describes when a
    new alternate path starts.
    """

    def __init__(self, tage: TageHistories, sc: SCHistories) -> None:
        self.tage = tage
        self.sc = sc

    def push(self, pc: int, taken: bool) -> None:
        self.tage.push(pc, taken)
        self.sc.push(taken)

    def copy_from(self, other: "TageScLHistories") -> None:
        self.tage.copy_from(other.tage)
        self.sc.copy_from(other.sc)

    def snapshot(self) -> TageScLState:
        """TAGE GHR, TAGE path and SC GHR state, for :meth:`restore`."""
        tage = self.tage
        return (
            tage.global_history.snapshot(),
            tage.path.value,
            self.sc.global_history.snapshot(),
        )

    def restore(self, state: TageScLState) -> None:
        """Adopt a :meth:`snapshot` of a bundle with the same geometry."""
        tage_history, tage_path, sc_history = state
        self.tage.global_history.restore(tage_history)
        self.tage.path.value = tage_path
        self.sc.global_history.restore(sc_history)


class TageScLPrediction:
    """Combined prediction with full per-component provenance."""

    __slots__ = ("pc", "taken", "provider", "tage", "loop", "sc", "intermediate_taken")

    def __init__(
        self,
        pc: int,
        taken: bool,
        provider: Provider,
        tage: TagePrediction,
        loop: LoopPrediction,
        sc: SCPrediction,
        intermediate_taken: bool,
    ) -> None:
        self.pc = pc
        self.taken = taken
        self.provider = provider
        self.tage = tage
        self.loop = loop
        self.sc = sc
        self.intermediate_taken = intermediate_taken

    @property
    def provider_value(self) -> int:
        """The provider's raw confidence value (counter or SC sum)."""
        if self.provider is Provider.SC:
            return self.sc.lsum
        if self.provider is Provider.LOOP:
            return self.loop.confidence
        return self.tage.provider_ctr


class TageScL:
    """The full TAGE-SC-L predictor with provenance reporting."""

    def __init__(self, config: TageScLConfig | None = None) -> None:
        self.config = config or TageScLConfig()
        self.tage = TAGE(self.config.tage)
        self.loop = LoopPredictor(self.config.loop_size_bits)
        self.sc = StatisticalCorrector(
            size_bits=self.config.sc_size_bits,
            use_threshold=self.config.sc_use_threshold,
        )
        self.histories = TageScLHistories(self.tage.histories, self.sc.histories)

    def make_histories(self) -> TageScLHistories:
        """A fresh history bundle (for the alternate path)."""
        return TageScLHistories(self.tage.make_histories(), self.sc.make_histories())

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------

    def predict(
        self, pc: int, histories: TageScLHistories | None = None
    ) -> TageScLPrediction:
        histories = histories or self.histories
        tage_pred = self.tage.predict(pc, histories.tage)

        if tage_pred.provider == "hit":
            provider = Provider.HITBANK
        elif tage_pred.provider == "alt":
            provider = Provider.ALTBANK
        elif self.tage.bimodal.miss_in_last_8:
            provider = Provider.BIMODAL_1IN8
        else:
            provider = Provider.BIMODAL
        intermediate = tage_pred.taken

        loop_pred = self.loop.predict(pc)
        if loop_pred.valid and loop_pred.confident:
            intermediate = loop_pred.taken
            provider = Provider.LOOP

        # The intermediate prediction votes into the SC sum with a weight
        # scaled by its own confidence (as in Seznec's CBP-5 predictor):
        # a saturated TAGE counter is almost never overridden, a weak or
        # loop-less prediction is fair game for the corrector.
        if provider is Provider.LOOP:
            confidence = 3 if loop_pred.confident else 1
        elif provider in (Provider.BIMODAL, Provider.BIMODAL_1IN8):
            confidence = 3 if tage_pred.bimodal_ctr in (-2, 1) else 0
        else:
            ctr = tage_pred.provider_ctr
            confidence = ctr if ctr >= 0 else -ctr - 1
        weight = 4 + 10 * confidence
        sc_pred = self.sc.predict(pc, intermediate, histories.sc, tage_weight=weight)
        final = intermediate
        if self.sc.should_override(sc_pred, intermediate):
            final = sc_pred.taken
            provider = Provider.SC
            sc_pred.used = True

        return TageScLPrediction(
            pc, final, provider, tage_pred, loop_pred, sc_pred, intermediate
        )

    # ------------------------------------------------------------------
    # Update
    # ------------------------------------------------------------------

    def update(self, prediction: TageScLPrediction, taken: bool) -> None:
        """Train all components and advance the predicted-path history.

        Called once per resolved conditional branch with its actual
        direction (the pipeline repairs history on mispredictions, so the
        committed history equals the correct-path history).
        """
        self.train(prediction, taken)
        self.histories.push(prediction.pc, taken)

    def train(self, prediction: TageScLPrediction, taken: bool) -> None:
        """Train the loop, SC and TAGE tables only; no history moves.

        Reads the table indices and tags ``prediction`` carries, so a
        recorded prediction trains exactly like a fresh one.
        """
        self.loop.update(prediction.pc, taken, prediction.loop)
        self.sc.update(prediction.sc, taken)
        self.tage.update(prediction.tage, taken)

    def push_unconditional(self, pc: int) -> None:
        """Insert an always-taken (unconditional) branch into the history."""
        self.histories.push(pc, True)

    @property
    def storage_kb(self) -> float:
        return self.config.storage_kb

    def __repr__(self) -> str:
        return f"TageScL(~{self.storage_kb:.1f}KB)"
