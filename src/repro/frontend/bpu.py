"""Branch Prediction Unit: decoupled fetch address generation.

Walks the trace ahead of fetch, predicting every branch with the baseline
predictor stack (TAGE-SC-L + BTB + ITTAGE + RAS, paper Table II) and
emitting :class:`~repro.frontend.ftq.FetchBlock` runs into the FTQ.

Misprediction handling follows the classic decoupled-frontend model: on a
mispredicted branch the BPU *stalls* (wrong-path fetch is not simulated)
until the backend resolves the branch and redirects, after which address
generation resumes on the correct path.  BTB misses on taken branches cost
a decode re-steer bubble and train the BTB.

Every processed conditional branch is reported through ``branch_hook`` —
the attachment point for confidence statistics and for UCP's alternate-
path trigger.

TAGE-SC-L/ITTAGE outcomes come from a prediction source: a
:class:`LiveSource` runs the predictors (the interpreter), a
:class:`ReplaySource` replays a recorded stream and lets the BPU jump
over non-branch runs (the batched kernel).  All else is shared code.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Any, Callable

from repro.branch.btb import make_btb
from repro.branch.ittage import ITTAGE, ITTAGEPrediction
from repro.branch.ras import ReturnAddressStack
from repro.branch.tage_sc_l import TageScL, TageScLPrediction
from repro.common.stats import StatBlock
from repro.core.configs import SimConfig
from repro.frontend.ftq import FTQ, FetchBlock
from repro.isa.instruction import BranchClass
from repro.isa.trace import Trace

if TYPE_CHECKING:
    from repro.core.kernel.stream import PredictionStream

# BranchClass values as plain ints: the generation loop compares one per
# instruction, and IntEnum member access/comparison goes through
# ``enum.__getattr__`` — measurably slow at trace scale.
_NOT_BRANCH = int(BranchClass.NOT_BRANCH)
_COND_DIRECT = int(BranchClass.COND_DIRECT)
_UNCOND_DIRECT = int(BranchClass.UNCOND_DIRECT)
_CALL_DIRECT = int(BranchClass.CALL_DIRECT)
_CALL_INDIRECT = int(BranchClass.CALL_INDIRECT)
_INDIRECT = int(BranchClass.INDIRECT)
_RETURN = int(BranchClass.RETURN)
#: Branch classes whose target ITTAGE predicts.
INDIRECT_CLASSES = (_CALL_INDIRECT, _INDIRECT)


class BranchEvent:
    """What the BPU learned about one conditional branch it processed."""

    __slots__ = ("index", "pc", "prediction", "actual_taken", "taken_target", "mispredicted")

    def __init__(
        self,
        index: int,
        pc: int,
        prediction: TageScLPrediction,
        actual_taken: bool,
        taken_target: int | None,
        mispredicted: bool,
    ) -> None:
        self.index = index
        self.pc = pc
        self.prediction = prediction
        self.actual_taken = actual_taken
        #: Taken-direction target if known to the frontend (BTB hit or the
        #: branch is being predicted taken), else None.
        self.taken_target = taken_target
        self.mispredicted = mispredicted


class LiveSource:
    """Runs a TAGE-SC-L and an optional ITTAGE as each branch arrives.

    The one place the predictor call order is written.  The BPU's source
    runs the baseline pair; UCP trains its Alt-BP/Alt-Ind pair on the
    predicted path through a second instance; the recorders in
    :mod:`repro.core.kernel.stream` record by driving one.
    """

    def __init__(
        self, cond: TageScL, indirect: ITTAGE | None, n_instructions: int = 0
    ) -> None:
        self.cond = cond
        self.indirect = indirect
        #: Span column that never jumps: the BPU walks every instruction.
        self.spans: Sequence[int] = range(n_instructions)

    @classmethod
    def for_config(cls, config: SimConfig, n_instructions: int) -> "LiveSource":
        """The baseline predictor pair of ``config`` (the BPU's source)."""
        return cls(
            TageScL(config.branch_predictor),
            ITTAGE(config.indirect_predictor),
            n_instructions,
        )

    def conditional(self, pc: int, taken: bool) -> TageScLPrediction:
        """TAGE-SC-L ``predict`` → ``update`` → ITTAGE ``push_history``."""
        prediction = self.cond.predict(pc)
        self.cond.update(prediction, taken)
        if self.indirect is not None:
            self.indirect.push_history(pc, taken)
        return prediction

    def unconditional(self, pc: int, branch_class: int, target: int) -> bool:
        """:meth:`unconditional_prediction`; True when ITTAGE missed the target."""
        prediction = self.unconditional_prediction(pc, branch_class, target)
        return prediction is not None and prediction.target != target

    def unconditional_prediction(
        self, pc: int, branch_class: int, target: int
    ) -> ITTAGEPrediction | None:
        """Push both histories, then predict/train ITTAGE on an indirect
        branch and return that prediction (None on any other branch)."""
        self.cond.push_unconditional(pc)
        indirect = self.indirect
        if indirect is None:
            return None
        indirect.push_history(pc, True)
        if branch_class not in INDIRECT_CLASSES:
            return None
        prediction = indirect.predict(pc)
        indirect.update(prediction, target)
        return prediction


class ReplaySource:
    """Replays a recorded :class:`~repro.core.kernel.stream.PredictionStream`
    by cursor; ``spans`` is the kernel's ``next_branch`` column."""

    def __init__(self, stream: PredictionStream, spans: Sequence[int]) -> None:
        self._cond = stream.cond_predictions
        self._indirect = stream.indirect_mispredicts
        #: Next conditional / next indirect outcome to replay.
        self._cond_cursor = 0
        self._indirect_cursor = 0
        self.spans = spans

    def conditional(self, pc: int, taken: bool) -> TageScLPrediction:
        prediction = self._cond[self._cond_cursor]
        self._cond_cursor += 1
        return prediction

    def unconditional(self, pc: int, branch_class: int, target: int) -> bool:
        if branch_class not in INDIRECT_CLASSES:
            return False
        mispredicted = self._indirect[self._indirect_cursor]
        self._indirect_cursor += 1
        return mispredicted


class BPU:
    """Decoupled branch-prediction-directed address generation."""

    def __init__(
        self,
        config: SimConfig,
        trace: Trace,
        stats: StatBlock,
        hierarchy: Any = None,
        prefetcher: Any = None,
        source: LiveSource | ReplaySource | None = None,
    ) -> None:
        self.config = config
        self.trace = trace
        self.stats = stats
        self.hierarchy = hierarchy
        self.prefetcher = prefetcher
        # Hot-path flattening: plain-list trace columns and config scalars
        # (generate() runs every cycle, _build_block() every instruction).
        self._pcs, self._classes, self._takens, self._targets, _next = trace.list_columns()
        self._n_instructions = len(trace)
        self._blocks_per_cycle = config.frontend.bpu_blocks_per_cycle
        self._fetch_block_size = config.frontend.fetch_block_size
        #: Where TAGE-SC-L / ITTAGE outcomes come from (live by default).
        self.source = source if source is not None else LiveSource.for_config(config, len(trace))
        self._spans = self.source.spans
        self._conditional = self.source.conditional
        self._unconditional = self.source.unconditional
        self.btb = make_btb(config.btb)
        self.ras = ReturnAddressStack(64)
        #: Next trace index to generate an address for.
        self.index = 0
        #: Set while a mispredicted branch is unresolved.
        self.stalled_on: int | None = None
        #: BPU may not generate before this cycle (BTB-miss bubbles,
        #: redirect latency).
        self.resume_cycle = 0
        #: Called for every conditional branch event (confidence, UCP).
        self.branch_hook: Callable[[BranchEvent, int], None] | None = None
        #: Called with (pc, target) on calls/returns (D-JOLT's context).
        self.context_hook: Callable[[int, int], None] | None = None
        #: Called with (pc, branch_class, target) for every unconditional
        #: branch processed (UCP trains Alt-BP/Alt-Ind on the predicted path).
        self.uncond_hook: Callable[[int, int, int], None] | None = None
        #: BTB banks touched by demand lookups this cycle (UCP conflicts).
        self.btb_banks_used: set[int] = set()
        #: repro.observe event bus; None keeps every emit a pointer test.
        self.observer = None

    # ------------------------------------------------------------------
    # Per-cycle generation
    # ------------------------------------------------------------------

    def generate(self, ftq: FTQ, cycle: int) -> None:
        """Generate up to ``bpu_blocks_per_cycle`` fetch blocks into the FTQ."""
        self.btb_banks_used.clear()
        if self.stalled_on is not None or cycle < self.resume_cycle:
            return
        for _ in range(self._blocks_per_cycle):
            if self.index >= self._n_instructions:
                return
            if not ftq.has_room(self._fetch_block_size):
                return
            block = self._build_block(cycle)
            self._fdp_access(block, cycle)
            ftq.push(block)
            if block.mispredicted or self.stalled_on is not None or cycle < self.resume_cycle:
                return

    def _build_block(self, cycle: int) -> FetchBlock:
        """Walk the predicted path (== trace path, with stalls at wrong
        predictions) until a block-terminating event."""
        classes = self._classes
        spans = self._spans
        block_size = self._fetch_block_size
        n_instructions = self._n_instructions
        start = self.index
        count = 0
        ends_taken = False
        mispredicted = False

        while count < block_size and self.index < n_instructions:
            i = self.index
            span_end = spans[i]
            if span_end > i:
                # Non-branch run: consume it in one jump.  ``span_end`` is
                # at most ``n_instructions``; the loop condition re-checks
                # both the block budget and the trace end.
                run = span_end - i
                room = block_size - count
                if run > room:
                    run = room
                self.index = i + run
                count += run
                continue
            branch_class = classes[i]
            self.index = i + 1
            count += 1
            if branch_class == _NOT_BRANCH:
                continue

            pc = self._pcs[i]
            taken = self._takens[i]
            target = self._targets[i]

            if branch_class == _COND_DIRECT:
                mispredicted, block_taken = self._handle_conditional(
                    i, pc, taken, target, cycle
                )
                if mispredicted or block_taken:
                    ends_taken = block_taken and not mispredicted
                    break
                continue

            # Unconditional branches: always end the fetch block.
            target_wrong = self._unconditional(pc, branch_class, target)
            if self.uncond_hook is not None:
                self.uncond_hook(pc, branch_class, target)
            if branch_class == _UNCOND_DIRECT:
                self._direct_target(pc, BranchClass.UNCOND_DIRECT, target, cycle)
            elif branch_class == _CALL_DIRECT:
                self._direct_target(pc, BranchClass.CALL_DIRECT, target, cycle)
                self.ras.push(pc + 4)
                if self.context_hook is not None:
                    self.context_hook(pc, target)
            elif branch_class == _CALL_INDIRECT:
                mispredicted = self._handle_indirect(i, pc, target, target_wrong)
                self.ras.push(pc + 4)
                if self.context_hook is not None:
                    self.context_hook(pc, target)
            elif branch_class == _INDIRECT:
                mispredicted = self._handle_indirect(i, pc, target, target_wrong)
            elif branch_class == _RETURN:
                predicted = self.ras.pop()
                if predicted != target:
                    self.stats.add("ras_mispredictions")
                    mispredicted = True
                    self.stalled_on = i
                    if self.observer is not None:
                        self.observer.on_mispredict(i, pc, "return")
                if self.context_hook is not None:
                    self.context_hook(pc, target)
            ends_taken = not mispredicted
            break

        return FetchBlock(start, count, ends_taken=ends_taken, mispredicted=mispredicted)

    def _fdp_access(self, block: FetchBlock, cycle: int) -> None:
        """Fetch-directed prefetching: access the L1I for the block's lines
        as soon as the block enters the FTQ, overlapping misses."""
        hierarchy = self.hierarchy
        if hierarchy is None:
            return
        line_size = hierarchy.config.l1i.line_size
        pcs = self._pcs
        line_ready = block.line_ready
        prefetcher = self.prefetcher
        stats_add = self.stats.add
        for index in range(block.start_index, block.end_index):
            pc = pcs[index]
            line = pc // line_size
            if line in line_ready:
                continue
            hit, ready = hierarchy.fetch_line(pc, cycle)
            stats_add("l1i_demand_accesses")
            if not hit:
                stats_add("l1i_demand_misses")
            if prefetcher is not None:
                prefetcher.on_demand_access(line, hit, cycle, hierarchy)
            line_ready[line] = ready

    # ------------------------------------------------------------------
    # Branch-class handlers
    # ------------------------------------------------------------------

    def _handle_conditional(
        self, index: int, pc: int, taken: bool, target: int, cycle: int
    ) -> tuple[bool, bool]:
        """Predict one conditional; returns (mispredicted, ends_block)."""
        prediction = self._conditional(pc, taken)
        self.stats.add("cond_branches")
        direction_wrong = prediction.taken != taken

        btb_entry = self.btb.lookup(pc)
        self.btb_banks_used.add(self.btb.bank_of(pc, n_banks=2 * self.btb.config.n_banks))
        taken_target: int | None = btb_entry.target if btb_entry else None
        if taken:
            self.btb.update(pc, BranchClass.COND_DIRECT, target)
            taken_target = target if prediction.taken else taken_target

        mispredicted = direction_wrong
        ends_block = False
        if direction_wrong:
            self.stats.add("cond_mispredictions")
            self.stalled_on = index
            if self.observer is not None:
                self.observer.on_mispredict(index, pc, "cond")
        elif taken:
            # Correctly predicted taken: the target must come from the BTB.
            if btb_entry is None:
                self.stats.add("btb_misses_taken")
                self.resume_cycle = cycle + self.config.frontend.btb_miss_penalty
            ends_block = True

        if self.branch_hook is not None:
            self.branch_hook(
                BranchEvent(index, pc, prediction, taken, taken_target, mispredicted),
                cycle,
            )
        return mispredicted, ends_block

    def _direct_target(
        self, pc: int, branch_class: BranchClass, target: int, cycle: int
    ) -> None:
        """Jump/call with a static target: BTB provides it or we re-steer."""
        self.btb_banks_used.add(self.btb.bank_of(pc, n_banks=2 * self.btb.config.n_banks))
        if self.btb.lookup(pc) is None:
            self.stats.add("btb_misses_taken")
            self.resume_cycle = cycle + self.config.frontend.btb_miss_penalty
        self.btb.update(pc, branch_class, target)

    def _handle_indirect(self, index: int, pc: int, target: int, mispredicted: bool) -> bool:
        """Account one indirect branch whose target the source predicted."""
        self.stats.add("indirect_branches")
        if mispredicted:
            self.stats.add("indirect_mispredictions")
            self.stalled_on = index
            if self.observer is not None:
                self.observer.on_mispredict(index, pc, "indirect")
        branch_class = BranchClass(self._classes[index])
        self.btb.update(pc, branch_class, target)
        return mispredicted

    def check_invariants(self) -> None:
        """Sim-sanitizer hook: generation cursor and predictor stack state."""
        assert 0 <= self.index <= len(self.trace), (
            f"BPU cursor {self.index} outside trace of {len(self.trace)}"
        )
        if self.stalled_on is not None:
            assert 0 <= self.stalled_on < self.index, (
                f"BPU stalled on {self.stalled_on}, which is not behind "
                f"the generation cursor {self.index}"
            )
        self.ras.check_invariants()

    # ------------------------------------------------------------------
    # Redirect
    # ------------------------------------------------------------------

    def redirect(self, cycle: int) -> None:
        """The stalling branch resolved: resume on the correct path."""
        if self.stalled_on is None:
            raise RuntimeError("redirect without a stalled branch")
        self.stalled_on = None
        self.resume_cycle = cycle + self.config.frontend.redirect_latency
