"""UCP — Alternate Path µ-op Cache Prefetching (paper Section IV).

The engine is triggered when the BPU predicts a hard-to-predict (H2P)
conditional branch (classified by UCP-Conf or TAGE-Conf, Section IV-A/B).
It then *walks the alternate path* — the path opposite to the prediction —
using its own small predictors:

* **Alt-BP** — an 8KB-class TAGE-SC-L whose tables are trained alongside
  the main predictor on the predicted path, but which keeps a second,
  divergent history (GHR) for the alternate path, resynchronised by copy
  when a new alternate path starts (Section IV-C);
* **Alt-Ind** — an optional 4KB-class ITTAGE for indirect targets;
* **Alt-RAS** — a 16-entry return stack copied from the main RAS;
* the shared, double-banked **BTB** for taken targets, arbitrating bank
  conflicts with the demand path via a 3-bit delay counter.

Walked instructions are grouped into µ-op cache entries with the same
termination rules as the demand path; each pending entry flows through the
Alt-FTQ (µ-op tag check, arbitrated against demand lookups), the µ-op
cache MSHR + shared L1I prefetch queue, and the alternate decode queue /
decoders, before being inserted into the µ-op cache (Section IV-D).

The walk stops per Section IV-E: a 6-bit-weighted saturating counter
(Table I weights, threshold ≈ 500), infinite-weight events (BTB miss,
indirect without Alt-Ind, unknown code), a no-branch instruction guard,
or a new H2P trigger (which flushes the Alt-FTQ and restarts).

The predicted-path training is a :class:`~repro.frontend.bpu.LiveSource`
over the Alt geometry, fed by the BPU's hooks once per branch in trace
order.  That makes it timing-independent, so on the replay kernel an
:class:`~repro.core.kernel.stream.AltPathReplay` stands in for it: the
Alt tables train from recorded predictions, no predicted-path predict or
history push runs, and a walk restores its starting histories from the
recorded state instead of copying them.  Walk-time predictions and the
perceptron confidence side-predictor stay live on both engines.
"""

from __future__ import annotations

from collections import deque

from repro.branch.confidence import tage_conf_is_h2p, ucp_conf_is_h2p
from repro.branch.ittage import ITTAGE, ITTAGEConfig
from repro.branch.perceptron import HashedPerceptron, perceptron_is_h2p
from repro.branch.ras import ReturnAddressStack
from repro.branch.tage_sc_l import TageScL, TageScLConfig
from repro.caches.uopcache import REGION_BYTES, UopCacheEntry
from repro.core.configs import SimConfig
from repro.core.kernel.stream import AltPathReplay, get_alt_record
from repro.core.weights import condition_weight
from repro.frontend.bpu import BranchEvent, LiveSource
from repro.isa.instruction import BranchClass
from repro.isa.trace import Trace

#: Alt-BP and Alt-Ind geometries (paper Section IV-F: 8KB and 4KB class).
ALT_BP_CONFIG = TageScLConfig.small()
ALT_IND_CONFIG = ITTAGEConfig.small()

# Raw branch-class ints for the walk loop (one comparison per walked
# instruction; IntEnum member access is slow at that rate).
_NOT_BRANCH = int(BranchClass.NOT_BRANCH)
_COND_DIRECT = int(BranchClass.COND_DIRECT)
_CALL_DIRECT = int(BranchClass.CALL_DIRECT)
_CALL_INDIRECT = int(BranchClass.CALL_INDIRECT)
_INDIRECT = int(BranchClass.INDIRECT)
_RETURN = int(BranchClass.RETURN)


class PendingEntry:
    """A walked µ-op cache entry moving through the prefetch pipeline."""

    __slots__ = ("entry", "trigger_index", "line", "ready_cycle", "uops_left", "delay")

    def __init__(self, entry: UopCacheEntry, trigger_index: int, line: int) -> None:
        self.entry = entry
        self.trigger_index = trigger_index
        self.line = line
        #: Cycle the instruction bytes are available (set at fill time).
        self.ready_cycle: int | None = None
        #: µ-ops still to pass through the alternate decoders.
        self.uops_left = entry.n_uops
        #: Tag-check bank-conflict delay counter (3-bit).
        self.delay = 0


class UCPEngine:
    """Alternate-path walker and µ-op cache prefetcher."""

    def __init__(self, config: SimConfig, trace: Trace, simulator) -> None:
        self.config = config
        self.ucp = config.ucp
        self.trace = trace
        self.sim = simulator
        self.stats = simulator.stats

        self.alt_bp = TageScL(ALT_BP_CONFIG)
        #: The Alt-BP default histories track the predicted path; this
        #: second bundle diverges along the alternate path.
        self.alt_histories = self.alt_bp.make_histories()
        self.alt_ind = ITTAGE(ALT_IND_CONFIG) if self.ucp.use_indirect else None
        self.alt_ind_histories = self.alt_ind.make_histories() if self.alt_ind else None
        #: Walk branches not yet pushed into ``alt_ind_histories``: only an
        #: Alt-Ind predict reads them, and few walks reach an indirect.
        self._alt_ind_pending: list[tuple[int, bool]] = []
        self.alt_ras = ReturnAddressStack(self.ucp.alt_ras_entries)
        #: Predicted-path training: replayed on the kernel, live otherwise.
        self._replay: AltPathReplay | None = None
        self._training: LiveSource | AltPathReplay
        if simulator.kernel_active:
            record = get_alt_record(trace, ALT_BP_CONFIG, ALT_IND_CONFIG)
            self._training = self._replay = AltPathReplay(record, self.alt_bp, self.alt_ind)
        else:
            self._training = LiveSource(self.alt_bp, self.alt_ind)

        # Walk state.
        self.active = False
        self.trigger_index = -1
        self.trigger_alt_taken = False  # direction the alternate path took
        self._walk_pc = 0
        self._stop_counter = 0.0
        self._threshold = float(self.ucp.stop_threshold)
        self._no_branch_run = 0
        self._walk_block_len = 0  # mirror of the BPU fetch-block grouping
        # The entry being built: start PC and µ-op count (0 = none open).
        self._open_start = 0
        self._open_len = 0
        self._open_branches = 0  # branches in the open entry (hot counter)
        self._btb_delay = 0  # 3-bit BTB bank-conflict counter
        # Hot-path constants for the walk loop.
        self._clasp = bool(config.uop_cache and config.uop_cache.clasp)
        self._fetch_block_size = config.frontend.fetch_block_size

        # Prefetch pipeline.
        self.alt_ftq: deque[PendingEntry] = deque()
        self.mshr: list[PendingEntry] = []  # awaiting line fill
        self.decode_queue: deque[PendingEntry] = deque()
        self._line_waiters: dict[int, list[PendingEntry]] = {}

        #: repro.observe event bus; None keeps every emit a pointer test.
        self.observer = None

        self._conf_perceptron: HashedPerceptron | None = None
        if self.ucp.confidence == "ucp":
            self._is_h2p = ucp_conf_is_h2p
        elif self.ucp.confidence == "tage":
            self._is_h2p = tage_conf_is_h2p
        elif self.ucp.confidence == "perceptron":
            # Perceptron-output-magnitude confidence (Akkary et al. [6],
            # paper Section VII-D): a small side predictor trained on the
            # predicted path supplies the H2P flags.
            self._conf_perceptron = HashedPerceptron()
            self._is_h2p = self._perceptron_h2p
        else:
            raise ValueError(f"unknown confidence source {self.ucp.confidence!r}")

    # ------------------------------------------------------------------
    # BPU hooks: keep Alt predictors trained on the predicted path
    # ------------------------------------------------------------------

    def _perceptron_h2p(self, _prediction) -> bool:
        return self._last_perceptron_h2p

    def on_conditional(self, event: BranchEvent, cycle: int) -> None:
        """Train Alt-BP and, on an H2P prediction, start a new walk."""
        perceptron = self._conf_perceptron
        if perceptron is not None:
            conf_pred = perceptron.predict(event.pc)
            self._last_perceptron_h2p = perceptron_is_h2p(conf_pred)
            perceptron.update(conf_pred, event.actual_taken)
        self._training.conditional(event.pc, event.actual_taken)

        if not self._is_h2p(event.prediction):
            return
        self.stats.add("ucp_h2p_triggers")
        alt_start = self._alternate_start(event)
        if alt_start is None:
            self.stats.add("ucp_triggers_without_target")
            return
        self._start_walk(event, alt_start)

    def on_unconditional(self, pc: int, branch_class: int, target: int) -> None:
        """Keep the predicted-path histories in step; train Alt-Ind on an
        indirect branch."""
        if self._conf_perceptron is not None:
            self._conf_perceptron.push_unconditional(pc)
        self._training.unconditional(pc, branch_class, target)

    def on_resolution(self, index: int, cycle: int) -> None:
        """A mispredicted branch resolved (the pipeline now refills)."""
        if index == self.trigger_index:
            self.stats.add("ucp_trigger_mispredicted")

    # ------------------------------------------------------------------
    # Walk management
    # ------------------------------------------------------------------

    def _alternate_start(self, event: BranchEvent) -> int | None:
        """PC where the alternate path begins (opposite the prediction)."""
        if event.prediction.taken:
            return event.pc + 4  # alternate = fall-through
        return event.taken_target  # alternate = taken target (from BTB)

    def _start_walk(self, event: BranchEvent, alt_start: int) -> None:
        # A new H2P trigger flushes the Alt-FTQ (Section IV-E) but lets
        # in-flight prefetches (MSHR/decode) complete.
        self._flush_pending_entry()
        self.alt_ftq.clear()
        self.active = True
        self.trigger_index = event.index
        self.trigger_alt_taken = not event.prediction.taken
        self._walk_pc = alt_start
        self._stop_counter = 0.0
        self._threshold = float(self.ucp.stop_threshold)
        self._no_branch_run = 0
        self._walk_block_len = 0
        self._btb_delay = 0
        self.stats.add("ucp_walks_started")
        if self.observer is not None:
            self.observer.emit(
                "ucp_trigger",
                pc=event.pc,
                index=event.index,
                alt_taken=self.trigger_alt_taken,
            )

        # Resynchronise the alternate history: predicted-path history plus
        # the H2P branch taken in the *opposite* direction.
        if self._replay is not None:
            self._replay.restore(self.alt_histories, self.alt_ind_histories)
        else:
            self.alt_histories.copy_from(self.alt_bp.histories)
            if self.alt_ind is not None:
                self.alt_ind_histories.copy_from(self.alt_ind.histories)
        self.alt_histories.push(event.pc, not event.prediction.taken)
        self._alt_ind_pending = [(event.pc, not event.prediction.taken)]
        self.alt_ras.copy_from(self.sim.bpu.ras)

    def _stop_walk(self, reason: str) -> None:
        if not self.active:
            return
        self.active = False
        self._flush_pending_entry()
        self.stats.add(f"ucp_stop_{reason}")

    def _flush_pending_entry(self) -> None:
        """Queue whatever µ-ops are open as a final (short) entry."""
        if self._open_len:
            self._close_entry(next_pc=0)

    # ------------------------------------------------------------------
    # Per-cycle operation
    # ------------------------------------------------------------------

    def tick(self, cycle: int) -> None:
        self._tick_decode(cycle)
        self._tick_tag_check(cycle)
        if self.active:
            self._tick_walk(cycle)

    def is_idle(self) -> bool:
        """True when a tick provably cannot change any UCP state — no walk
        in progress and every queue of the prefetch pipeline is empty.
        Used by the simulator's idle-cycle skipping; kept conservative (any
        in-flight entry anywhere keeps the engine "busy" even if it could
        not advance this very cycle)."""
        return not (
            self.active
            or self.alt_ftq
            or self.decode_queue
            or self.mshr
            or self._line_waiters
        )

    # --- stage 3: alternate decoders → µ-op cache ----------------------

    def _tick_decode(self, cycle: int) -> None:
        if not self.decode_queue:
            return
        if self.ucp.shared_decoders and self.sim.fetch.decoders_busy_this_cycle:
            return  # demand path owns the decoders this cycle
        budget = self.ucp.alt_decode_width
        if self.config.isa_stateful_decode:
            # x86-like stateful decode: lines must decode in program order,
            # so a late line blocks younger ready ones (Section IV-G-1).
            while budget > 0 and self.decode_queue:
                pending = self.decode_queue[0]
                if pending.ready_cycle is None or cycle < pending.ready_cycle:
                    break
                decoded = min(budget, pending.uops_left)
                pending.uops_left -= decoded
                budget -= decoded
                self.stats.add("ucp_uops_decoded", decoded)
                if pending.uops_left == 0:
                    self.decode_queue.popleft()
                    self._insert_entry(pending, cycle)
            return
        # ARMv8-like stateless decode: any ready line may decode as it
        # returns from the hierarchy, out of order.
        finished = []
        for pending in self.decode_queue:
            if budget <= 0:
                break
            if pending.ready_cycle is None or cycle < pending.ready_cycle:
                continue
            decoded = min(budget, pending.uops_left)
            pending.uops_left -= decoded
            budget -= decoded
            self.stats.add("ucp_uops_decoded", decoded)
            if pending.uops_left == 0:
                finished.append(pending)
        for pending in finished:
            self.decode_queue.remove(pending)
            self._insert_entry(pending, cycle)

    def _insert_entry(self, pending: PendingEntry, cycle: int) -> None:
        self.sim.uop_cache.insert(pending.entry)
        self.stats.add("ucp_entries_prefetched")
        completion = self.sim.backend.completion_of(pending.trigger_index)
        timely = completion is None or completion >= cycle
        if timely:
            # Inserted before the triggering H2P instance resolved.
            self.stats.add("ucp_entries_timely")
        if self.observer is not None:
            self.observer.emit(
                "ucp_alt_fill",
                pc=pending.entry.start_pc,
                n_uops=pending.entry.n_uops,
                trigger_index=pending.trigger_index,
                timely=timely,
            )

    # --- stage 2: tag check, MSHR, L1I prefetch ------------------------

    def _tick_tag_check(self, cycle: int) -> None:
        if not self.alt_ftq:
            return
        pending = self.alt_ftq[0]
        # One µ-op tag check per cycle, arbitrated against demand lookups
        # (set-interleaved banks; demand wins, alt wins after 8 delays).
        bank = self.sim.uop_cache.bank_of(pending.entry.start_pc)
        if bank in self.sim.fetch.uop_banks_used and pending.delay < 7:
            pending.delay += 1
            self.stats.add("ucp_tagcheck_conflicts")
            return
        self.alt_ftq.popleft()
        if self.sim.uop_cache.probe(pending.entry.start_pc):
            self.stats.add("ucp_filtered_present")
            return
        if len(self.mshr) >= self.ucp.mshr_entries:
            self.stats.add("ucp_mshr_full")
            self.alt_ftq.appendleft(pending)
            return

        hierarchy = self.sim.hierarchy
        line_size = hierarchy.config.l1i.line_size
        addr = pending.entry.start_pc
        pending.line = addr // line_size
        if self.ucp.till_l1i_only:
            # UCP-TillL1I: warm the L1I only; no decode, no µ-op insert.
            hierarchy.enqueue_prefetch(addr)
            self.stats.add("ucp_l1i_prefetches")
            return
        self.mshr.append(pending)
        if hierarchy.l1i.probe(addr):
            pending.ready_cycle = cycle + hierarchy.config.l1i.hit_latency
            self._to_decode(pending)
        else:
            queued = hierarchy.enqueue_prefetch(addr)
            self.stats.add("ucp_l1i_prefetches")
            self._line_waiters.setdefault(pending.line, []).append(pending)
            if not queued:
                # Already queued/in flight elsewhere, or the PQ is full:
                # fall back to a conservative ready estimate.
                pending.ready_cycle = cycle + hierarchy.config.l2.hit_latency * 2
                self._to_decode(pending)
                self._line_waiters[pending.line].remove(pending)
                if not self._line_waiters[pending.line]:
                    del self._line_waiters[pending.line]

    def on_prefetch_fill(self, line: int, ready_cycle: int) -> None:
        """The shared L1I prefetch queue issued a line fill."""
        waiters = self._line_waiters.pop(line, None)
        if not waiters:
            return
        for pending in waiters:
            pending.ready_cycle = ready_cycle
            self._to_decode(pending)

    def _to_decode(self, pending: PendingEntry) -> None:
        if len(self.decode_queue) >= self.ucp.alt_decode_entries:
            # Decode queue full: drop (rare; counted for visibility).
            self.stats.add("ucp_decode_queue_drops")
            if pending in self.mshr:
                self.mshr.remove(pending)
            return
        if pending in self.mshr:
            self.mshr.remove(pending)
        self.decode_queue.append(pending)

    # --- stage 1: the walk ---------------------------------------------

    def _tick_walk(self, cycle: int) -> None:
        get_class = self.sim.codemap.get_class
        alt_ftq = self.alt_ftq
        ftq_limit = self.ucp.alt_ftq_entries
        no_branch_limit = self.ucp.max_instructions_without_branch
        append_uop = self._append_uop
        for _step in range(self.ucp.walk_instructions_per_cycle):
            if not self.active:
                return
            if len(alt_ftq) + 2 > ftq_limit:
                # Back-pressure: wait for tag checks to drain.  One walk
                # step can close up to two entries (a discontinuity closes
                # the open entry and the new µ-op may immediately close its
                # own), so stall while fewer than two slots are free — the
                # Alt-FTQ can never exceed its configured capacity.
                return
            pc = self._walk_pc
            branch_class = get_class(pc)
            if branch_class is None:
                # Unknown code == nothing in the BTB / no predecode info:
                # the infinite-weight stop of Table I.
                self._stop_walk("unknown_code")
                return
            if branch_class == _NOT_BRANCH:
                # A straight-line µ-op (inlined: most walked instructions).
                self._no_branch_run += 1
                append_uop(pc, False, False, pc + 4)
                self._walk_pc = pc + 4
                if self._no_branch_run >= no_branch_limit:
                    self._stop_walk("no_branch_guard")
                continue
            if not self._walk_branch(pc, branch_class, cycle):
                return

    def _walk_branch(self, pc: int, branch_class: int, cycle: int) -> bool:
        """Handle one branch on the alternate path; False ends this cycle."""
        self._no_branch_run = 0

        if branch_class == _COND_DIRECT:
            prediction = self.alt_bp.predict(pc, histories=self.alt_histories)
            weight = condition_weight(prediction)
            self._stop_counter += weight
            if not ucp_conf_is_h2p(prediction):
                # High-confidence branches extend the walk (Section IV-E).
                self._threshold += self.ucp.high_confidence_bonus
            taken = prediction.taken
            target = None
            if taken:
                target = self._btb_target(pc, cycle)
                if target is Ellipsis:
                    return False  # bank conflict: retry next cycle
                if target is None:
                    self._append_uop(pc, True, False, pc + 4)
                    self._stop_walk("btb_miss")
                    return False
            self.alt_histories.push(pc, taken)
            if self.alt_ind is not None:
                self._alt_ind_pending.append((pc, taken))
            self._append_uop(pc, True, taken, target if taken else pc + 4)
            self._walk_pc = target if taken else pc + 4
            if self._stop_counter >= self._threshold:
                self._stop_walk("threshold")
                return False
            return True

        # Unconditional branches.
        if branch_class == _RETURN:
            target = self.alt_ras.pop()
            self._stop_counter += 1
            if target is None:
                self._append_uop(pc, True, False, pc + 4)
                self._stop_walk("ras_empty")
                return False
        elif branch_class == _CALL_INDIRECT or branch_class == _INDIRECT:
            if self.alt_ind is None:
                self._append_uop(pc, True, False, pc + 4)
                self._stop_walk("indirect_no_predictor")
                return False
            histories = self.alt_ind_histories
            for pending_pc, pending_taken in self._alt_ind_pending:
                histories.push(pending_pc, pending_taken)
            self._alt_ind_pending.clear()
            ind_pred = self.alt_ind.predict(pc, histories=histories)
            target = ind_pred.target
            self._stop_counter += 1
            if target is None:
                self._append_uop(pc, True, False, pc + 4)
                self._stop_walk("indirect_unknown")
                return False
        else:  # direct jump or call
            target = self._btb_target(pc, cycle)
            if target is Ellipsis:
                return False
            if target is None:
                self._append_uop(pc, True, False, pc + 4)
                self._stop_walk("btb_miss")
                return False
        if branch_class == _CALL_DIRECT or branch_class == _CALL_INDIRECT:
            self.alt_ras.push(pc + 4)

        self.alt_histories.push(pc, True)
        if self.alt_ind is not None:
            self._alt_ind_pending.append((pc, True))
        self._append_uop(pc, True, True, target)
        self._walk_pc = target
        if self._stop_counter >= self._threshold:
            self._stop_walk("threshold")
            return False
        return True

    def _btb_target(self, pc: int, cycle: int):
        """Shared-BTB lookup with double-banked conflict arbitration.

        Returns the target PC, None on a BTB miss, or ``Ellipsis`` when a
        bank conflict defers the access to the next cycle.
        """
        btb = self.sim.bpu.btb
        if not self.ucp.ideal_btb_banking:
            bank = btb.bank_of(pc, n_banks=2 * btb.config.n_banks)
            if bank in self.sim.bpu.btb_banks_used:
                if self._btb_delay < 7:
                    self._btb_delay += 1
                    self.stats.add("ucp_btb_conflicts")
                    return Ellipsis
                # Counter saturated: the alternate path wins the bank and
                # the demand path retries next cycle.
                self.sim.bpu.resume_cycle = max(self.sim.bpu.resume_cycle, cycle + 1)
        self._btb_delay = 0
        entry = btb.peek(pc)
        return entry.target if entry is not None else None

    # ------------------------------------------------------------------
    # Entry building along the walk
    # ------------------------------------------------------------------

    def _append_uop(self, pc: int, is_branch: bool, taken: bool, next_pc: int) -> None:
        """Group walked µ-ops exactly like the demand path's entries."""
        clasp = self._clasp
        if self._open_len:
            start_pc = self._open_start
            region_end = (start_pc // REGION_BYTES + 1) * REGION_BYTES
            if (
                pc != start_pc + 4 * self._open_len
                or self._walk_block_len == 0  # new fetch-block boundary
                or (not clasp and pc >= region_end)
                or (is_branch and self._open_branches >= 2)
            ):
                self._close_entry(next_pc=pc)
        if not self._open_len:
            self._open_start = pc
        self._open_len += 1
        if is_branch:
            self._open_branches += 1
        self._walk_block_len += 1

        closes = (is_branch and taken) or self._open_len >= 8
        if not clasp:
            closes = closes or (
                pc + 4 >= (self._open_start // REGION_BYTES + 1) * REGION_BYTES
            )
        if (is_branch and taken) or self._walk_block_len >= self._fetch_block_size:
            self._walk_block_len = 0
        if closes:
            self._close_entry(next_pc=next_pc)

    def _close_entry(self, next_pc: int) -> None:
        if not self._open_len:
            return
        start_pc = self._open_start
        entry = UopCacheEntry(start_pc, self._open_len, next_pc, from_prefetch=True)
        self._open_len = 0
        self._open_branches = 0
        pending = PendingEntry(entry, self.trigger_index, start_pc // 64)
        self.alt_ftq.append(pending)
        self.stats.add("ucp_entries_generated")
