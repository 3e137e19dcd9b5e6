"""TAGE — TAgged GEometric history length branch predictor.

A faithful implementation of the TAGE core (Seznec & Michaud), sized by
:class:`TageConfig`.  Key properties the paper relies on and which we model
explicitly:

* **Provenance** — every prediction reports whether it came from the
  *HitBank* (longest-history matching table), the *AltBank* (second
  longest), or the bimodal base, together with the provider counter value;
  this is the raw material of TAGE-Conf / UCP-Conf (paper Section IV-A).
* **Detachable histories** — index/tag hashes are computed against a
  :class:`TageHistories` bundle.  The default bundle tracks the predicted
  path, but UCP's alternate-path predictor (Alt-BP) maintains a second,
  divergent bundle that is resynchronised by copying (Section IV-C);
  ``predict(pc, histories=...)`` makes that possible without duplicating
  table state.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.branch.bimodal import BimodalPredictor
from repro.common.history import FoldedHistory, GlobalHistory, PathHistory


@dataclass(frozen=True)
class TageConfig:
    """Geometry of a TAGE predictor.

    The defaults approximate the 64KB-class predictor of the paper's
    baseline; ``small()`` returns the 8KB-class geometry used for UCP's
    alternate-path predictor.
    """

    n_tables: int = 12
    min_history: int = 4
    max_history: int = 320
    table_size_bits: int = 10
    tag_bits: int = 10
    counter_bits: int = 3
    useful_bits: int = 2
    bimodal_size_bits: int = 13
    useful_reset_period: int = 2048  # mispredict-allocations between u-resets

    @classmethod
    def small(cls) -> "TageConfig":
        """An ~8KB-class TAGE, the paper's Alt-BP budget (Section IV-F)."""
        return cls(
            n_tables=8,
            min_history=4,
            max_history=160,
            table_size_bits=8,
            tag_bits=8,
            bimodal_size_bits=11,
        )

    def history_lengths(self) -> list[int]:
        """Geometric series of history lengths, one per tagged table."""
        if self.n_tables == 1:
            return [self.min_history]
        ratio = (self.max_history / self.min_history) ** (1.0 / (self.n_tables - 1))
        lengths = []
        for i in range(self.n_tables):
            length = round(self.min_history * ratio**i)
            if lengths and length <= lengths[-1]:
                length = lengths[-1] + 1
            lengths.append(length)
        return lengths

    @property
    def storage_bits(self) -> int:
        """Approximate storage cost (tag + counter + useful per entry)."""
        per_entry = self.tag_bits + self.counter_bits + self.useful_bits
        tagged = self.n_tables * (1 << self.table_size_bits) * per_entry
        bimodal = (1 << self.bimodal_size_bits) * 2
        return tagged + bimodal


class TageHistories:
    """The history state a TAGE instance hashes with.

    Bundles the global direction history, a short path history, and the
    per-table folded views.  Two bundles with the same geometry can be
    resynchronised with :meth:`copy_from` — exactly what the paper's Alt-BP
    does when a new alternate path starts.
    """

    def __init__(self, config: TageConfig) -> None:
        self.config = config
        lengths = config.history_lengths()
        self.global_history = GlobalHistory(capacity=lengths[-1] + 1)
        self.path = PathHistory(bits=16)
        self.index_folds: list[FoldedHistory] = []
        self.tag_folds_a: list[FoldedHistory] = []
        self.tag_folds_b: list[FoldedHistory] = []
        for length in lengths:
            self.index_folds.append(
                self.global_history.add_folded(length, config.table_size_bits)
            )
            self.tag_folds_a.append(self.global_history.add_folded(length, config.tag_bits))
            self.tag_folds_b.append(
                self.global_history.add_folded(length, max(1, config.tag_bits - 1))
            )

    def push(self, pc: int, taken: bool) -> None:
        """Insert one branch into the history (direction + path)."""
        self.global_history.push(taken)
        self.path.push(pc)

    def copy_from(self, other: "TageHistories") -> None:
        self.global_history.copy_from(other.global_history)
        self.path.restore(other.path.snapshot())

    def snapshot(self):
        return self.global_history.snapshot(), self.path.snapshot()

    def restore(self, state) -> None:
        ghist_state, path_state = state
        self.global_history.restore(ghist_state)
        self.path.restore(path_state)


class TagePrediction:
    """Prediction plus full provenance, consumed by update and confidence."""

    __slots__ = (
        "pc",
        "taken",
        "provider",
        "hit_bank",
        "alt_bank",
        "hit_ctr",
        "alt_ctr",
        "bimodal_ctr",
        "alt_taken",
        "provider_newly_allocated",
        "indices",
        "tags",
    )

    def __init__(self) -> None:
        self.pc = 0
        self.taken = False
        self.provider = "bimodal"  # 'hit' | 'alt' | 'bimodal'
        self.hit_bank: int | None = None
        self.alt_bank: int | None = None
        self.hit_ctr = 0
        self.alt_ctr = 0
        self.bimodal_ctr = 0
        self.alt_taken = False
        self.provider_newly_allocated = False
        #: Table indices and tags update() trains; a recorded stream that
        #: has trained already keeps them empty.
        self.indices: Sequence[int] = []
        self.tags: Sequence[int] = []

    @property
    def provider_ctr(self) -> int:
        """The signed counter of whichever component provided the prediction."""
        if self.provider == "hit":
            return self.hit_ctr
        if self.provider == "alt":
            return self.alt_ctr
        return self.bimodal_ctr


class TAGE:
    """The TAGE predictor proper: bimodal base + tagged geometric tables."""

    def __init__(self, config: TageConfig | None = None) -> None:
        self.config = config or TageConfig()
        self.bimodal = BimodalPredictor(self.config.bimodal_size_bits, counter_bits=2)
        size = 1 << self.config.table_size_bits
        self._size_mask = size - 1
        self._tag_mask = (1 << self.config.tag_bits) - 1
        self._ctr_max = (1 << (self.config.counter_bits - 1)) - 1
        self._ctr_min = -(1 << (self.config.counter_bits - 1))
        self._useful_max = (1 << self.config.useful_bits) - 1
        n = self.config.n_tables
        # Tags start at -1 (no computed tag is negative), i.e. invalid.
        self._tags = [[-1] * size for _ in range(n)]
        self._ctrs = [[0] * size for _ in range(n)]
        self._useful = [[0] * size for _ in range(n)]
        self.histories = TageHistories(self.config)
        # USE_ALT_ON_NA: prefer the alternate prediction when the provider
        # entry is newly allocated (weak and not useful).
        self._use_alt_on_na = 0
        self._allocations_since_reset = 0
        # Deterministic pseudo-random source for allocation bank choice.
        self._alloc_seed = 0x9E3779B9

    # ------------------------------------------------------------------
    # Hashing
    # ------------------------------------------------------------------

    def _index(self, pc: int, table: int, histories: TageHistories) -> int:
        fold = histories.index_folds[table].value
        path = histories.path.value & self._size_mask
        pc_bits = pc >> 2
        return (pc_bits ^ (pc_bits >> (table + 2)) ^ fold ^ (path >> (table & 3))) & self._size_mask

    def _tag(self, pc: int, table: int, histories: TageHistories) -> int:
        fold_a = histories.tag_folds_a[table].value
        fold_b = histories.tag_folds_b[table].value
        return ((pc >> 2) ^ fold_a ^ (fold_b << 1)) & self._tag_mask

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------

    def predict(self, pc: int, histories: TageHistories | None = None) -> TagePrediction:
        histories = histories or self.histories
        pred = TagePrediction()
        pred.pc = pc
        # _index()/_tag() inlined across all tables: predict() runs for
        # every conditional branch and the per-table method calls dominate
        # its cost.
        n_tables = self.config.n_tables
        size_mask = self._size_mask
        tag_mask = self._tag_mask
        pc_bits = pc >> 2
        path = histories.path.value & size_mask
        index_folds = histories.index_folds
        tag_folds_a = histories.tag_folds_a
        tag_folds_b = histories.tag_folds_b
        pred.indices = indices = [
            (pc_bits ^ (pc_bits >> (t + 2)) ^ index_folds[t].value ^ (path >> (t & 3)))
            & size_mask
            for t in range(n_tables)
        ]
        pred.tags = tags = [
            (pc_bits ^ tag_folds_a[t].value ^ (tag_folds_b[t].value << 1)) & tag_mask
            for t in range(n_tables)
        ]
        pred.bimodal_ctr = self.bimodal.counter(pc)

        hit_bank = alt_bank = None
        tag_tables = self._tags
        for table in range(n_tables - 1, -1, -1):
            if tag_tables[table][indices[table]] == tags[table]:
                if hit_bank is None:
                    hit_bank = table
                else:
                    alt_bank = table
                    break
        pred.hit_bank, pred.alt_bank = hit_bank, alt_bank

        bimodal_taken = pred.bimodal_ctr >= 0
        if hit_bank is None:
            pred.taken = bimodal_taken
            pred.provider = "bimodal"
            pred.alt_taken = bimodal_taken
            return pred

        pred.hit_ctr = self._ctrs[hit_bank][pred.indices[hit_bank]]
        hit_taken = pred.hit_ctr >= 0
        if alt_bank is not None:
            pred.alt_ctr = self._ctrs[alt_bank][pred.indices[alt_bank]]
            pred.alt_taken = pred.alt_ctr >= 0
            alt_provider = "alt"
        else:
            pred.alt_taken = bimodal_taken
            alt_provider = "bimodal"

        weak = pred.hit_ctr in (-1, 0)
        not_useful = self._useful[hit_bank][pred.indices[hit_bank]] == 0
        pred.provider_newly_allocated = weak and not_useful
        if pred.provider_newly_allocated and self._use_alt_on_na >= 0:
            pred.taken = pred.alt_taken
            pred.provider = alt_provider
        else:
            pred.taken = hit_taken
            pred.provider = "hit"
        return pred

    # ------------------------------------------------------------------
    # Update
    # ------------------------------------------------------------------

    def update(self, pred: TagePrediction, taken: bool) -> None:
        """Train tables for the branch described by ``pred``.

        Does *not* push history — the owning combined predictor does that
        once per branch so TAGE, SC and LP stay in sync.
        """
        config = self.config
        hit_bank = pred.hit_bank
        mispredicted = pred.taken != taken

        # USE_ALT_ON_NA bookkeeping: trained when the newly-allocated
        # provider and the alternate prediction disagree.
        if pred.provider_newly_allocated and (pred.hit_ctr >= 0) != pred.alt_taken:
            if pred.alt_taken == taken:
                self._use_alt_on_na = min(7, self._use_alt_on_na + 1)
            else:
                self._use_alt_on_na = max(-8, self._use_alt_on_na - 1)

        if hit_bank is not None:
            index = pred.indices[hit_bank]
            self._ctrs[hit_bank][index] = self._bump(self._ctrs[hit_bank][index], taken)
            # When the provider was newly allocated, also train the alternate
            # so the fallback stays warm.
            if pred.provider_newly_allocated:
                if pred.alt_bank is not None:
                    alt_index = pred.indices[pred.alt_bank]
                    self._ctrs[pred.alt_bank][alt_index] = self._bump(
                        self._ctrs[pred.alt_bank][alt_index], taken
                    )
                else:
                    self.bimodal.update(pred.pc, taken)
            # Useful bit: provider differed from alternate and was right.
            hit_taken = pred.hit_ctr >= 0
            if hit_taken != pred.alt_taken:
                useful = self._useful[hit_bank][index]
                if hit_taken == taken:
                    self._useful[hit_bank][index] = min(self._useful_max, useful + 1)
                else:
                    self._useful[hit_bank][index] = max(0, useful - 1)
        else:
            self.bimodal.update(pred.pc, taken)

        if pred.provider == "bimodal":
            self.bimodal.record_provided(not mispredicted)

        # Allocate a longer-history entry on a misprediction.
        if mispredicted:
            start = (hit_bank + 1) if hit_bank is not None else 0
            self._allocate(pred, taken, start)

    def _allocate(self, pred: TagePrediction, taken: bool, start: int) -> None:
        config = self.config
        if start >= config.n_tables:
            return
        # Pseudo-randomly skip up to 2 banks so allocation spreads across
        # history lengths (Seznec's trick against ping-ponging).
        self._alloc_seed = (self._alloc_seed * 1103515245 + 12345) & 0xFFFFFFFF
        skip = (self._alloc_seed >> 16) % 3
        candidates = list(range(start, config.n_tables))
        if skip and len(candidates) > 1:
            candidates = candidates[min(skip, len(candidates) - 1):]

        for table in candidates:
            index = pred.indices[table]
            if self._useful[table][index] == 0:
                self._tags[table][index] = pred.tags[table]
                self._ctrs[table][index] = 0 if taken else -1
                self._allocations_since_reset += 1
                if self._allocations_since_reset >= config.useful_reset_period:
                    self._reset_useful()
                return
        # No free entry: age the candidates instead.
        for table in candidates:
            index = pred.indices[table]
            if self._useful[table][index] > 0:
                self._useful[table][index] -= 1

    def _reset_useful(self) -> None:
        self._allocations_since_reset = 0
        for table_useful in self._useful:
            for index, value in enumerate(table_useful):
                if value:
                    table_useful[index] = value >> 1

    def _bump(self, value: int, taken: bool) -> int:
        if taken:
            return min(self._ctr_max, value + 1)
        return max(self._ctr_min, value - 1)

    # ------------------------------------------------------------------
    # History management
    # ------------------------------------------------------------------

    def make_histories(self) -> TageHistories:
        """A fresh history bundle with this predictor's geometry (for Alt-BP)."""
        return TageHistories(self.config)

    def push_history(self, pc: int, taken: bool) -> None:
        self.histories.push(pc, taken)

    def __repr__(self) -> str:
        kb = self.config.storage_bits / 8192
        return f"TAGE({self.config.n_tables} tables, ~{kb:.1f}KB)"
