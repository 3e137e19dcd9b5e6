"""ITTAGE — indirect target predictor (Seznec, CBP-2 2011).

Tagged geometric-history tables whose entries store a *target* plus a
confidence counter, over a direct-mapped base target cache.  The baseline
uses a 64KB-class instance; UCP optionally adds a 4KB-class instance
(Alt-Ind) on the alternate path (paper Section IV-C), so like TAGE the
hashes run against a detachable history bundle.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.history import GlobalHistory, HistoryState, PathHistory

#: :meth:`ITTAGEHistories.snapshot`: GHR and path.
ITTAGEState = tuple[HistoryState, int]


@dataclass(frozen=True)
class ITTAGEConfig:
    n_tables: int = 8
    min_history: int = 4
    max_history: int = 160
    table_size_bits: int = 9
    tag_bits: int = 9
    confidence_bits: int = 2
    base_size_bits: int = 11

    @classmethod
    def small(cls) -> "ITTAGEConfig":
        """The ~4KB-class Alt-Ind geometry (paper Section IV-F)."""
        return cls(
            n_tables=5,
            max_history=64,
            table_size_bits=6,
            tag_bits=8,
            base_size_bits=8,
        )

    def history_lengths(self) -> list[int]:
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
        # Entries store a target (assume 32 compressed bits), tag, confidence.
        per_entry = 32 + self.tag_bits + self.confidence_bits
        tagged = self.n_tables * (1 << self.table_size_bits) * per_entry
        base = (1 << self.base_size_bits) * 32
        return tagged + base


class ITTAGEHistories:
    """Detachable history bundle for ITTAGE hashing."""

    def __init__(self, config: ITTAGEConfig) -> None:
        lengths = config.history_lengths()
        self.global_history = GlobalHistory(capacity=lengths[-1] + 1)
        self.path = PathHistory(bits=16)
        self.index_folds = [
            self.global_history.add_folded(length, config.table_size_bits)
            for length in lengths
        ]
        self.tag_folds = [
            self.global_history.add_folded(length, config.tag_bits) for length in lengths
        ]

    def push(self, pc: int, taken: bool) -> None:
        self.global_history.push(taken)
        self.path.push(pc)

    def copy_from(self, other: "ITTAGEHistories") -> None:
        self.global_history.copy_from(other.global_history)
        self.path.restore(other.path.snapshot())

    def snapshot(self) -> ITTAGEState:
        """GHR and path state, for :meth:`restore`."""
        return self.global_history.snapshot(), self.path.value

    def restore(self, state: ITTAGEState) -> None:
        history, path = state
        self.global_history.restore(history)
        self.path.value = path


class ITTAGEPrediction:
    __slots__ = ("pc", "target", "hit_bank", "confidence", "indices", "tags", "base_index")

    def __init__(self) -> None:
        self.pc = 0
        self.target: int | None = None
        self.hit_bank: int | None = None
        self.confidence = 0
        self.indices: list[int] = []
        self.tags: list[int] = []
        self.base_index = 0

    @property
    def confident(self) -> bool:
        return self.confidence >= 1


class ITTAGE:
    """Indirect target predictor with tagged geometric tables."""

    def __init__(self, config: ITTAGEConfig | None = None) -> None:
        self.config = config or ITTAGEConfig()
        size = 1 << self.config.table_size_bits
        self._size_mask = size - 1
        self._tag_mask = (1 << self.config.tag_bits) - 1
        self._conf_max = (1 << self.config.confidence_bits) - 1
        n = self.config.n_tables
        self._tags = [[-1] * size for _ in range(n)]
        self._targets = [[0] * size for _ in range(n)]
        self._conf = [[0] * size for _ in range(n)]
        base_size = 1 << self.config.base_size_bits
        self._base_mask = base_size - 1
        self._base: list[int | None] = [None] * base_size
        self.histories = ITTAGEHistories(self.config)
        self._alloc_seed = 0x2545F491

    def make_histories(self) -> ITTAGEHistories:
        return ITTAGEHistories(self.config)

    def _index(self, pc: int, table: int, histories: ITTAGEHistories) -> int:
        fold = histories.index_folds[table].value
        path = histories.path.value & self._size_mask
        pc_bits = pc >> 2
        return (pc_bits ^ (pc_bits >> (table + 2)) ^ fold ^ (path >> (table & 3))) & self._size_mask

    def _tag(self, pc: int, table: int, histories: ITTAGEHistories) -> int:
        return ((pc >> 2) ^ histories.tag_folds[table].value) & self._tag_mask

    def predict(self, pc: int, histories: ITTAGEHistories | None = None) -> ITTAGEPrediction:
        histories = histories or self.histories
        pred = ITTAGEPrediction()
        pred.pc = pc
        pred.indices = [self._index(pc, t, histories) for t in range(self.config.n_tables)]
        pred.tags = [self._tag(pc, t, histories) for t in range(self.config.n_tables)]
        pred.base_index = (pc >> 2) & self._base_mask

        for table in range(self.config.n_tables - 1, -1, -1):
            if self._tags[table][pred.indices[table]] == pred.tags[table]:
                pred.hit_bank = table
                pred.target = self._targets[table][pred.indices[table]]
                pred.confidence = self._conf[table][pred.indices[table]]
                return pred
        pred.target = self._base[pred.base_index]
        return pred

    def update(self, pred: ITTAGEPrediction, actual_target: int) -> None:
        """Train on the resolved indirect branch (history pushed separately)."""
        correct = pred.target == actual_target
        if pred.hit_bank is not None:
            table, index = pred.hit_bank, pred.indices[pred.hit_bank]
            if correct:
                self._conf[table][index] = min(self._conf_max, self._conf[table][index] + 1)
            else:
                if self._conf[table][index] > 0:
                    self._conf[table][index] -= 1
                else:
                    self._targets[table][index] = actual_target
        self._base[pred.base_index] = actual_target

        if not correct:
            self._allocate(pred, actual_target)

    def _allocate(self, pred: ITTAGEPrediction, actual_target: int) -> None:
        start = (pred.hit_bank + 1) if pred.hit_bank is not None else 0
        if start >= self.config.n_tables:
            return
        self._alloc_seed = (self._alloc_seed * 1103515245 + 12345) & 0xFFFFFFFF
        skip = (self._alloc_seed >> 16) % 2
        candidates = list(range(start, self.config.n_tables))
        if skip and len(candidates) > 1:
            candidates = candidates[1:]
        for table in candidates:
            index = pred.indices[table]
            if self._conf[table][index] == 0:
                self._tags[table][index] = pred.tags[table]
                self._targets[table][index] = actual_target
                self._conf[table][index] = 1
                return
        for table in candidates:
            index = pred.indices[table]
            if self._conf[table][index] > 0:
                self._conf[table][index] -= 1

    def push_history(self, pc: int, taken: bool) -> None:
        self.histories.push(pc, taken)

    @property
    def storage_kb(self) -> float:
        return self.config.storage_bits / 8192

    def __repr__(self) -> str:
        return f"ITTAGE({self.config.n_tables} tables, ~{self.storage_kb:.1f}KB)"
