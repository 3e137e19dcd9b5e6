"""Global branch history and folded-history (circular shift register) views.

TAGE-family predictors index and tag their tables with hashes of very long
global history vectors (up to several hundred bits).  Real hardware keeps
*folded* copies of the history — circular shift registers (CSRs) that
maintain ``history % (2**width - 1)``-style compressions incrementally, one
XOR per inserted bit.  We model both: a :class:`GlobalHistory` bit vector of
bounded length, and :class:`FoldedHistory` views registered on it that stay
consistent as bits are inserted.

The alternate-path predictors of UCP (paper Section IV-C) need *two*
speculative histories that can be resynchronised by copying; both classes
therefore support cheap snapshot/restore.
"""

from __future__ import annotations


#: :meth:`GlobalHistory.snapshot`: raw bits plus every folded value.
HistoryState = tuple[int, tuple[int, ...]]


class FoldedHistory:
    """Incrementally folded view of the most recent ``length`` history bits.

    Folds ``length`` bits down to ``width`` bits by XOR-ing ``width``-bit
    chunks, maintained in O(1) per inserted bit exactly like a hardware CSR.
    """

    __slots__ = ("length", "width", "value", "_out_point", "_mask")

    def __init__(self, length: int, width: int) -> None:
        if length < 1 or width < 1:
            raise ValueError("length and width must be positive")
        self.length = length
        self.width = width
        self.value = 0
        # Position inside the folded register where the outgoing (oldest)
        # bit lands after `length` rotations.
        self._out_point = length % width
        self._mask = (1 << width) - 1

    def update(self, new_bit: int, out_bit: int) -> None:
        """Insert ``new_bit`` and retire ``out_bit`` (the bit aged out).

        All folded bits rotate one position left (each raw bit ages by one
        index), the new bit lands at position 0, and the outgoing bit —
        which the rotation carried to position ``length % width`` — is
        cancelled by XOR.
        """
        mask = self._mask
        rotated = ((self.value << 1) & mask) | (self.value >> (self.width - 1))
        rotated ^= new_bit & 1
        rotated ^= (out_bit & 1) << self._out_point
        self.value = rotated & mask

    def recompute(self, bits: list[int]) -> None:
        """Rebuild the folded value from the raw ``bits`` (newest first)."""
        folded = 0
        for position, bit in enumerate(bits[: self.length]):
            if bit:
                folded ^= 1 << (position % self.width)
        self.value = folded

    def __repr__(self) -> str:
        return f"FoldedHistory(length={self.length}, width={self.width}, value={self.value:#x})"


class GlobalHistory:
    """A bounded global branch-history register with folded views.

    Newest bit is bit 0.  Folded views registered through :meth:`add_folded`
    are kept consistent on every :meth:`push`.  ``snapshot``/``restore``
    support the checkpointing that alternate-path prediction requires.
    """

    __slots__ = ("capacity", "_bits", "_folds", "_fold_params", "_capacity_mask")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._bits = 0  # newest bit is LSB
        self._folds: list[FoldedHistory] = []
        # Per-fold constants (fold, mask, width-1, length-1, out_point)
        # hoisted so push() — the hottest predictor-stack function — runs
        # the CSR rotation inline instead of through a method call per fold.
        self._fold_params: list[tuple[FoldedHistory, int, int, int, int]] = []
        self._capacity_mask = (1 << capacity) - 1

    def add_folded(self, length: int, width: int) -> FoldedHistory:
        """Register and return a folded view over the newest ``length`` bits.

        A (length, width) pair registered twice returns the first view:
        identical folds hold identical values, so :meth:`push` updates
        each distinct geometry once.
        """
        if length > self.capacity:
            raise ValueError(f"fold length {length} exceeds capacity {self.capacity}")
        for fold in self._folds:
            if fold.length == length and fold.width == width:
                return fold
        fold = FoldedHistory(length, width)
        self._folds.append(fold)
        self._fold_params.append(
            (fold, fold._mask, width - 1, length - 1, fold._out_point)
        )
        return fold

    def push(self, taken: bool) -> None:
        """Insert one direction bit (speculatively or at update time)."""
        bits = self._bits
        new_bit = 1 if taken else 0
        # Inlined FoldedHistory.update for every registered view.  No final
        # mask is needed: the rotation is masked, and both XOR terms land
        # strictly below bit `width` (out_point = length % width).
        for fold, mask, width_m1, out_shift, out_point in self._fold_params:
            value = fold.value
            fold.value = (
                (((value << 1) & mask) | (value >> width_m1))
                ^ new_bit
                ^ (((bits >> out_shift) & 1) << out_point)
            )
        self._bits = ((bits << 1) | new_bit) & self._capacity_mask

    def bit(self, index: int) -> int:
        """Return history bit ``index`` (0 == newest)."""
        if not 0 <= index < self.capacity:
            raise IndexError(f"history index {index} out of range")
        return (self._bits >> index) & 1

    def value(self, length: int) -> int:
        """Return the newest ``length`` bits as an integer."""
        if length > self.capacity:
            raise ValueError(f"requested {length} bits from {self.capacity}-bit history")
        return self._bits & ((1 << length) - 1)

    def snapshot(self) -> HistoryState:
        """Capture raw bits and all folded values for later :meth:`restore`."""
        return self._bits, tuple([fold.value for fold in self._folds])

    def restore(self, state: HistoryState) -> None:
        bits, fold_values = state
        if len(fold_values) != len(self._folds):
            raise ValueError("snapshot does not match registered folds")
        self._bits = bits
        for fold, value in zip(self._folds, fold_values):
            fold.value = value

    def copy_from(self, other: "GlobalHistory") -> None:
        """Adopt another history's contents (used to resync the alt-path GHR).

        Both histories must have identical capacity and fold geometry.
        """
        if other.capacity != self.capacity:
            raise ValueError("history capacities differ")
        if len(other._folds) != len(self._folds):
            raise ValueError("fold geometry differs")
        self._bits = other._bits
        for mine, theirs in zip(self._folds, other._folds):
            if (mine.length, mine.width) != (theirs.length, theirs.width):
                raise ValueError("fold geometry differs")
            mine.value = theirs.value

    def __repr__(self) -> str:
        return f"GlobalHistory(capacity={self.capacity}, folds={len(self._folds)})"


class PathHistory:
    """A short path-history register mixing in low PC bits per branch.

    Used by TAGE/ITTAGE index hashes to disambiguate identical direction
    histories reached through different code paths.
    """

    __slots__ = ("bits", "value", "_mask")

    def __init__(self, bits: int = 32) -> None:
        self.bits = bits
        self.value = 0
        self._mask = (1 << bits) - 1

    def push(self, pc: int) -> None:
        # PCs are 4-byte aligned, so mix from bit 2 upward.
        mixed = ((pc >> 2) ^ (pc >> 5)) & 1
        self.value = ((self.value << 1) ^ mixed) & self._mask

    def snapshot(self) -> int:
        return self.value

    def restore(self, state: int) -> None:
        self.value = state
