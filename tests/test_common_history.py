"""Tests for global history registers and folded (CSR) views."""

from hypothesis import given
from hypothesis import strategies as st
import pytest

from repro.common.history import FoldedHistory, GlobalHistory, PathHistory


def reference_fold(bits: list[int], length: int, width: int) -> int:
    """Naive folding: XOR of width-bit chunks of the newest `length` bits."""
    folded = 0
    for position, bit in enumerate(bits[:length]):
        if bit:
            folded ^= 1 << (position % width)
    return folded


class TestFoldedHistory:
    def test_matches_reference_after_pushes(self):
        history = GlobalHistory(capacity=64)
        fold = history.add_folded(length=13, width=5)
        pushed: list[int] = []
        for i in range(200):
            bit = (i * 7 + 3) % 3 == 0
            history.push(bit)
            pushed.insert(0, int(bit))  # newest first
            assert fold.value == reference_fold(pushed, 13, 5)

    @given(
        length=st.integers(1, 40),
        width=st.integers(1, 16),
        bits=st.lists(st.booleans(), min_size=0, max_size=120),
    )
    def test_incremental_equals_reference(self, length, width, bits):
        history = GlobalHistory(capacity=128)
        fold = history.add_folded(length, width)
        pushed: list[int] = []
        for bit in bits:
            history.push(bit)
            pushed.insert(0, int(bit))
        assert fold.value == reference_fold(pushed, length, width)

    def test_value_stays_within_width(self):
        history = GlobalHistory(capacity=32)
        fold = history.add_folded(31, 7)
        for i in range(500):
            history.push(i % 2 == 0)
            assert 0 <= fold.value < (1 << 7)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            FoldedHistory(0, 4)
        with pytest.raises(ValueError):
            FoldedHistory(4, 0)


class TestGlobalHistory:
    def test_push_and_bit(self):
        history = GlobalHistory(capacity=8)
        history.push(True)
        history.push(False)
        assert history.bit(0) == 0  # newest
        assert history.bit(1) == 1

    def test_value_window(self):
        history = GlobalHistory(capacity=16)
        for bit in [1, 1, 0, 1]:
            history.push(bool(bit))
        assert history.value(4) == 0b1101

    def test_capacity_wraps(self):
        history = GlobalHistory(capacity=4)
        for _ in range(10):
            history.push(True)
        assert history.value(4) == 0b1111
        history.push(False)
        assert history.value(4) == 0b1110

    def test_snapshot_restore(self):
        history = GlobalHistory(capacity=32)
        fold = history.add_folded(20, 6)
        for i in range(25):
            history.push(i % 3 == 0)
        state = history.snapshot()
        value_before, fold_before = history.value(32), fold.value
        for i in range(10):
            history.push(i % 2 == 0)
        history.restore(state)
        assert history.value(32) == value_before
        assert fold.value == fold_before

    def test_copy_from_resynchronises(self):
        main = GlobalHistory(capacity=32)
        alt = GlobalHistory(capacity=32)
        main_fold = main.add_folded(16, 5)
        alt_fold = alt.add_folded(16, 5)
        for i in range(40):
            main.push(i % 5 == 0)
        alt.copy_from(main)
        assert alt.value(32) == main.value(32)
        assert alt_fold.value == main_fold.value
        # Diverge after copy: independent state.
        alt.push(True)
        main.push(False)
        assert alt.value(32) != main.value(32)

    def test_identical_folds_share_one_view(self):
        history = GlobalHistory(capacity=32)
        index_fold = history.add_folded(20, 8)
        tag_fold = history.add_folded(20, 8)
        other = history.add_folded(20, 7)
        assert tag_fold is index_fold and other is not index_fold
        for i in range(30):
            history.push(i % 3 == 0)
        assert len(history.snapshot()[1]) == 2
        assert index_fold.value == reference_fold(
            [history.bit(i) for i in range(32)], 20, 8
        )

    def test_copy_from_mismatched_geometry(self):
        main = GlobalHistory(capacity=32)
        other = GlobalHistory(capacity=16)
        with pytest.raises(ValueError):
            main.copy_from(other)

    def test_bad_index(self):
        history = GlobalHistory(capacity=4)
        with pytest.raises(IndexError):
            history.bit(4)

    @given(bits=st.lists(st.booleans(), min_size=1, max_size=64))
    def test_newest_bit_is_last_pushed(self, bits):
        history = GlobalHistory(capacity=64)
        for bit in bits:
            history.push(bit)
        assert history.bit(0) == int(bits[-1])


class TestPathHistory:
    def test_push_mixes_pc(self):
        path = PathHistory(bits=16)
        path.push(0x1000)
        first = path.value
        path.push(0x1004)
        assert path.value != first

    def test_snapshot_restore(self):
        path = PathHistory()
        path.push(0x4000)
        saved = path.snapshot()
        path.push(0x4010)
        path.restore(saved)
        assert path.value == saved

    def test_bounded(self):
        path = PathHistory(bits=8)
        for pc in range(0, 4096, 4):
            path.push(pc)
            assert 0 <= path.value < 256
