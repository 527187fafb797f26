"""Unit tests for repro.common.history."""

import numpy as np
import pytest

from repro.common.history import GlobalHistoryRegister, LocalHistoryTable


class TestGlobalHistoryRegister:
    def test_initial_state(self):
        ghr = GlobalHistoryRegister(8)
        assert ghr.bits == 0
        assert list(ghr.vector) == [-1] * 8

    def test_push_taken_sets_lsb(self):
        ghr = GlobalHistoryRegister(8)
        ghr.push(True)
        assert ghr.bits == 1
        assert ghr.vector[0] == 1

    def test_shift_order(self):
        ghr = GlobalHistoryRegister(4)
        ghr.push(True)
        ghr.push(False)
        # Most recent (not-taken) at bit 0, older taken at bit 1.
        assert ghr.bits == 0b10
        assert list(ghr.vector) == [-1, 1, -1, -1]

    def test_length_bound(self):
        ghr = GlobalHistoryRegister(3)
        for _ in range(10):
            ghr.push(True)
        assert ghr.bits == 0b111

    @pytest.mark.parametrize("length", [1, 12, 64])
    @pytest.mark.parametrize(
        "first_read", ["before-any-push", "under-length", "several-lengths"]
    )
    def test_vector_matches_bits_always(self, first_read, length):
        # The vector is built from the bits on its first read, then
        # shifted by every push; check it from either side of that read.
        pushes_before = {
            "before-any-push": 0,
            "under-length": length - 1,
            "several-lengths": 5 * length,
        }[first_read]
        ghr = GlobalHistoryRegister(length)
        rng = np.random.default_rng(length)

        def expected():
            return [1 if (ghr.bits >> i) & 1 else -1 for i in range(length)]

        for _ in range(pushes_before):
            ghr.push(bool(rng.integers(2)))
        vector = ghr.vector
        assert vector.dtype == np.int8
        assert list(vector) == expected()
        for _ in range(3 * length + 20):
            ghr.push(bool(rng.integers(2)))
            assert ghr.vector is vector  # the live buffer
            assert list(vector) == expected()

    def test_validation(self):
        with pytest.raises(ValueError):
            GlobalHistoryRegister(0)
        with pytest.raises(ValueError):
            GlobalHistoryRegister(65)


class TestLocalHistoryTable:
    def test_per_branch_isolation(self):
        lht = LocalHistoryTable(entries=16, history_length=4)
        lht.push(0x400000, True)
        assert lht.read(0x400000) == 1
        assert lht.read(0x400004) == 0

    def test_pattern_accumulates(self):
        lht = LocalHistoryTable(entries=16, history_length=4)
        pc = 0x400000
        for taken in (True, True, False):
            lht.push(pc, taken)
        assert lht.read(pc) == 0b110

    def test_length_bound(self):
        lht = LocalHistoryTable(entries=4, history_length=3)
        pc = 0x40
        for _ in range(10):
            lht.push(pc, True)
        assert lht.read(pc) == 0b111

    def test_aliasing_by_entry_count(self):
        lht = LocalHistoryTable(entries=4, history_length=4)
        # pc >> 2 congruent mod 4 -> same slot.
        lht.push(0x10, True)
        assert lht.read(0x10 + 16) == 1

    def test_storage_bits(self):
        lht = LocalHistoryTable(entries=2048, history_length=10)
        assert lht.storage_bits == 20480

    def test_validation(self):
        with pytest.raises(ValueError):
            LocalHistoryTable(entries=0, history_length=4)
        with pytest.raises(ValueError):
            LocalHistoryTable(entries=4, history_length=0)
        with pytest.raises(ValueError):
            LocalHistoryTable(entries=4, history_length=33)
