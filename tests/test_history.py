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

    def test_vector_matches_bits_always(self):
        ghr = GlobalHistoryRegister(12)
        rng = np.random.default_rng(0)
        for _ in range(200):
            ghr.push(bool(rng.integers(2)))
            expected = [1 if (ghr.bits >> i) & 1 else -1 for i in range(12)]
            assert list(ghr.vector) == expected

    def test_folded(self):
        ghr = GlobalHistoryRegister(16)
        for i in reversed(range(16)):  # oldest (top) bit first
            ghr.push(bool((0xABCD >> i) & 1))
        assert ghr.bits == 0xABCD
        assert ghr.folded(8) == (0xAB ^ 0xCD)

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
