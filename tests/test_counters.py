"""Unit tests for repro.common.counters."""

import pytest

from repro.common.counters import CounterTable


class TestCounterTable:
    def test_saturating_update(self):
        t = CounterTable(entries=8, bits=2, mode="saturating", initial=1)
        t.update(3, True)
        assert t.read(3) == 2
        t.update(3, False)
        assert t.read(3) == 1

    def test_resetting_update(self):
        t = CounterTable(entries=8, bits=4, mode="resetting")
        for _ in range(6):
            t.update(2, True)
        assert t.read(2) == 6
        t.update(2, False)
        assert t.read(2) == 0

    def test_index_wraps(self):
        t = CounterTable(entries=8, bits=2)
        t.write(3, 3)
        assert t.read(3 + 8) == 3
        assert t.read(3 + 80) == 3

    def test_entries_independent(self):
        t = CounterTable(entries=4, bits=2)
        t.update(0, True)
        assert t.read(1) == 0

    def test_msb(self):
        t = CounterTable(entries=4, bits=2, initial=2)
        assert t.msb(0)
        t.update(0, False)
        assert not t.msb(0)

    def test_storage_bits(self):
        t = CounterTable(entries=8192, bits=4)
        assert t.storage_bits == 8192 * 4
        assert t.storage_bits / 8 / 1024 == 4.0  # the paper's 4KB JRS table

    def test_snapshot_is_copy(self):
        t = CounterTable(entries=4, bits=2)
        snap = t.snapshot()
        snap[:] = 3
        assert t.read(0) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            CounterTable(entries=0)
        with pytest.raises(ValueError):
            CounterTable(entries=4, bits=0)
        with pytest.raises(ValueError):
            CounterTable(entries=4, mode="bogus")
        with pytest.raises(ValueError):
            CounterTable(entries=4, bits=2, initial=9)
        t = CounterTable(entries=4, bits=2)
        with pytest.raises(ValueError):
            t.write(0, 4)
