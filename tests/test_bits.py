"""Unit tests for repro.common.bits."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.bits import (
    fold_bits,
    mask,
    mix_hash,
    mix_hash_u64,
    popcount,
)


class TestMask:
    def test_zero_width(self):
        assert mask(0) == 0

    def test_small_widths(self):
        assert mask(1) == 0b1
        assert mask(4) == 0b1111
        assert mask(8) == 0xFF

    def test_wide(self):
        assert mask(64) == (1 << 64) - 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            mask(-1)


class TestPopcount:
    def test_zero(self):
        assert popcount(0) == 0

    def test_all_ones(self):
        assert popcount(0xFF) == 8

    def test_sparse(self):
        assert popcount(0b1000_0001) == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            popcount(-1)


class TestFoldBits:
    def test_identity_when_fits(self):
        assert fold_bits(0b1011, 8) == 0b1011

    def test_folds_high_bits(self):
        # Two 4-bit slices: 0b1111 ^ 0b0001
        assert fold_bits(0b1111_0001, 4) == 0b1110

    def test_zero_width(self):
        assert fold_bits(12345, 0) == 0

    def test_result_fits_width(self):
        for value in (0, 1, 0xDEADBEEF, (1 << 60) - 3):
            assert 0 <= fold_bits(value, 10) < (1 << 10)

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            fold_bits(1, -2)


class TestMixHash:
    def test_deterministic(self):
        assert mix_hash(42) == mix_hash(42)

    def test_spreads_close_inputs(self):
        a, b = mix_hash(1), mix_hash(2)
        assert a != b
        # At least a quarter of the bits differ for adjacent inputs.
        assert bin(a ^ b).count("1") > 16

    def test_nonnegative_64bit(self):
        for v in range(50):
            h = mix_hash(v)
            assert 0 <= h < (1 << 64)

    @given(st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), max_size=50))
    def test_mix_hash_matches_scalar(self, values):
        arr = np.array(values, dtype=np.uint64)
        expected = [mix_hash(v) for v in values]
        assert mix_hash_u64(arr).tolist() == expected

