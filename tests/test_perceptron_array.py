"""Unit tests for repro.common.perceptron.PerceptronArray."""

import numpy as np
import pytest

from repro.common.perceptron import PerceptronArray


def pm1(bits, length):
    return np.array([1 if (bits >> i) & 1 else -1 for i in range(length)], dtype=np.int8)


class TestConstruction:
    def test_paper_default_storage(self):
        # 128 entries x 32-bit history x 8-bit weights ~ the paper's 4KB
        # (the bias weight adds 128 bytes on top of the 4KB data array).
        arr = PerceptronArray(entries=128, history_length=32, weight_bits=8)
        assert arr.storage_bits == 128 * 33 * 8

    def test_validation(self):
        with pytest.raises(ValueError):
            PerceptronArray(0, 4)
        with pytest.raises(ValueError):
            PerceptronArray(4, 0)
        with pytest.raises(ValueError):
            PerceptronArray(4, 65)
        with pytest.raises(ValueError):
            PerceptronArray(4, 4, weight_bits=1)


class TestIndexing:
    def test_index_drops_byte_offset(self):
        arr = PerceptronArray(entries=128, history_length=4)
        assert arr.index(0x400000) == arr.index(0x400000 + 128 * 4)
        assert arr.index(0x400000) != arr.index(0x400004)

    def test_rows_independent(self):
        arr = PerceptronArray(entries=8, history_length=4)
        x = pm1(0b1111, 4)
        arr.train(0x0, x, 1)
        assert arr.output(0x0, x) > 0
        assert arr.output(0x4, x) == 0


class TestOutput:
    def test_zero_initial_output(self):
        arr = PerceptronArray(8, 8)
        assert arr.output(0, pm1(0b10101010, 8)) == 0

    def test_dot_product(self):
        arr = PerceptronArray(1, 2)
        arr.train(0, pm1(0b11, 2), 1)  # w = [1, 1, 1]
        assert arr.output(0, pm1(0b11, 2)) == 3
        assert arr.output(0, pm1(0b00, 2)) == 1 - 1 - 1

    def test_accepts_longer_input(self):
        arr = PerceptronArray(1, 2)
        arr.train(0, pm1(0b11, 4), 1)
        assert arr.output(0, pm1(0b11, 4)) == 3

    def test_rejects_short_input(self):
        arr = PerceptronArray(1, 8)
        with pytest.raises(ValueError):
            arr.output(0, pm1(0b1, 4))


class TestTraining:
    def test_target_validation(self):
        arr = PerceptronArray(1, 2)
        with pytest.raises(ValueError):
            arr.train(0, pm1(0b11, 2), 0)

    def test_training_moves_output_toward_target(self):
        arr = PerceptronArray(1, 8)
        x = pm1(0b1100_0011, 8)
        before = arr.output(0, x)
        arr.train(0, x, 1)
        assert arr.output(0, x) > before
        arr.train(0, x, -1)
        arr.train(0, x, -1)
        assert arr.output(0, x) < before

    def test_weights_saturate(self):
        arr = PerceptronArray(1, 4, weight_bits=4)  # range [-8, 7]
        x = pm1(0b1111, 4)
        for _ in range(100):
            arr.train(0, x, 1)
        assert arr.snapshot()[0].max() == 7
        for _ in range(200):
            arr.train(0, x, -1)
        assert arr.snapshot()[0].min() == -8

    def test_learns_single_bit_correlation(self):
        # Outcome = history bit 2; perceptron must separate the classes.
        arr = PerceptronArray(1, 8)
        rng = np.random.default_rng(1)
        for _ in range(200):
            bits = int(rng.integers(0, 256))
            x = pm1(bits, 8)
            target = 1 if (bits >> 2) & 1 else -1
            arr.train(0, x, target)
        hits = 0
        for bits in range(256):
            x = pm1(bits, 8)
            predicted = arr.output(0, x) >= 0
            if predicted == bool((bits >> 2) & 1):
                hits += 1
        assert hits >= 250

    def test_cannot_learn_parity(self):
        # XOR of two bits is not linearly separable -- the classic
        # single-layer perceptron limitation.
        arr = PerceptronArray(1, 8)
        rng = np.random.default_rng(2)
        for _ in range(2000):
            bits = int(rng.integers(0, 256))
            x = pm1(bits, 8)
            target = 1 if ((bits >> 1) ^ (bits >> 4)) & 1 else -1
            arr.train(0, x, target)
        hits = 0
        for bits in range(256):
            x = pm1(bits, 8)
            predicted = arr.output(0, x) >= 0
            if predicted == bool(((bits >> 1) ^ (bits >> 4)) & 1):
                hits += 1
        assert hits < 200  # nowhere near separation

    def test_snapshot_is_copy(self):
        arr = PerceptronArray(2, 4)
        snap = arr.snapshot()
        snap[:] = 5
        assert arr.output(0, pm1(0, 4)) == 0
