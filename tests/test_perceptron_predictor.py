"""Unit tests for the Jimenez-Lin perceptron predictor."""

import pytest

from repro.common.history import GlobalHistoryRegister
from repro.predictors.perceptron_predictor import (
    PerceptronPredictor,
    jimenez_lin_theta,
)


class TestTheta:
    def test_formula(self):
        assert jimenez_lin_theta(24) == int(1.93 * 24 + 14)
        assert jimenez_lin_theta(32) == int(1.93 * 32 + 14)


class TestPerceptronPredictor:
    def test_default_theta(self):
        p = PerceptronPredictor(entries=32, history_length=16)
        assert p.theta == jimenez_lin_theta(16)

    def test_learns_bias(self):
        p = PerceptronPredictor(entries=32, history_length=8)
        pc = 0x400000
        for _ in range(50):
            p.update(pc, True, p.predict(pc))
        assert p.predict(pc) is True
        assert p.output(pc) > 0

    def test_learns_history_correlation(self):
        p = PerceptronPredictor(entries=32, history_length=8)
        pc = 0x400000
        wrong = 0
        for i in range(500):
            taken = bool((p.history.bits >> 2) & 1)
            pred = p.predict(pc)
            if i > 100 and pred != taken:
                wrong += 1
            p.update(pc, taken, pred)
        assert wrong < 20

    def test_training_stops_past_theta(self):
        p = PerceptronPredictor(entries=4, history_length=4, theta=5)
        pc = 0
        for _ in range(100):
            p.update(pc, True, p.predict(pc))
        # Output magnitude settles just beyond theta, not at saturation.
        assert 5 < p.output(pc) <= 5 + 5  # one training step past theta

    def test_shared_history(self):
        ghr = GlobalHistoryRegister(16)
        p = PerceptronPredictor(entries=8, history_length=16, shared_history=ghr)
        p.update(0x40, True, p.predict(0x40))
        assert ghr.bits == 0

    def test_shared_history_too_short(self):
        with pytest.raises(ValueError):
            PerceptronPredictor(
                entries=8, history_length=16,
                shared_history=GlobalHistoryRegister(8),
            )

    def test_confidence_hint_grows_with_training(self):
        p = PerceptronPredictor(entries=8, history_length=8)
        pc = 0x40
        weak = p.confidence_hint(pc)
        for _ in range(60):
            p.update(pc, True, p.predict(pc))
        assert p.confidence_hint(pc) > weak

    def test_storage(self):
        p = PerceptronPredictor(entries=512, history_length=24, weight_bits=8)
        assert p.storage_bits == 512 * 25 * 8
