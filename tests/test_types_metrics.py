"""Unit tests for repro.core.types and repro.core.metrics."""

import pytest

from repro.core.metrics import ConfidenceMatrix, MetricsCollector
from repro.core.types import ConfidenceLevel, ConfidenceSignal


class TestConfidenceLevel:
    def test_is_low(self):
        assert not ConfidenceLevel.HIGH.is_low
        assert ConfidenceLevel.WEAK_LOW.is_low
        assert ConfidenceLevel.STRONG_LOW.is_low


class TestConfidenceSignal:
    def test_constructors(self):
        assert ConfidenceSignal.high(1.0).level is ConfidenceLevel.HIGH
        assert ConfidenceSignal.weak_low(2.0).low_confidence
        assert ConfidenceSignal.strong_low(3.0).level is ConfidenceLevel.STRONG_LOW

    def test_consistency_enforced(self):
        with pytest.raises(ValueError):
            ConfidenceSignal(True, 0.0, ConfidenceLevel.HIGH)
        with pytest.raises(ValueError):
            ConfidenceSignal(False, 0.0, ConfidenceLevel.WEAK_LOW)

    def test_frozen(self):
        sig = ConfidenceSignal.high(0.0)
        with pytest.raises(AttributeError):
            sig.raw = 5.0


class TestConfidenceMatrix:
    def matrix(self):
        m = ConfidenceMatrix()
        # 10 mispredicted: 7 flagged low, 3 missed.
        for _ in range(7):
            m.record(True, True)
        for _ in range(3):
            m.record(False, True)
        # 90 correct: 5 falsely flagged low.
        for _ in range(5):
            m.record(True, False)
        for _ in range(85):
            m.record(False, False)
        return m

    def test_counts(self):
        m = self.matrix()
        assert m.total == 100
        assert m.mispredicted == 10
        assert m.correct == 90
        assert m.flagged_low == 12
        assert m.flagged_high == 88

    def test_spec_is_coverage(self):
        assert self.matrix().spec == pytest.approx(0.7)

    def test_pvn_is_accuracy(self):
        assert self.matrix().pvn == pytest.approx(7 / 12)

    def test_sens_and_pvp(self):
        m = self.matrix()
        assert m.sens == pytest.approx(85 / 90)
        assert m.pvp == pytest.approx(85 / 88)

    def test_misprediction_rate(self):
        assert self.matrix().misprediction_rate == pytest.approx(0.1)

    def test_empty_matrix_safe(self):
        m = ConfidenceMatrix()
        assert m.spec == 0.0
        assert m.pvn == 0.0
        assert m.sens == 0.0
        assert m.pvp == 0.0

    def test_merge(self):
        a, b = self.matrix(), self.matrix()
        merged = a.merge(b)
        assert merged.total == 200
        assert merged.pvn == a.pvn  # same composition

    def test_identity_spec_pvn_relationship(self):
        # spec * mispredicted == pvn * flagged_low == true positives.
        m = self.matrix()
        assert m.spec * m.mispredicted == pytest.approx(m.pvn * m.flagged_low)

    def test_as_dict(self):
        d = self.matrix().as_dict()
        assert d["total"] == 100
        assert 0 < d["pvn"] < 1


class TestMetricsCollector:
    def test_overall_accumulates(self):
        c = MetricsCollector()
        c.record(0x40, True, True)
        c.record(0x40, False, False)
        assert c.overall.total == 2

    def test_per_pc_disabled_by_default(self):
        c = MetricsCollector()
        c.record(0x40, True, True)
        assert c.per_pc == {}

    def test_per_pc_tracking(self):
        c = MetricsCollector(track_per_pc=True)
        c.record(0x40, True, True)
        c.record(0x44, False, False)
        assert c.per_pc[0x40].low_mispredicted == 1
        assert c.per_pc[0x44].high_correct == 1
