"""Unit tests for the JRS / enhanced JRS confidence estimators."""

import pytest

from repro.core.jrs import JRSEstimator


class TestConstruction:
    def test_paper_storage_budget(self):
        # 8K entries x 4 bits = 4KB, matching the perceptron estimator.
        est = JRSEstimator(entries=8192, counter_bits=4)
        assert est.storage_bits == 8192 * 4
        assert est.storage_kib == 4.0

    def test_power_of_two_entries(self):
        with pytest.raises(ValueError):
            JRSEstimator(entries=1000)

    def test_threshold_range(self):
        with pytest.raises(ValueError):
            JRSEstimator(threshold=0)
        with pytest.raises(ValueError):
            JRSEstimator(counter_bits=4, threshold=16)

    def test_names(self):
        assert "enhanced" in JRSEstimator(enhanced=True).name
        assert "enhanced" not in JRSEstimator(enhanced=False).name


class TestClassification:
    def test_cold_counter_is_low_confidence(self):
        est = JRSEstimator(threshold=7)
        assert est.estimate(0x40, True).low_confidence

    def test_high_confidence_after_streak(self):
        est = JRSEstimator(threshold=7)
        pc = 0x40
        for _ in range(7):
            sig = est.estimate(pc, True)
            est.train(pc, True, True, sig)
        assert not est.estimate(pc, True).low_confidence

    def test_threshold_semantics(self):
        """Counter >= lambda is high confidence (Section 2.3)."""
        est = JRSEstimator(threshold=3)
        pc = 0x40
        for _ in range(2):
            est.train(pc, True, True, est.estimate(pc, True))
        assert est.estimate(pc, True).low_confidence
        est.train(pc, True, True, est.estimate(pc, True))
        assert not est.estimate(pc, True).low_confidence

    def test_miss_resets_confidence(self):
        est = JRSEstimator(threshold=3)
        pc = 0x40
        for _ in range(10):
            est.train(pc, True, True, est.estimate(pc, True))
        est.train(pc, True, False, est.estimate(pc, True))
        assert est.estimate(pc, True).low_confidence

    def test_raw_is_counter_value(self):
        est = JRSEstimator(threshold=7)
        pc = 0x40
        for _ in range(4):
            est.train(pc, True, True, est.estimate(pc, True))
        assert est.estimate(pc, True).raw == 4.0


class TestIndexing:
    def test_history_contexts_are_separate(self):
        est = JRSEstimator(entries=256, threshold=3, history_length=8)
        pc = 0x40
        for _ in range(5):
            est.train(pc, True, True, est.estimate(pc, True))
        # A different history context maps to a different counter.
        est.shift_history(True)
        est.shift_history(False)
        assert est.estimate(pc, True).low_confidence

    def test_enhanced_separates_predictions(self):
        est = JRSEstimator(entries=256, threshold=3, enhanced=True)
        pc = 0x40
        for _ in range(5):
            est.train(pc, True, True, est.estimate(pc, True))
        # Same pc+history but opposite prediction: different counter.
        assert not est.estimate(pc, True).low_confidence
        assert est.estimate(pc, False).low_confidence

    def test_original_ignores_prediction(self):
        est = JRSEstimator(entries=256, threshold=3, enhanced=False)
        pc = 0x40
        for _ in range(5):
            est.train(pc, True, True, est.estimate(pc, True))
        assert not est.estimate(pc, False).low_confidence


class TestBehaviorOnStreams:
    def test_high_coverage_low_accuracy_profile(self, simple_trace):
        """JRS flags aggressively: most mispredicts covered, many false
        positives (the Table 3 JRS signature)."""
        from repro.core.frontend import FrontEnd
        from repro.predictors.hybrid import make_baseline_hybrid

        frontend = FrontEnd(make_baseline_hybrid(), JRSEstimator(threshold=7))
        result = frontend.replay(simple_trace, warmup=1500)
        matrix = result.matrix
        assert matrix.spec > 0.6
        assert matrix.pvn < 0.5
