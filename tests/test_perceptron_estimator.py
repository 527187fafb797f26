"""Unit tests for the perceptron confidence estimator (the paper's core)."""

import pytest

from repro.core.perceptron_estimator import PerceptronConfidenceEstimator
from repro.core.types import ConfidenceLevel


def train_stream(est, pc, outcomes_correct, prediction=True):
    """Feed a stream of (prediction-correct?) events for one branch."""
    for correct in outcomes_correct:
        sig = est.estimate(pc, prediction)
        est.train(pc, prediction, correct, sig)
        est.shift_history(prediction if correct else not prediction)


class TestConstruction:
    def test_paper_default_geometry(self):
        est = PerceptronConfidenceEstimator()
        assert est.entries == 128
        assert est.history_length == 32
        assert est.weight_bits == 8

    def test_storage_near_4kb(self):
        est = PerceptronConfidenceEstimator()
        # 128 x 32 x 8 bits = 4KB of history weights (+ bias column).
        assert est.storage_bits == 128 * 33 * 8

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            PerceptronConfidenceEstimator(mode="bogus")

    def test_tnt_rejects_strong_threshold(self):
        with pytest.raises(ValueError):
            PerceptronConfidenceEstimator(mode="tnt", strong_threshold=10)

    def test_tnt_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            PerceptronConfidenceEstimator(mode="tnt", threshold=-5)

    def test_strong_threshold_ordering(self):
        with pytest.raises(ValueError):
            PerceptronConfidenceEstimator(threshold=0, strong_threshold=-10)

    def test_training_threshold_validation(self):
        with pytest.raises(ValueError):
            PerceptronConfidenceEstimator(training_threshold=-1)


class TestCicClassification:
    def test_cold_estimator_output_at_threshold(self):
        est = PerceptronConfidenceEstimator(threshold=0)
        sig = est.estimate(0x40, True)
        assert sig.raw == 0
        assert not sig.low_confidence  # y <= lambda -> high

    def test_output_above_threshold_is_low(self):
        est = PerceptronConfidenceEstimator(threshold=0, training_threshold=200)
        # Mispredicted stream pushes the output positive.
        train_stream(est, 0x40, [False] * 30)
        assert est.estimate(0x40, True).low_confidence

    def test_correct_stream_goes_high_confidence(self):
        est = PerceptronConfidenceEstimator(threshold=-20)
        train_stream(est, 0x40, [True] * 60)
        sig = est.estimate(0x40, True)
        assert not sig.low_confidence
        assert sig.raw < -20

    def test_three_region_levels(self):
        def fresh():
            return PerceptronConfidenceEstimator(
                threshold=-10, strong_threshold=10, training_threshold=200
            )

        est = fresh()
        train_stream(est, 0x40, [False] * 40)
        assert est.estimate(0x40, True).level is ConfidenceLevel.STRONG_LOW
        est = fresh()
        train_stream(est, 0x40, [True] * 60)
        assert est.estimate(0x40, True).level is ConfidenceLevel.HIGH

    def test_cb_cluster_settles_past_training_threshold(self):
        """Always-correct branches stop training once y < -T (the
        Figure 4 CB cluster position)."""
        T = 40
        est = PerceptronConfidenceEstimator(threshold=0, training_threshold=T)
        train_stream(est, 0x40, [True] * 300)
        y = est.estimate(0x40, True).raw
        assert -(T + 40) < y < -T

    def test_learns_history_conditional_mispredicts(self):
        """A branch mispredicted only in specific history contexts must
        be separated: low confidence there, high elsewhere."""
        est = PerceptronConfidenceEstimator(threshold=0)
        pc = 0x40
        import numpy as np

        rng = np.random.default_rng(3)
        for _ in range(600):
            # Context: history bit 4 set -> the prediction goes wrong.
            risky = bool((est.history.bits >> 4) & 1)
            correct = not risky
            sig = est.estimate(pc, True)
            est.train(pc, True, correct, sig)
            est.shift_history(bool(rng.integers(2)))
        risky_flags = safe_flags = 0
        for _ in range(300):
            risky = bool((est.history.bits >> 4) & 1)
            sig = est.estimate(pc, True)
            if risky:
                risky_flags += sig.low_confidence
            else:
                safe_flags += sig.low_confidence
            est.shift_history(bool(rng.integers(2)))
        assert risky_flags > 100
        assert safe_flags < 30


class TestTntMode:
    def test_low_confidence_near_zero(self):
        est = PerceptronConfidenceEstimator(mode="tnt", threshold=30)
        assert est.estimate(0x40, True).low_confidence  # cold output 0

    def test_strong_direction_is_high_confidence(self):
        est = PerceptronConfidenceEstimator(mode="tnt", threshold=10)
        # Direction training: consistently taken.
        for _ in range(60):
            sig = est.estimate(0x40, True)
            est.train(0x40, True, True, sig)
            est.shift_history(True)
        sig = est.estimate(0x40, True)
        assert sig.raw > 10
        assert not sig.low_confidence

    def test_tnt_trains_on_direction_not_outcome(self):
        """A always-taken branch that is always MISpredicted still
        produces a large positive (strongly-taken) output -- the tnt
        failure mode of Section 5.3."""
        est = PerceptronConfidenceEstimator(mode="tnt", threshold=10)
        for _ in range(60):
            sig = est.estimate(0x40, False)  # predicts not-taken
            est.train(0x40, False, False, sig)  # wrong: branch was taken
            est.shift_history(True)
        assert est.estimate(0x40, False).raw > 10  # "confidently taken"


class TestHousekeeping:
    def test_shift_history(self):
        est = PerceptronConfidenceEstimator()
        est.shift_history(True)
        assert est.history.bits == 1

    def test_estimate_is_pure(self):
        est = PerceptronConfidenceEstimator()
        before = est.array.snapshot()
        est.estimate(0x40, True)
        assert (est.array.snapshot() == before).all()
