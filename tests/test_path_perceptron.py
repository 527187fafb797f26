"""Unit tests for the path-based perceptron estimator (extension)."""

import pytest

from repro.core.frontend import FrontEnd
from repro.core.path_perceptron import PathPerceptronConfidenceEstimator
from repro.predictors.hybrid import make_baseline_hybrid


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            PathPerceptronConfidenceEstimator(table_entries=0)
        with pytest.raises(ValueError):
            PathPerceptronConfidenceEstimator(history_length=0)
        with pytest.raises(ValueError):
            PathPerceptronConfidenceEstimator(weight_bits=1)
        with pytest.raises(ValueError):
            PathPerceptronConfidenceEstimator(training_threshold=-1)

    def test_storage_accounting(self):
        est = PathPerceptronConfidenceEstimator(
            table_entries=256, history_length=16, weight_bits=8
        )
        assert est.storage_bits == (256 * 16 + 256) * 8


class TestLearning:
    def feed(self, est, pc, correct, taken=True):
        signal = est.estimate(pc, True)
        est.train(pc, True, correct, signal)
        est.shift_history(taken)
        return signal

    def test_cold_output_zero(self):
        est = PathPerceptronConfidenceEstimator()
        assert est.output(0x400000) == 0

    def test_mispredicted_stream_goes_low_confidence(self):
        est = PathPerceptronConfidenceEstimator(training_threshold=200)
        for _ in range(40):
            self.feed(est, 0x400000, correct=False)
        assert est.estimate(0x400000, True).low_confidence

    def test_correct_stream_stays_high_confidence(self):
        est = PathPerceptronConfidenceEstimator()
        for _ in range(80):
            self.feed(est, 0x400000, correct=True)
        sig = est.estimate(0x400000, True)
        assert not sig.low_confidence
        assert sig.raw < -est.training_threshold / 2

    def test_path_sensitivity(self):
        """The same branch after different predecessor paths gets
        different weight indices (the whole point of path indexing)."""
        est = PathPerceptronConfidenceEstimator(training_threshold=200)
        target = 0x400400
        # Path A: predecessors 0x100..., mispredicted target.
        for _ in range(30):
            self.feed(est, 0x100, correct=True)
            self.feed(est, target, correct=False)
        y_after_a = None
        self.feed(est, 0x100, correct=True)
        y_after_a = est.output(target)
        # Path B: different predecessor.
        self.feed(est, 0x900, correct=True)
        y_after_b = est.output(target)
        assert y_after_a != y_after_b

    def test_weights_saturate(self):
        est = PathPerceptronConfidenceEstimator(weight_bits=4,
                                                training_threshold=10_000)
        for _ in range(200):
            self.feed(est, 0x400000, correct=False)
        assert est._weights.max() <= 7
        assert est._weights.min() >= -8
        assert abs(est.output(0x400000)) <= (est.history_length + 1) * 8


class TestOnBenchmark:
    def test_separates_on_gzip(self, gzip_trace):
        est = PathPerceptronConfidenceEstimator()
        result = FrontEnd(make_baseline_hybrid(), est).replay(
            gzip_trace, warmup=4000
        )
        matrix = result.matrix
        # The path variant must be a usable estimator: accuracy above
        # the base rate, nonzero coverage.
        assert matrix.pvn > 2 * matrix.misprediction_rate
        assert matrix.spec > 0.05
