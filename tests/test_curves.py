"""Unit tests for confidence-curve analysis."""

import pytest

from repro.analysis.curves import (
    ConfidenceCurve,
    CurvePoint,
    area_under_curve,
    dominates,
)


def curve(points, name="c"):
    return ConfidenceCurve(
        [CurvePoint(spec=s, pvn=p, threshold=t) for s, p, t in points],
        name=name,
    )


class TestCurvePoint:
    def test_validation(self):
        with pytest.raises(ValueError):
            CurvePoint(spec=1.5, pvn=0.5, threshold=0)
        with pytest.raises(ValueError):
            CurvePoint(spec=0.5, pvn=-0.1, threshold=0)


class TestConfidenceCurve:
    def test_sorted_by_coverage(self):
        c = curve([(0.6, 0.4, -50), (0.2, 0.8, 25), (0.4, 0.6, 0)])
        assert [p.spec for p in c.points] == [0.2, 0.4, 0.6]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ConfidenceCurve([])

    def test_interpolation(self):
        c = curve([(0.2, 0.8, 25), (0.6, 0.4, -50)])
        assert c.pvn_at(0.2) == pytest.approx(0.8)
        assert c.pvn_at(0.4) == pytest.approx(0.6)
        assert c.pvn_at(0.6) == pytest.approx(0.4)

    def test_outside_range_is_none(self):
        c = curve([(0.2, 0.8, 25), (0.6, 0.4, -50)])
        assert c.pvn_at(0.1) is None
        assert c.pvn_at(0.7) is None

    def test_from_threshold_points(self, simple_trace):
        from repro.analysis.sweep import sweep_estimator_thresholds
        from repro.core.jrs import JRSEstimator
        from repro.predictors.hybrid import make_baseline_hybrid

        points = sweep_estimator_thresholds(
            simple_trace,
            make_baseline_hybrid,
            lambda t: JRSEstimator(threshold=int(t)),
            thresholds=(3, 7, 11),
            warmup=1000,
        )
        c = ConfidenceCurve.from_threshold_points(points, name="jrs")
        assert len(c) == 3
        lo, hi = c.coverage_range
        assert 0 <= lo <= hi <= 1


class TestDominates:
    def test_clear_dominance(self):
        better = curve([(0.2, 0.9, 0), (0.6, 0.7, -50)])
        worse = curve([(0.2, 0.5, 3), (0.6, 0.3, 15)])
        assert dominates(better, worse)
        assert not dominates(worse, better)

    def test_crossing_curves_no_dominance(self):
        a = curve([(0.2, 0.9, 0), (0.6, 0.2, -50)])
        b = curve([(0.2, 0.5, 3), (0.6, 0.5, 15)])
        assert not dominates(a, b)
        assert not dominates(b, a)

    def test_disjoint_ranges(self):
        a = curve([(0.1, 0.9, 0), (0.2, 0.8, 1)])
        b = curve([(0.7, 0.3, 2), (0.9, 0.2, 3)])
        assert not dominates(a, b)

    def test_identical_not_dominant(self):
        a = curve([(0.2, 0.5, 0), (0.6, 0.4, 1)])
        b = curve([(0.2, 0.5, 0), (0.6, 0.4, 1)])
        assert not dominates(a, b)


class TestAreaUnderCurve:
    def test_flat_curve(self):
        c = curve([(0.2, 0.5, 0), (0.8, 0.5, 1)])
        assert area_under_curve(c) == pytest.approx(0.5)

    def test_linear_curve(self):
        c = curve([(0.0, 1.0, 0), (1.0, 0.0, 1)])
        assert area_under_curve(c) == pytest.approx(0.5)

    def test_single_point(self):
        c = curve([(0.4, 0.7, 0)])
        assert area_under_curve(c) == pytest.approx(0.7)

    def test_perceptron_beats_jrs_on_auc(self, gzip_trace):
        """The Table 3 relationship as a single scalar."""
        from repro.analysis.sweep import sweep_estimator_thresholds
        from repro.core.jrs import JRSEstimator
        from repro.core.perceptron_estimator import PerceptronConfidenceEstimator
        from repro.predictors.hybrid import make_baseline_hybrid

        jrs = ConfidenceCurve.from_threshold_points(
            sweep_estimator_thresholds(
                gzip_trace,
                make_baseline_hybrid,
                lambda t: JRSEstimator(threshold=int(t)),
                thresholds=(3, 7, 15),
                warmup=4000,
            ),
            name="jrs",
        )
        perc = ConfidenceCurve.from_threshold_points(
            sweep_estimator_thresholds(
                gzip_trace,
                make_baseline_hybrid,
                lambda t: PerceptronConfidenceEstimator(threshold=t),
                thresholds=(25, 0, -50),
                warmup=4000,
            ),
            name="perceptron",
        )
        assert area_under_curve(perc) > area_under_curve(jrs)
