"""Unit tests for the analysis subpackage (density, sweep, tables)."""

import numpy as np
import pytest

from repro.analysis.density import OutputDensity
from repro.analysis.sweep import sweep_estimator_thresholds
from repro.analysis.tables import format_table
from repro.core.frontend import FrontEndResult
from repro.core.jrs import JRSEstimator
from repro.predictors.hybrid import make_baseline_hybrid


class TestOutputDensity:
    def make(self):
        # CB clustered at -100, MB clustered at +50.
        rng = np.random.default_rng(0)
        cb = rng.normal(-100, 20, 2000)
        mb = rng.normal(50, 20, 200)
        return OutputDensity(cb, mb)

    def test_histogram_shared_bins(self):
        density = self.make()
        edges, cb, mb = density.histogram(bins=40)
        assert len(edges) == 41
        assert cb.sum() == 2000
        assert mb.sum() == 200

    def test_zoom_range(self):
        density = self.make()
        edges, cb, mb = density.histogram(bins=10, value_range=(0, 100))
        assert edges[0] == 0
        assert edges[-1] == 100
        assert mb.sum() > cb.sum()  # MB dominates the positive range

    def test_region_counts(self):
        density = self.make()
        region = density.region(0, float("inf"))
        assert region.mb_dominates
        assert region.mispredict_fraction > 0.9

    def test_three_regions_partition(self):
        density = self.make()
        reversal, gating, high = density.three_regions(30, -30)
        total = reversal.total + gating.total + high.total
        assert total == 2200

    def test_three_regions_validation(self):
        with pytest.raises(ValueError):
            self.make().three_regions(reverse_threshold=-50, gate_threshold=0)

    def test_crossover_found_for_separated_populations(self):
        crossover = self.make().crossover_output()
        assert crossover is not None
        assert -40 < crossover < 60

    def test_crossover_none_when_cb_dominates_everywhere(self):
        rng = np.random.default_rng(1)
        cb = rng.normal(0, 30, 5000)
        mb = rng.normal(0, 30, 100)  # same shape, far fewer
        assert OutputDensity(cb, mb).crossover_output() is None

    def test_from_frontend_result(self):
        result = FrontEndResult()
        result.outputs_correct.extend([-10.0, -20.0])
        result.outputs_mispredicted.append(30.0)
        density = OutputDensity.from_frontend_result(result)
        assert density.correct_outputs.size == 2

    def test_from_empty_result_rejected(self):
        with pytest.raises(ValueError):
            OutputDensity.from_frontend_result(FrontEndResult())

    def test_summary(self):
        summary = self.make().summary()
        assert summary["correct_branches"] == 2000
        assert summary["mb_mean"] > summary["cb_mean"]

    def test_bins_validation(self):
        with pytest.raises(ValueError):
            self.make().histogram(bins=0)


class TestSweep:
    def test_monotone_coverage(self, simple_trace):
        points = sweep_estimator_thresholds(
            simple_trace,
            make_baseline_hybrid,
            lambda t: JRSEstimator(threshold=int(t)),
            thresholds=(3, 7, 11),
            warmup=1000,
        )
        assert len(points) == 3
        # Raising the JRS threshold flags more branches: Spec rises,
        # PVN falls (Table 3 trend).
        specs = [p.spec for p in points]
        assert specs == sorted(specs)


class TestFormatTable:
    def test_alignment_and_columns(self):
        rows = [
            {"name": "a", "value": 1.234},
            {"name": "long-name", "value": 22},
        ]
        text = format_table(rows, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert "long-name" in text

    def test_missing_keys_render_dash(self):
        text = format_table([{"a": 1}, {"b": 2}], columns=["a", "b"])
        assert "-" in text.splitlines()[-1]

    def test_empty_rows(self):
        assert format_table([]) == ""
        assert format_table([], title="t") == "t\n"

    def test_explicit_column_order(self):
        text = format_table([{"x": 1, "y": 2}], columns=["y", "x"])
        header = text.splitlines()[0]
        assert header.index("y") < header.index("x")
