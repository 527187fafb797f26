"""Unit tests for the workload calibration solver."""

import pytest

from repro.trace.benchmarks import benchmark_profile
from repro.trace.calibration import (
    FRAC_CORRELATED,
    FRAC_UNPREDICTABLE,
    UNPRED_CONTRIBUTIONS,
    UNPREDICTABLE_CLASSES,
    ClassMeasurement,
    calibrate_profile,
    classify_pc,
    measure_profile,
    solve_weights,
)
from repro.trace.benchmarks import _CLASS_PC_BASE


class TestClassifyPc:
    def test_maps_regions(self):
        for cls, base in _CLASS_PC_BASE.items():
            assert classify_pc(base) == cls
            assert classify_pc(base + 52 * 3) == cls

    def test_below_all_regions(self):
        assert classify_pc(0) is None


class TestMeasureProfile:
    def test_measures_gzip(self):
        profile = benchmark_profile("gzip")
        m = measure_profile(profile, n_branches=12_000, warmup=4_000)
        assert 0.0 < m.overall_rate < 0.3
        assert abs(sum(m.shares.values()) - 1.0) < 1e-9
        assert "biased" in m.rates
        # Random-class branches must mispredict far more than biased.
        if "random" in m.rates:
            assert m.rates["random"] > m.rates["biased"]

    def test_rate_default(self):
        m = ClassMeasurement(shares={}, rates={}, overall_rate=0.0)
        assert m.rate("hidden", default=0.4) == 0.4


class TestSolveWeights:
    def measurement(self):
        return ClassMeasurement(
            shares={},
            rates={
                "biased": 0.003,
                "correlated": 0.06,
                "pattern": 0.25,
                "loop": 0.10,
                "phased": 0.08,
                "hidden": 0.35,
                "random": 0.50,
            },
            overall_rate=0.05,
        )

    def test_weights_sum_to_one(self):
        weights = solve_weights(
            benchmark_profile("gzip"), self.measurement(), target_rate=0.04
        )
        assert sum(weights.values()) == pytest.approx(1.0, abs=1e-3)
        assert all(w >= 0 for w in weights.values())

    def test_composition_targets(self):
        m = self.measurement()
        target = 0.04
        weights = solve_weights(benchmark_profile("gzip"), m, target)
        unpred_contrib = sum(
            weights[cls] * m.rates[cls] for cls in UNPREDICTABLE_CLASSES
        )
        assert unpred_contrib == pytest.approx(
            FRAC_UNPREDICTABLE * target, rel=0.15
        )
        # Within the unpredictable budget, hidden dominates as configured.
        hidden_share = weights["hidden"] * m.rates["hidden"] / unpred_contrib
        assert hidden_share == pytest.approx(
            UNPRED_CONTRIBUTIONS["hidden"], rel=0.1
        )

    def test_lower_target_lowers_hard_classes(self):
        m = self.measurement()
        aggressive = solve_weights(benchmark_profile("gzip"), m, 0.08)
        gentle = solve_weights(benchmark_profile("gzip"), m, 0.01)
        for cls in UNPREDICTABLE_CLASSES:
            assert gentle[cls] <= aggressive[cls]
        assert gentle["biased"] > aggressive["biased"]

    def test_target_validation(self):
        with pytest.raises(ValueError):
            solve_weights(benchmark_profile("gzip"), self.measurement(), 0.0)


class TestCalibrateProfile:
    def test_converges_on_gzip(self):
        profile = benchmark_profile("gzip")
        result = calibrate_profile(
            profile, n_branches=15_000, warmup=5_000, max_iterations=3
        )
        assert result.converged
        assert 0.5 <= result.ratio <= 2.0
        assert result.iterations >= 1
        # The input profile is untouched.
        assert profile.class_weights == benchmark_profile("gzip").class_weights

    def test_result_profile_valid(self):
        result = calibrate_profile(
            benchmark_profile("bzip"), n_branches=12_000, warmup=4_000,
            max_iterations=2,
        )
        assert sum(result.profile.class_weights.values()) == pytest.approx(
            1.0, abs=2e-3
        )


class TestCalibrateTool:
    """``tools/calibrate.py``, loaded by path as its CLI runs it."""

    @pytest.fixture
    def tool(self):
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "tools" / "calibrate.py"
        spec = importlib.util.spec_from_file_location("calibrate_tool", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_help_prints_usage(self, tool, capsys):
        with pytest.raises(SystemExit) as exc:
            tool.main(["--help"])
        assert exc.value.code == 0
        assert "usage: python tools/calibrate.py" in capsys.readouterr().out

    def test_unknown_benchmark_is_a_usage_error(self, tool, capsys):
        with pytest.raises(SystemExit) as exc:
            tool.main(["gzip", "bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown benchmarks: bogus" in err
        assert "known: gzip, vpr, gcc" in err
