"""Unit tests for repro.trace.benchmarks (profiles and calibration)."""

import pytest

from repro.trace.behaviors import HiddenCorrelationBehavior, LoopBehavior
from repro.trace.benchmarks import (
    BENCHMARK_NAMES,
    TABLE2_MISPREDICTS_PER_KUOP,
    benchmark_profile,
    build_workload,
    generate_benchmark_trace,
)


class TestProfiles:
    def test_all_twelve_registered(self):
        assert len(BENCHMARK_NAMES) == 12
        for name in BENCHMARK_NAMES:
            assert benchmark_profile(name).name == name

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError):
            benchmark_profile("nonesuch")

    def test_weights_sum_to_one(self):
        for name in BENCHMARK_NAMES:
            total = sum(benchmark_profile(name).class_weights.values())
            assert total == pytest.approx(1.0, abs=2e-3)

    def test_targets_match_table2(self):
        assert benchmark_profile("mcf").mispredict_target_per_kuop == 16.0
        assert benchmark_profile("vortex").mispredict_target_per_kuop == 0.2

    def test_far_taps_within_estimator_history(self):
        for name in BENCHMARK_NAMES:
            for tap in benchmark_profile(name).hidden_far_taps:
                assert 10 < tap < 32  # beyond gshare, within CE history

    def test_far_taps_avoid_block_periodicity(self):
        for name in BENCHMARK_NAMES:
            for tap in benchmark_profile(name).hidden_far_taps:
                assert tap % 3 != 0


class TestBuildWorkload:
    def test_unique_pcs(self):
        spec = build_workload(benchmark_profile("gzip"), seed=1)
        pcs = [b.pc for b in spec.branches]
        assert len(pcs) == len(set(pcs))

    def test_pcs_are_aligned(self):
        spec = build_workload(benchmark_profile("gcc"), seed=1)
        assert all(b.pc % 4 == 0 for b in spec.branches)

    def test_class_population_sizes(self):
        profile = benchmark_profile("gzip")
        spec = build_workload(profile, seed=1)
        assert len(spec.branches) == sum(
            count
            for cls, count in profile.static_counts.items()
            if profile.class_weights.get(cls, 0) > 0
        )

    def test_contains_fixed_and_variable_loops(self):
        spec = build_workload(benchmark_profile("gzip"), seed=1)
        loops = [b.behavior for b in spec.branches if isinstance(b.behavior, LoopBehavior)]
        fixed = [l for l in loops if l.min_trips == l.max_trips]
        variable = [l for l in loops if l.min_trips != l.max_trips]
        assert fixed and variable

    def test_hidden_branches_use_far_taps(self):
        profile = benchmark_profile("twolf")
        spec = build_workload(profile, seed=1)
        hidden = [
            b.behavior
            for b in spec.branches
            if isinstance(b.behavior, HiddenCorrelationBehavior)
        ]
        assert hidden
        assert all(h.far_tap in profile.hidden_far_taps for h in hidden)

    def test_deterministic_given_seed(self):
        a = build_workload(benchmark_profile("vpr"), seed=4)
        b = build_workload(benchmark_profile("vpr"), seed=4)
        assert [s.pc for s in a.branches] == [s.pc for s in b.branches]
        assert [s.weight for s in a.branches] == [s.weight for s in b.branches]


class TestGenerateBenchmarkTrace:
    def test_deterministic(self):
        a = generate_benchmark_trace("gcc", n_branches=2000, seed=3)
        b = generate_benchmark_trace("gcc", n_branches=2000, seed=3)
        assert [(r.pc, r.taken) for r in a] == [(r.pc, r.taken) for r in b]

    def test_metadata(self):
        trace = generate_benchmark_trace("bzip", n_branches=1000, seed=3)
        assert trace.name == "bzip"
        assert len(trace) == 1000

    def test_branch_density_tracks_profile(self):
        eon = generate_benchmark_trace("eon", n_branches=4000, seed=1)
        mcf = generate_benchmark_trace("mcf", n_branches=4000, seed=1)
        # eon is configured with lower branch density (10 uops/branch).
        assert eon.stats().branches_per_kuop < mcf.stats().branches_per_kuop


class TestCalibration:
    """Misprediction-rate calibration against Table 2 (slower tests)."""

    @pytest.mark.parametrize("name", ["gzip", "gcc", "mcf", "vortex"])
    def test_misprediction_band(self, name):
        from repro.core.estimator import AlwaysHighEstimator
        from repro.core.frontend import FrontEnd
        from repro.predictors.hybrid import make_baseline_hybrid

        trace = generate_benchmark_trace(name, n_branches=40_000, seed=1)
        frontend = FrontEnd(make_baseline_hybrid(), AlwaysHighEstimator())
        result = frontend.replay(trace, warmup=14_000)
        uops = sum(r.uops for r in trace[14_000:])
        per_kuop = 1000.0 * result.mispredictions / uops
        target = TABLE2_MISPREDICTS_PER_KUOP[name]
        assert target * 0.5 <= per_kuop <= target * 2.0

    def test_predictability_ordering(self):
        """mcf must be by far the worst; vortex the best (paper order)."""
        from repro.core.estimator import AlwaysHighEstimator
        from repro.core.frontend import FrontEnd
        from repro.predictors.hybrid import make_baseline_hybrid

        rates = {}
        for name in ("mcf", "gzip", "vortex"):
            trace = generate_benchmark_trace(name, n_branches=25_000, seed=1)
            frontend = FrontEnd(make_baseline_hybrid(), AlwaysHighEstimator())
            result = frontend.replay(trace, warmup=9_000)
            rates[name] = result.misprediction_rate
        assert rates["mcf"] > rates["gzip"] > rates["vortex"]
