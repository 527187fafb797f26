"""Smoke tests for the beyond-the-paper experiments."""

import pytest

from repro.experiments import (
    ablation_combined,
    ablation_training,
    energy,
    oracle_bound,
    smt,
    throttle,
)
from repro.experiments.common import ExperimentSettings
from repro.experiments.runner import (
    EXPERIMENT_JOBS,
    EXPERIMENTS,
    EXTENSION_EXPERIMENTS,
    EXTENSION_IDS,
    PAPER_EXPERIMENTS,
    PAPER_IDS,
)

SMALL = ExperimentSettings(
    n_branches=8_000, warmup=2_500, benchmarks=("gzip", "mcf")
)


class TestOracleBound:
    def test_perfect_oracle_dominates(self):
        result = oracle_bound.run(SMALL)
        perfect = result.row("oracle 100%/100%")
        real = result.row("perceptron l=0")
        assert perfect.uop_reduction_pct > real.uop_reduction_pct
        assert perfect.performance_loss_pct <= real.performance_loss_pct + 0.5
        assert "Oracle" in result.format()

    def test_coverage_scales_savings(self):
        result = oracle_bound.run(SMALL)
        full = result.row("oracle 100%/100%")
        half = result.row("oracle 50%/100%")
        assert full.uop_reduction_pct > half.uop_reduction_pct

    def test_bad_accuracy_costs_performance(self):
        result = oracle_bound.run(SMALL)
        sloppy = result.row("oracle 100%/50%")
        perfect = result.row("oracle 100%/100%")
        assert sloppy.performance_loss_pct > perfect.performance_loss_pct


class TestEnergy:
    def test_ladder_and_shape(self):
        result = energy.run(SMALL)
        assert [r.threshold for r in result.rows] == list(energy.THRESHOLDS)
        # Looser thresholds save more raw energy (more uops removed).
        assert (
            result.row(-50).energy_savings_pct
            >= result.row(25).energy_savings_pct
        )
        assert any(r.energy_savings_pct > 0 for r in result.rows)
        assert "Energy" in result.format()

    def test_energy_tracks_uop_reduction(self):
        result = energy.run(SMALL)
        for row in result.rows:
            if row.uop_reduction_pct > 2:
                assert row.energy_savings_pct > 0


class TestSmt:
    def test_dirty_pair_gains_most(self):
        settings = ExperimentSettings(
            n_branches=8_000, warmup=2_500,
            benchmarks=("gzip", "mcf", "gcc"),
        )
        result = smt.run(
            settings, pairs=(("mcf", "gcc"), ("gzip", "gcc"))
        )
        dirty = result.row(("mcf", "gcc"))
        clean = result.row(("gzip", "gcc"))
        assert dirty.throughput_gain_pct > clean.throughput_gain_pct - 1.0
        # Control always reduces wasted fetch.
        for row in result.rows:
            assert row.controlled_wasted_fraction <= row.baseline_wasted_fraction
        assert "SMT" in result.format()


class TestThrottle:
    def test_throttle_costs_less_than_stall(self):
        result = throttle.run(SMALL)
        # At the same estimator threshold, half-rate fetch loses less
        # performance than a full stall, and removes less work.
        stall = result.row("stall", -50)
        half = result.row("throttle 1/2", -50)
        assert half.performance_loss_pct <= stall.performance_loss_pct
        assert half.uop_reduction_pct <= stall.uop_reduction_pct


class TestTrainingAblation:
    def test_cb_cluster_tracks_t(self):
        result = ablation_training.run(SMALL, benchmark="gzip")
        medians = [r.cb_median for r in result.rows]
        # Larger T pushes the correct cluster further negative.
        assert medians == sorted(medians, reverse=True)
        assert "Training threshold" in result.format()

    def test_separation_grows_with_t(self):
        result = ablation_training.run(SMALL, benchmark="gzip")
        assert result.row(160).separation > result.row(16).separation


class TestCombinedAblation:
    def test_fusions_bracket_components(self):
        result = ablation_combined.run(SMALL)
        perc = result.row("perceptron").matrix
        jrs = result.row("enhanced JRS").matrix
        union = result.row("union").matrix
        inter = result.row("intersection").matrix
        cascade = result.row("cascade").matrix
        assert union.spec >= max(perc.spec, jrs.spec) - 0.02
        assert union.spec >= perc.spec
        assert inter.flagged_low <= min(perc.flagged_low, jrs.flagged_low)
        assert perc.spec - 0.05 <= cascade.spec <= jrs.spec + 0.05
        assert "fusion" in result.format()


class TestRegistries:
    def test_disjoint_and_complete(self):
        assert not set(PAPER_EXPERIMENTS) & set(EXTENSION_EXPERIMENTS)
        assert set(EXPERIMENTS) == (
            set(PAPER_EXPERIMENTS) | set(EXTENSION_EXPERIMENTS)
        )
        assert set(EXTENSION_EXPERIMENTS) == {
            "oracle_bound", "energy", "smt",
            "ablation_training", "ablation_combined",
            "ablation_history", "ablation_indexing", "seed_stability",
            "throttle", "warmup_curve", "h2p_confidence",
        }

    def test_every_experiment_module_is_in_exactly_one_tuple(self):
        import importlib
        import pkgutil

        import repro.experiments as package

        experiments = set()
        for info in pkgutil.iter_modules(package.__path__):
            if info.name.startswith("_"):  # __main__ would run the CLI
                continue
            module = importlib.import_module(f"repro.experiments.{info.name}")
            if hasattr(module, "jobs") and hasattr(module, "run"):
                experiments.add(info.name)
        for name in experiments:
            assert (name in PAPER_IDS) + (name in EXTENSION_IDS) == 1, name
        assert experiments == set(PAPER_IDS) | set(EXTENSION_IDS)
        assert list(EXPERIMENTS) == list(PAPER_IDS + EXTENSION_IDS)
        assert list(EXPERIMENT_JOBS) == list(EXPERIMENTS)


class TestIndexingAblation:
    def test_schemes_present_and_coherent(self):
        from repro.experiments import ablation_indexing

        result = ablation_indexing.run(SMALL)
        row_scheme = result.row("row P128W8H32")
        path_scheme = result.row("path T512H8")
        for row in result.rows:
            assert 0 <= row.matrix.pvn <= 1
            assert row.storage_kib > 0
        # Matched-storage schemes are within 20% of each other's budget.
        assert abs(row_scheme.storage_kib - path_scheme.storage_kib) < 1.0
        assert "indexing" in result.format()

    def test_smaller_row_array_is_not_better(self):
        from repro.experiments import ablation_indexing

        result = ablation_indexing.run(SMALL)
        full = result.row("row P128W8H32")
        small = result.row("row P32W8H32")
        # Quartering the rows must not improve the flagged catch.
        full_catch = full.matrix.pvn * full.matrix.spec
        small_catch = small.matrix.pvn * small.matrix.spec
        assert small_catch <= full_catch * 1.1


class TestSeedStabilitySmall:
    def test_headline_holds_across_seeds(self):
        from repro.experiments import seed_stability

        result = seed_stability.run(SMALL, seeds=(1, 2))
        assert result.ratio_always_above_one
