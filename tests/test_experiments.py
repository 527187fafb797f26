"""Smoke tests for the experiment harness (small settings).

Each experiment runs at a reduced size; the assertions check result
structure and the paper shapes that survive small workloads.
"""

import pytest

from repro.experiments import (
    figure4_5,
    figure6_7,
    figure8,
    figure9,
    latency,
    table2,
    table3,
    table4,
    table5,
    table6,
)
from repro.experiments.common import ExperimentSettings
from repro.experiments.runner import EXPERIMENTS, main

SMALL = ExperimentSettings(
    n_branches=10_000, warmup=3_500, benchmarks=("gzip", "mcf", "gcc")
)
TINY = ExperimentSettings(n_branches=6_000, warmup=2_000, benchmarks=("gzip",))


class TestSettings:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentSettings(n_branches=0)
        with pytest.raises(ValueError):
            ExperimentSettings(n_branches=10, warmup=10)
        with pytest.raises(ValueError):
            ExperimentSettings(benchmarks=("nonesuch",))

    def test_scaled(self):
        scaled = SMALL.scaled(0.5)
        assert scaled.n_branches == 5_000
        assert scaled.benchmarks == SMALL.benchmarks


class TestTable2:
    def test_structure_and_shape(self):
        result = table2.run(SMALL)
        assert [r.benchmark for r in result.rows] == list(SMALL.benchmarks)
        mcf = next(r for r in result.rows if r.benchmark == "mcf")
        gcc = next(r for r in result.rows if r.benchmark == "gcc")
        assert mcf.mispredicts_per_kuop > gcc.mispredicts_per_kuop
        assert mcf.mispredicts_per_kuop == max(
            r.mispredicts_per_kuop for r in result.rows
        )
        # Deep and wide machines waste more than the standard machine.
        for row in result.rows:
            assert row.uop_increase_pct["40c4w"] > row.uop_increase_pct["20c4w"]
            assert row.uop_increase_pct["20c8w"] >= row.uop_increase_pct["20c4w"]
        assert "Table 2" in result.format()


class TestTable3:
    def test_ladders_and_ratio(self):
        result = table3.run(SMALL)
        assert len(result.jrs) == 4
        assert len(result.perceptron) == 4
        jrs_specs = [p.spec_pct for p in result.jrs]
        assert jrs_specs == sorted(jrs_specs)  # lambda up -> coverage up
        perc_specs = [p.spec_pct for p in result.perceptron]
        assert perc_specs == sorted(perc_specs)  # lambda down -> coverage up
        # Perceptron is the accuracy side, JRS the coverage side.
        perc_mid = next(p for p in result.perceptron if p.threshold == 0)
        jrs_mid = next(p for p in result.jrs if p.threshold == 7)
        assert perc_mid.pvn_pct > jrs_mid.pvn_pct
        assert jrs_mid.spec_pct > perc_mid.spec_pct
        assert result.accuracy_ratio() > 1.5
        assert "accuracy ratio" in result.format()


class TestTable4:
    def test_cells_and_dominance(self):
        result = table4.run(TINY)
        assert len(result.cells) == 12 + 4
        perc = result.cell("perceptron", 0, 1)
        jrs = result.cell("JRS", 7, 1)
        assert jrs.performance_loss_pct > perc.performance_loss_pct
        # JRS coverage buys more raw uop reduction at PL1, and raising
        # PL softens its performance loss.
        assert jrs.uop_reduction_pct > perc.uop_reduction_pct
        assert (
            result.cell("JRS", 7, 3).performance_loss_pct
            < jrs.performance_loss_pct
        )
        assert "Table 4" in result.format()

    def test_per_benchmark_detail(self):
        result = table4.run(TINY)
        assert set(result.per_benchmark) == set(TINY.benchmarks)


class TestTable5:
    def test_predictor_ladders(self):
        result = table5.run(TINY)
        base = result.rows_for("bimodal-gshare")
        better = result.rows_for("gshare-perceptron")
        assert len(base) == 4
        assert len(better) == 4
        # The better predictor mispredicts less.
        assert better[0].mispredicts_per_kuop <= base[0].mispredicts_per_kuop
        assert "Table 5" in result.format()


class TestTable6:
    def test_configuration_ladder(self):
        result = table6.run(TINY)
        labels = [r.config.label for r in result.rows]
        assert labels == [
            "P128W8H32", "P96W8H32", "P128W6H32", "P128W8H24",
            "P64W8H32", "P128W4H32", "P128W8H16",
        ]
        # Halving entries is the gentlest 2KB cut: it must not lose
        # much against the full 4KB configuration.
        full = result.row("P128W8H32")
        fewer_entries = result.row("P64W8H32")
        assert fewer_entries.uop_reduction_pct >= full.uop_reduction_pct - 5
        assert "Table 6" in result.format()

    def test_size_accounting(self):
        for _, cfg in table6.CONFIGURATIONS:
            assert cfg.size_kib in (2.0, 3.0, 4.0)


class TestDensities:
    def test_cic_density(self):
        result = figure4_5.run(SMALL, benchmark="gzip")
        assert result.scheme == "perceptron_cic"
        _, cb, mb = result.histogram(bins=30)
        assert cb.sum() > 0 and mb.sum() > 0
        assert result.separation > 20  # MB sits well right of CB
        # The high-confidence region is almost free of mispredictions.
        assert result.regions[2].mispredict_fraction < 0.1
        assert "Figure 4/5" in result.format()

    def test_cic_regions_partition(self):
        result = figure4_5.run(SMALL, benchmark="gzip")
        reversal, gating, high = result.regions
        total = reversal.total + gating.total + high.total
        assert total == (
            result.density.correct_outputs.size
            + result.density.mispredicted_outputs.size
        )

    def test_tnt_density_has_no_crossover(self):
        result = figure6_7.run(SMALL, benchmark="gzip")
        assert result.mb_never_dominates
        assert result.crossover is None
        assert "Figure 6/7" in result.format()

    def test_cic_separates_better_than_tnt(self):
        cic = figure4_5.run(SMALL, benchmark="gzip")
        # tnt CB/MB overlap: near-zero MB fraction must be small
        # relative to cic's gating region fraction.
        tnt = figure6_7.run(SMALL, benchmark="gzip")
        assert cic.regions[0].mispredict_fraction > tnt.near_zero_mb_fraction


class TestFigures89:
    def test_figure8_rows(self):
        result = figure8.run(TINY)
        assert [r.benchmark for r in result.rows] == list(TINY.benchmarks)
        assert result.machine_label == "40c/4w"
        # The combined policy removes work and both mechanisms engage.
        assert any(r.uop_reduction_pct > 0 for r in result.rows)
        assert sum(r.reversals for r in result.rows) > 0
        assert "Figure 8/9" in result.format()

    def test_figure9_uses_wide_machine(self):
        result = figure9.run(TINY)
        assert result.machine_label == "20c/8w"
        # The wide machine's shorter pipe never costs much more
        # performance than the deep machine's, and its uop reduction is
        # comparable: the benefit does not grow with width.
        deep = figure8.run(TINY)
        assert result.average_speedup_pct >= deep.average_speedup_pct - 2.0
        assert (
            result.average_uop_reduction_pct
            <= deep.average_uop_reduction_pct + 5.0
        )


class TestLatency:
    def test_ladder(self):
        result = latency.run(TINY)
        assert {r.latency for r in result.rows} == set(latency.LATENCIES)
        # The paper's claim: the drop from slow estimation is small
        # relative to the ideal reduction.
        ideal = result.row(1).uop_reduction_pct
        slow = result.row(9).uop_reduction_pct
        assert slow > 0.4 * ideal
        assert "latency" in result.format()


class TestRunner:
    def test_run_all_selected(self, capsys):
        assert main(["--branches", "4000", "figure6_7"]) == 0
        out = capsys.readouterr().out
        assert "\n=== figure6_7 (" in out
        assert "sweep[experiments]: " in out

    def test_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2
        assert "bogus" in capsys.readouterr().err

    def test_registry_complete(self):
        from repro.experiments.runner import PAPER_EXPERIMENTS

        assert set(PAPER_EXPERIMENTS) == {
            "table2", "table3", "table4", "table5", "table6",
            "figure4_5", "figure6_7", "figure8", "figure9", "latency",
        }
        # Extensions are selectable through the same registry.
        assert set(PAPER_EXPERIMENTS) <= set(EXPERIMENTS)
