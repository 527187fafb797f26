"""Unit tests for the shared experiment infrastructure."""

import pytest

from repro.core.reversal import BranchAction
from repro.engine import ALWAYS_HIGH, GATING_POLICY, NO_POLICY, EstimatorSpec
from repro.experiments.common import (
    ExperimentSettings,
    gating_jobs,
    get_trace,
    job_for,
    mean_cost,
    replay_benchmark,
    run_gating,
    run_jobs,
)
from repro.pipeline.config import BASELINE_40X4
from repro.pipeline.simulator import PipelineSimulator

SMALL = ExperimentSettings(
    n_branches=4_000, warmup=1_000, benchmarks=("gzip",)
)

JRS7 = EstimatorSpec.of("jrs", threshold=7)


class TestGetTrace:
    def test_cached(self):
        a = get_trace("gzip", 3_000, 5)
        b = get_trace("gzip", 3_000, 5)
        assert a is b

    def test_distinct_keys(self):
        assert get_trace("gzip", 3_000, 5) is not get_trace("gzip", 3_000, 6)


class TestReplayBenchmark:
    def test_event_count_excludes_warmup(self):
        events, result = replay_benchmark("gzip", SMALL, ALWAYS_HIGH)
        assert len(events) == SMALL.n_branches - SMALL.warmup
        assert result.branches == len(events)

    def test_policy_decisions_present(self):
        events, _ = replay_benchmark(
            "gzip", SMALL, JRS7, policy=GATING_POLICY
        )
        assert any(e.decision.action is BranchAction.GATE for e in events)

    def test_collect_outputs(self):
        _, result = replay_benchmark(
            "gzip", SMALL, JRS7, collect_outputs=True
        )
        total = len(result.outputs_correct) + len(result.outputs_mispredicted)
        assert total == result.branches


class TestRunJobs:
    def test_batch_order_matches_jobs(self):
        jobs = [
            job_for(SMALL, "gzip", ALWAYS_HIGH),
            job_for(SMALL, "gzip", JRS7),
            job_for(SMALL, "gzip", ALWAYS_HIGH),
        ]
        outcomes = run_jobs(jobs)
        assert len(outcomes) == 3
        # Duplicate jobs resolve to the identical cached outcome.
        assert outcomes[0].events is outcomes[2].events

    def test_repeat_is_cache_hit(self):
        job = job_for(SMALL, "gzip", JRS7)
        first = run_jobs([job])[0]
        second = run_jobs([job])[0]
        assert second.from_cache
        assert first.result.branches == second.result.branches


class TestRunGating:
    PERCEPTRON = EstimatorSpec.of("perceptron", threshold=0)
    VARIANTS = [(JRS7, GATING_POLICY), (PERCEPTRON, GATING_POLICY)]
    MACHINES = [
        [BASELINE_40X4.with_gating(1), BASELINE_40X4.with_gating(2)],
        [BASELINE_40X4.with_gating(1)],
    ]

    def test_jobs_are_baseline_then_variants_per_benchmark(self):
        settings = ExperimentSettings(
            n_branches=4_000, warmup=1_000, benchmarks=("gzip", "mcf")
        )
        jobs = gating_jobs(settings, self.VARIANTS)
        assert [(j.benchmark, j.estimator, j.policy) for j in jobs] == [
            (name, estimator, policy)
            for name in ("gzip", "mcf")
            for estimator, policy in [
                (ALWAYS_HIGH, NO_POLICY), *self.VARIANTS
            ]
        ]

    def test_matches_direct_simulation(self):
        times = run_gating(SMALL, self.VARIANTS, BASELINE_40X4, self.MACHINES)
        base, *variants = run_jobs(gating_jobs(SMALL, self.VARIANTS))
        assert times.bases == [
            PipelineSimulator(BASELINE_40X4).simulate(base.events)
        ]
        for i, (outcome, row) in enumerate(zip(variants, self.MACHINES)):
            for j, machine in enumerate(row):
                direct = PipelineSimulator(machine).simulate(outcome.events)
                assert times.stats[0][i][j] == direct
                assert times.variant(i, j) == [direct]
                assert times.cost(i, j) == direct.cost_vs(times.bases[0])

    def test_rerunnable(self):
        first = run_gating(SMALL, self.VARIANTS, BASELINE_40X4, self.MACHINES)
        again = run_gating(SMALL, self.VARIANTS, BASELINE_40X4, self.MACHINES)
        assert again == first

    def test_needs_one_machine_row_per_variant(self):
        with pytest.raises(ValueError):
            run_gating(SMALL, self.VARIANTS, BASELINE_40X4, self.MACHINES[:1])


class TestMeanCost:
    def test_averages_cost_in_benchmark_order(self):
        times = run_gating(
            ExperimentSettings(
                n_branches=4_000, warmup=1_000, benchmarks=("gzip", "mcf")
            ),
            [(JRS7, GATING_POLICY)],
            BASELINE_40X4,
            [[BASELINE_40X4.with_gating(1)]],
        )
        costs = [s.cost_vs(b) for b, s in zip(times.bases, times.variant(0))]
        assert mean_cost(times.bases, times.variant(0)) == (
            (costs[0][0] + costs[1][0]) / 2,
            (costs[0][1] + costs[1][1]) / 2,
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mean_cost([], [None])


class TestRunnerCli:
    def test_main_quick_single(self, capsys):
        from repro.experiments.runner import main

        assert main(["--branches", "4000", "figure6_7"]) == 0
        assert "figure6_7" in capsys.readouterr().out
