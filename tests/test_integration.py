"""Integration tests: cross-module scenarios reproducing paper claims.

These run small versions of the paper's headline comparisons so the
full pipeline (trace -> predictor -> estimator -> policy -> timing
model) is exercised end to end.
"""

import pytest

from repro.core.estimator import AlwaysHighEstimator
from repro.core.frontend import FrontEnd
from repro.core.jrs import JRSEstimator
from repro.core.perceptron_estimator import PerceptronConfidenceEstimator
from repro.core.reversal import (
    GatingOnlyPolicy,
    NoSpeculationControl,
    ThreeRegionPolicy,
)
from repro.pipeline.config import BASELINE_40X4, STANDARD_20X4, WIDE_20X8
from repro.pipeline.simulator import PipelineSimulator
from repro.predictors.hybrid import make_baseline_hybrid


WARM = 5_000


def _stats(trace, estimator, policy, config):
    """Timing of ``trace`` after the warm-up on one machine."""
    frontend = FrontEnd(make_baseline_hybrid(), estimator, policy)
    events = [frontend.process(record) for record in trace][WARM:]
    return PipelineSimulator(config).simulate(iter(events))


def _cost(trace, estimator, policy, config):
    """``(U, P)`` of ``policy`` against the ungated run on ``config``."""
    base = _stats(trace, AlwaysHighEstimator(), NoSpeculationControl(), config)
    return _stats(trace, estimator, policy, config).cost_vs(base)


class TestPaperClaimShapes:
    """Each test pins one qualitative claim from the paper."""

    def test_perceptron_more_accurate_than_jrs(self, gzip_trace):
        """Headline: perceptron PVN is a multiple of JRS PVN (Table 3)."""
        jrs = FrontEnd(make_baseline_hybrid(), JRSEstimator(threshold=7)).replay(
            gzip_trace, warmup=WARM
        )
        perc = FrontEnd(
            make_baseline_hybrid(), PerceptronConfidenceEstimator(threshold=0)
        ).replay(gzip_trace, warmup=WARM)
        assert perc.matrix.pvn > 1.5 * jrs.matrix.pvn

    def test_jrs_has_higher_coverage(self, gzip_trace):
        """JRS trades accuracy for coverage (Table 3)."""
        jrs = FrontEnd(make_baseline_hybrid(), JRSEstimator(threshold=7)).replay(
            gzip_trace, warmup=WARM
        )
        perc = FrontEnd(
            make_baseline_hybrid(), PerceptronConfidenceEstimator(threshold=0)
        ).replay(gzip_trace, warmup=WARM)
        assert jrs.matrix.spec > perc.matrix.spec

    def test_perceptron_threshold_tradeoff(self, gzip_trace):
        """Lowering lambda buys coverage and costs accuracy (Table 3)."""
        tight = FrontEnd(
            make_baseline_hybrid(), PerceptronConfidenceEstimator(threshold=25)
        ).replay(gzip_trace, warmup=WARM)
        loose = FrontEnd(
            make_baseline_hybrid(), PerceptronConfidenceEstimator(threshold=-50)
        ).replay(gzip_trace, warmup=WARM)
        assert loose.matrix.spec > tight.matrix.spec

    def test_deep_pipe_wastes_more_than_shallow(self, gzip_trace):
        """Table 2: 40c/4w wastes roughly double the 20c/4w machine."""
        predictor = make_baseline_hybrid()
        frontend = FrontEnd(predictor, AlwaysHighEstimator())
        events = [frontend.process(r) for r in gzip_trace]
        deep = PipelineSimulator(BASELINE_40X4).simulate(iter(events))
        shallow = PipelineSimulator(STANDARD_20X4).simulate(iter(events))
        assert deep.wrong_path_increase > 1.4 * shallow.wrong_path_increase

    def test_gating_reduces_total_execution(self, gzip_trace):
        """Table 4: perceptron gating cuts uops executed."""
        u, _ = _cost(
            gzip_trace,
            PerceptronConfidenceEstimator(threshold=0),
            GatingOnlyPolicy(),
            BASELINE_40X4.with_gating(1),
        )
        assert u > 2.0

    def test_perceptron_gating_dominates_jrs_frontier(self, gzip_trace):
        """Table 4: at comparable U, the perceptron loses far less
        performance than JRS at PL1."""
        _, perc_p = _cost(
            gzip_trace,
            PerceptronConfidenceEstimator(threshold=0),
            GatingOnlyPolicy(),
            BASELINE_40X4.with_gating(1),
        )
        _, jrs_p = _cost(
            gzip_trace,
            JRSEstimator(threshold=7),
            GatingOnlyPolicy(),
            BASELINE_40X4.with_gating(1),
        )
        assert jrs_p > 2 * perc_p

    def test_higher_pl_softens_jrs(self, gzip_trace):
        """Table 4: raising the branch-counter threshold reduces both
        JRS's uop savings and its performance loss."""
        pl1_u, pl1_p = _cost(
            gzip_trace,
            JRSEstimator(threshold=7),
            GatingOnlyPolicy(),
            BASELINE_40X4.with_gating(1),
        )
        pl3_u, pl3_p = _cost(
            gzip_trace,
            JRSEstimator(threshold=7),
            GatingOnlyPolicy(),
            BASELINE_40X4.with_gating(3),
        )
        assert pl3_u < pl1_u
        assert pl3_p < pl1_p

    def test_estimator_latency_minor(self, gzip_trace):
        """Section 5.4.2: 9-cycle estimator latency costs little U."""
        fast_u, _ = _cost(
            gzip_trace,
            PerceptronConfidenceEstimator(threshold=0),
            GatingOnlyPolicy(),
            BASELINE_40X4.with_gating(1, estimator_latency=1),
        )
        slow_u, _ = _cost(
            gzip_trace,
            PerceptronConfidenceEstimator(threshold=0),
            GatingOnlyPolicy(),
            BASELINE_40X4.with_gating(1, estimator_latency=9),
        )
        assert slow_u > 0.5 * fast_u

    def test_tnt_training_is_worse(self, gcc_trace):
        """Section 5.3: at matched coverage, cic accuracy beats tnt."""
        cic = FrontEnd(
            make_baseline_hybrid(),
            PerceptronConfidenceEstimator(threshold=0, mode="cic"),
        ).replay(gcc_trace, warmup=WARM)
        cic_m = cic.matrix

        # Find a tnt threshold with at least cic's coverage.
        tnt_m = None
        for thr in (10, 30, 60, 120, 240):
            tnt = FrontEnd(
                make_baseline_hybrid(),
                PerceptronConfidenceEstimator(threshold=thr, mode="tnt"),
            ).replay(gcc_trace, warmup=WARM)
            tnt_m = tnt.matrix
            if tnt_m.spec >= cic_m.spec:
                break
        assert tnt_m is not None
        assert cic_m.pvn > tnt_m.pvn

    def test_three_region_policy_executes_all_actions(self, gzip_trace):
        """Section 5.5 machinery: reversal and gating both engage."""
        stats = _stats(
            gzip_trace,
            PerceptronConfidenceEstimator(threshold=-90, strong_threshold=40),
            ThreeRegionPolicy(),
            BASELINE_40X4.with_gating(2),
        )
        assert stats.reversals > 0
        assert stats.gated_branches > 0

    def test_wide_machine_also_benefits(self, gzip_trace):
        """Figure 9 premise: gating cuts execution on the 20c/8w machine
        too (reversal needs longer traces to train, so the short-trace
        check uses gating alone)."""
        u, _ = _cost(
            gzip_trace,
            PerceptronConfidenceEstimator(threshold=-25),
            GatingOnlyPolicy(),
            WIDE_20X8.with_gating(1),
        )
        assert u > 0
