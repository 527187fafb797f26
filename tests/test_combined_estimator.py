"""Unit tests for the fusion estimators (extension)."""

import pytest

from repro.core.combined_estimator import AgreementEstimator, CascadeEstimator
from repro.core.frontend import FrontEnd
from repro.core.jrs import JRSEstimator
from repro.core.perceptron_estimator import PerceptronConfidenceEstimator
from repro.predictors.hybrid import make_baseline_hybrid


def make_pair():
    return (
        PerceptronConfidenceEstimator(threshold=0),
        JRSEstimator(threshold=7),
    )


class TestAgreementEstimator:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            AgreementEstimator(*make_pair(), mode="xor")

    def test_intersection_flags_subset_of_union(self, simple_trace):
        results = {}
        for mode in ("intersection", "union"):
            frontend = FrontEnd(
                make_baseline_hybrid(),
                AgreementEstimator(*make_pair(), mode=mode),
            )
            results[mode] = frontend.replay(simple_trace, warmup=1000)
        inter = results["intersection"].metrics.overall
        union = results["union"].metrics.overall
        assert inter.flagged_low <= union.flagged_low
        assert union.spec >= inter.spec

    def test_cold_estimators_agree_high(self):
        est = AgreementEstimator(*make_pair(), mode="union")
        # Cold: perceptron high (y=0 <= 0), JRS low (counter 0 < 7).
        sig = est.estimate(0x40, True)
        assert sig.low_confidence  # union picks up the JRS flag
        est2 = AgreementEstimator(*make_pair(), mode="intersection")
        assert not est2.estimate(0x40, True).low_confidence

    def test_components_train_independently(self, simple_trace):
        est = AgreementEstimator(*make_pair(), mode="intersection")
        frontend = FrontEnd(make_baseline_hybrid(), est)
        frontend.replay(simple_trace.slice(0, 1500))
        # The JRS component must have accumulated miss-distance state.
        assert est.secondary.estimate(simple_trace[0].pc, True).raw >= 0
        # The perceptron component must have non-zero weights somewhere.
        assert est.primary.array.snapshot().any()

    def test_storage_sums_components(self):
        est = AgreementEstimator(*make_pair())
        assert est.storage_bits == (
            est.primary.storage_bits + est.secondary.storage_bits
        )

    def test_history_shifts_both(self):
        est = AgreementEstimator(*make_pair())
        est.shift_history(True)
        assert est.primary.history.bits == 1
        assert est.secondary.history.bits == 1


class TestCascadeEstimator:
    def test_validation(self):
        with pytest.raises(ValueError):
            CascadeEstimator(*make_pair(), neutral_band=-1)

    def test_defers_in_neutral_band(self):
        est = CascadeEstimator(*make_pair(), neutral_band=30)
        # Cold perceptron output 0 is inside the band; JRS (counter 0)
        # flags low -> cascade flags low.
        assert est.estimate(0x40, True).low_confidence

    def test_primary_decides_outside_band(self, simple_trace):
        est = CascadeEstimator(*make_pair(), neutral_band=5)
        frontend = FrontEnd(make_baseline_hybrid(), est)
        frontend.replay(simple_trace, warmup=1000)
        # Drive primary strongly high-confidence for a deterministic pc,
        # then the cascade must report high even if JRS would flag.
        pc = simple_trace[0].pc
        sig = est.primary.estimate(pc, True)
        if abs(sig.raw) > 5:
            assert est.estimate(pc, True).low_confidence == (
                sig.low_confidence
            )

    def test_coverage_between_components(self, simple_trace):
        """The cascade lands between perceptron and JRS coverage."""
        def run(est):
            frontend = FrontEnd(make_baseline_hybrid(), est)
            return frontend.replay(simple_trace, warmup=1000).metrics.overall

        perc = run(PerceptronConfidenceEstimator(threshold=0))
        jrs = run(JRSEstimator(threshold=7))
        cascade = run(CascadeEstimator(*make_pair(), neutral_band=40))
        assert perc.spec <= cascade.spec <= jrs.spec
