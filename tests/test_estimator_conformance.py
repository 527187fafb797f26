"""Conformance suite: every estimator obeys the front-end protocol.

Parametrised over the whole estimator zoo, these tests pin the
contracts :class:`repro.core.frontend.FrontEnd` relies on: estimate is
a pure read, signals are internally consistent, training never raises
on any (prediction, outcome) combination, and a full trace replay
yields coherent metrics.

The zoo is *auto-discovered*: every kind registered in
:mod:`repro.engine.specs` is pulled in via the verification matrix
(:mod:`repro.verify.matrix`), so registering a new estimator or
predictor kind without adding verification coverage fails this suite
-- there is no hand-maintained list to forget to update.  Estimators
that exist outside the registry (research one-offs) are appended
explicitly.
"""

import pytest

from repro.core.agreement import ComponentAgreementEstimator
from repro.core.estimator import AlwaysHighEstimator
from repro.core.frontend import FrontEnd
from repro.core.pattern import PatternEstimator
from repro.core.smith import SmithEstimator
from repro.engine.specs import EstimatorSpec, PolicySpec, PredictorSpec
from repro.predictors.hybrid import make_baseline_hybrid
from repro.predictors.local import LocalPredictor
from repro.verify.matrix import (
    CASES,
    VerifyError,
    assert_full_coverage,
    missing_estimator_kinds,
    missing_policy_kinds,
    missing_predictor_kinds,
    specs_for_estimator_kind,
    specs_for_predictor_kind,
)

ESTIMATOR_KINDS = EstimatorSpec.kinds()
PREDICTOR_KINDS = PredictorSpec.kinds()


def estimator_factories():
    """(label, factory) for every estimator; factories build fresh
    instances plus the predictor the front-end should use (None = any).

    Registered kinds come from the verification matrix; the rest of the
    zoo (not spec-registered) is listed explicitly below.
    """
    cases = []
    for kind in ESTIMATOR_KINDS:
        label, spec = specs_for_estimator_kind(kind)[0]
        cases.append(
            (f"kind:{kind}", lambda spec=spec: (spec.build(), None))
        )

    def smith():
        hybrid = make_baseline_hybrid()
        return SmithEstimator(hybrid), hybrid

    def agreement():
        hybrid = make_baseline_hybrid()
        return ComponentAgreementEstimator(hybrid), hybrid

    cases += [
        ("pattern", lambda: (PatternEstimator(LocalPredictor()), None)),
        ("smith", smith),
        ("component-agreement", agreement),
    ]
    return cases


IDS = [label for label, _ in estimator_factories()]
FACTORIES = [factory for _, factory in estimator_factories()]


@pytest.fixture(params=FACTORIES, ids=IDS)
def estimator_and_predictor(request):
    estimator, predictor = request.param()
    return estimator, predictor or make_baseline_hybrid()


class TestProtocolConformance:
    def test_estimate_is_consistent_signal(self, estimator_and_predictor):
        estimator, _ = estimator_and_predictor
        signal = estimator.estimate(0x400000, True)
        assert signal.low_confidence == signal.level.is_low

    def test_estimate_is_repeatable(self, estimator_and_predictor):
        """Two estimates with no intervening training must agree."""
        estimator, _ = estimator_and_predictor
        first = estimator.estimate(0x400000, True)
        second = estimator.estimate(0x400000, True)
        assert first.low_confidence == second.low_confidence
        assert first.raw == second.raw

    def test_train_accepts_all_outcomes(self, estimator_and_predictor):
        estimator, _ = estimator_and_predictor
        for prediction in (True, False):
            for correct in (True, False):
                signal = estimator.estimate(0x400000, prediction)
                estimator.train(0x400000, prediction, correct, signal)
                estimator.shift_history(prediction if correct else not prediction)

    def test_storage_bits_nonnegative(self, estimator_and_predictor):
        estimator, _ = estimator_and_predictor
        assert estimator.storage_bits >= 0
        assert estimator.storage_kib == estimator.storage_bits / 8 / 1024

    def test_full_replay_metrics_coherent(
        self, estimator_and_predictor, simple_trace
    ):
        estimator, predictor = estimator_and_predictor
        frontend = FrontEnd(predictor, estimator)
        result = frontend.replay(simple_trace, warmup=500)
        matrix = result.metrics.overall
        assert matrix.total == result.branches
        assert 0.0 <= matrix.pvn <= 1.0
        assert 0.0 <= matrix.spec <= 1.0
        assert matrix.mispredicted == result.mispredictions


@pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
class TestEstimatorStateCanonical:
    """Registered estimators expose full adaptive state for digests."""

    def test_digest_pure_under_estimate(self, kind):
        _, spec = specs_for_estimator_kind(kind)[0]
        estimator = spec.build()
        before = estimator.state_digest()
        estimator.estimate(0x400000, True)
        estimator.estimate(0x400abc, False)
        assert estimator.state_digest() == before

    def test_digest_tracks_training(self, kind, simple_trace):
        _, spec = specs_for_estimator_kind(kind)[0]
        estimator = spec.build()
        cold = estimator.state_digest()
        FrontEnd(make_baseline_hybrid(), estimator).replay(
            simple_trace.slice(0, 400)
        )
        if kind == "always_high":  # stateless by construction
            assert estimator.state_digest() == cold
        else:
            assert estimator.state_digest() != cold

    def test_two_fresh_instances_agree(self, kind):
        _, spec = specs_for_estimator_kind(kind)[0]
        assert spec.build().state_digest() == spec.build().state_digest()


@pytest.mark.parametrize("kind", PREDICTOR_KINDS)
class TestPredictorConformance:
    """Registered predictors: protocol plus canonical state."""

    def test_replay_and_state_digest(self, kind, simple_trace):
        _, spec = specs_for_predictor_kind(kind)[0]
        predictor = spec.build()
        cold = predictor.state_digest()
        for record in simple_trace.slice(0, 400):
            prediction = predictor.predict(record.pc)
            predictor.update(record.pc, record.taken, prediction)
        assert predictor.state_digest() != cold

    def test_predict_is_pure(self, kind):
        _, spec = specs_for_predictor_kind(kind)[0]
        predictor = spec.build()
        before = predictor.state_digest()
        predictor.predict(0x400000)
        predictor.predict(0x400f00)
        assert predictor.state_digest() == before

    def test_two_fresh_instances_agree(self, kind):
        _, spec = specs_for_predictor_kind(kind)[0]
        assert spec.build().state_digest() == spec.build().state_digest()


class TestRegistryCoverage:
    """Registering a kind without verification coverage fails here."""

    def test_every_estimator_kind_covered(self):
        assert missing_estimator_kinds() == []

    def test_every_predictor_kind_covered(self):
        assert missing_predictor_kinds() == []

    def test_every_policy_kind_covered(self):
        assert missing_policy_kinds() == []

    def test_full_coverage_assertion_passes(self):
        assert_full_coverage()

    def test_matrix_labels_unique(self):
        labels = [case.label for case in CASES]
        assert len(labels) == len(set(labels))

    def test_unregistered_estimator_kind_fails_suite(self):
        """A freshly registered kind must be reported as uncovered."""

        @EstimatorSpec.register("conformance_dummy")
        def _build_dummy():  # pragma: no cover - never built
            return AlwaysHighEstimator()

        try:
            assert "conformance_dummy" in missing_estimator_kinds()
            with pytest.raises(VerifyError):
                assert_full_coverage()
            with pytest.raises(VerifyError):
                specs_for_estimator_kind("conformance_dummy")
        finally:
            del EstimatorSpec._registry["conformance_dummy"]

    def test_unregistered_policy_kind_fails_suite(self):
        @PolicySpec.register("conformance_dummy_policy")
        def _build_dummy_policy():  # pragma: no cover - never built
            raise AssertionError

        try:
            assert "conformance_dummy_policy" in missing_policy_kinds()
            with pytest.raises(VerifyError):
                assert_full_coverage()
        finally:
            del PolicySpec._registry["conformance_dummy_policy"]
