"""Unit tests for the front-end coupling (repro.core.frontend)."""

import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimator import AlwaysHighEstimator
from repro.core.frontend import (
    FrontEnd,
    FrontEndEvent,
    FrontEndEvents,
    FrontEndResult,
    aggregate_event,
    apply_policy,
)
from repro.core.jrs import JRSEstimator
from repro.core.perceptron_estimator import PerceptronConfidenceEstimator
from repro.core.reversal import (
    BranchAction,
    GatingOnlyPolicy,
    NoSpeculationControl,
    PolicyDecision,
    ThreeRegionPolicy,
)
from repro.core.types import ConfidenceLevel, ConfidenceSignal
from repro.predictors.hybrid import make_baseline_hybrid
from repro.predictors.static import AlwaysTakenPredictor
from repro.trace.record import BranchRecord, Trace


def two_branch_trace(n=200):
    records = []
    for i in range(n):
        records.append(BranchRecord(pc=0x40, taken=True, uops_before=7))
        records.append(BranchRecord(pc=0x44, taken=False, uops_before=7))
    return Trace(records, name="two")


class TestProcess:
    def test_event_fields(self):
        fe = FrontEnd(AlwaysTakenPredictor(), AlwaysHighEstimator())
        ev = fe.process(BranchRecord(pc=0x40, taken=False, uops_before=3))
        assert ev.pc == 0x40
        assert ev.prediction is True
        assert ev.final_prediction is True
        assert not ev.predictor_correct
        assert not ev.final_correct
        assert ev.uops_before == 3
        assert ev.decision.action is BranchAction.NORMAL

    def test_predictor_trains_through_frontend(self):
        fe = FrontEnd(make_baseline_hybrid(), AlwaysHighEstimator())
        result = fe.replay(two_branch_trace(), warmup=40)
        assert result.misprediction_rate < 0.05

    def test_estimator_history_shifts(self):
        est = PerceptronConfidenceEstimator()
        fe = FrontEnd(AlwaysTakenPredictor(), est)
        fe.process(BranchRecord(pc=0x40, taken=True))
        assert est.history.bits == 1


class TestRun:
    def test_warmup_excluded_from_metrics(self):
        fe = FrontEnd(make_baseline_hybrid(), JRSEstimator())
        trace = two_branch_trace(50)
        full = fe.replay(trace)
        assert full.branches == len(trace)
        fe2 = FrontEnd(make_baseline_hybrid(), JRSEstimator())
        warm = fe2.replay(trace, warmup=60)
        assert warm.branches == len(trace) - 60

    def test_identical_replays_compare_equal(self, simple_trace):
        """A result compares by value, its confusion matrix included."""

        def replay(threshold):
            estimator = PerceptronConfidenceEstimator(threshold=threshold)
            return FrontEnd(make_baseline_hybrid(), estimator).replay(
                simple_trace, warmup=600
            )

        first, second, looser = replay(0), replay(0), replay(-50)
        assert first is not second
        assert first == second
        assert first.matrix.total == first.branches
        assert looser.branches == first.branches
        assert looser.matrix != first.matrix
        assert looser != first

    def test_negative_warmup_rejected(self):
        fe = FrontEnd(AlwaysTakenPredictor(), AlwaysHighEstimator())
        with pytest.raises(ValueError):
            fe.replay(two_branch_trace(), warmup=-1)

    @pytest.mark.parametrize(
        "config",
        [
            pytest.param(
                lambda: FrontEnd(make_baseline_hybrid(), JRSEstimator()),
                id="jrs-no-policy",
            ),
            pytest.param(
                lambda: FrontEnd(
                    make_baseline_hybrid(),
                    PerceptronConfidenceEstimator(
                        threshold=-75, strong_threshold=0
                    ),
                    ThreeRegionPolicy(),
                ),
                id="perceptron-three-region",
            ),
            pytest.param(
                lambda: FrontEnd(
                    make_baseline_hybrid(),
                    PerceptronConfidenceEstimator(threshold=-25),
                    GatingOnlyPolicy(),
                    collect_outputs=True,
                ),
                id="perceptron-gating-outputs",
            ),
        ],
    )
    def test_events_list_receives_post_warmup_events(self, config, simple_trace):
        """``replay``'s columns and result equal those of ``process``."""
        warmup = 600
        events, result = config().replay(simple_trace, warmup=warmup, events=True)
        fe = config()
        processed = [fe.process(record) for record in simple_trace][warmup:]
        expected = FrontEndResult()
        for event in processed:
            aggregate_event(expected, event, fe.collect_outputs)
        assert isinstance(events, FrontEndEvents)
        assert events == FrontEndEvents.of(processed)
        assert result == expected
        assert result.branches == len(events) == len(simple_trace) - warmup
        if isinstance(fe.policy, ThreeRegionPolicy):
            assert result.reversals_correcting and result.reversals_breaking
        if fe.collect_outputs:
            assert result.outputs_correct and result.outputs_mispredicted

    def test_always_high_estimator_never_flags(self, simple_trace):
        fe = FrontEnd(make_baseline_hybrid(), AlwaysHighEstimator())
        result = fe.replay(simple_trace)
        assert result.matrix.flagged_low == 0
        assert result.matrix.spec == 0.0

    def test_collect_outputs(self, simple_trace):
        fe = FrontEnd(
            make_baseline_hybrid(),
            PerceptronConfidenceEstimator(),
            collect_outputs=True,
        )
        result = fe.replay(simple_trace, warmup=500)
        total = len(result.outputs_correct) + len(result.outputs_mispredicted)
        assert total == result.branches


class TestReversalAccounting:
    def test_correcting_and_breaking_counts(self):
        # Estimator that always reports strong-low forces reversal of
        # every branch: reversals fix mispredictions and break correct
        # predictions symmetrically.
        class AlwaysStrongLow(AlwaysHighEstimator):
            def estimate(self, pc, prediction):
                from repro.core.types import ConfidenceSignal

                return ConfidenceSignal.strong_low(100.0)

        fe = FrontEnd(
            AlwaysTakenPredictor(), AlwaysStrongLow(), ThreeRegionPolicy()
        )
        result = fe.replay(two_branch_trace(50))
        assert result.reversals == 100
        # taken branches were predicted correctly -> broken by reversal;
        # not-taken branches were mispredicted -> fixed.
        assert result.reversals_correcting == 50
        assert result.reversals_breaking == 50
        assert result.final_mispredictions == 50


class TestApplyPolicy:
    def test_reclassifies_decisions(self, simple_trace):
        fe = FrontEnd(make_baseline_hybrid(), JRSEstimator(threshold=7))
        events = [fe.process(r) for r in simple_trace]
        gated = apply_policy(events, GatingOnlyPolicy())
        assert len(gated) == len(events)
        n_gate = sum(1 for e in gated if e.decision.action is BranchAction.GATE)
        n_low = sum(1 for e in events if e.signal.low_confidence)
        assert n_gate == n_low

    def test_baseline_strip(self, simple_trace):
        fe = FrontEnd(
            make_baseline_hybrid(), JRSEstimator(threshold=7), GatingOnlyPolicy()
        )
        events = [fe.process(r) for r in simple_trace]
        stripped = apply_policy(events, NoSpeculationControl())
        assert all(e.decision.action is BranchAction.NORMAL for e in stripped)
        # Predictions and signals are untouched.
        for orig, new in zip(events, stripped):
            assert orig.prediction == new.prediction
            assert orig.signal is new.signal


# ---------------------------------------------------------------------------
# FrontEndEvents: the column form of an event stream
# ---------------------------------------------------------------------------


@st.composite
def _event(draw):
    """Any event a policy can produce: three actions, three levels,
    ``int`` or ``float`` raw outputs, reversals follow the other way."""
    level = draw(st.sampled_from(list(ConfidenceLevel)))
    action = draw(st.sampled_from(list(BranchAction)))
    prediction = draw(st.booleans())
    final = (not prediction) if action is BranchAction.REVERSE else prediction
    raw = draw(
        st.one_of(st.integers(-300, 300), st.floats(allow_nan=False))
    )
    return FrontEndEvent(
        pc=draw(st.integers(0, 2**40)),
        taken=draw(st.booleans()),
        prediction=prediction,
        final_prediction=final,
        signal=ConfidenceSignal(level.is_low, raw, level),
        decision=PolicyDecision(action, final),
        uops_before=draw(st.integers(0, 40)),
    )


def _typed(event):
    """Every nested field with its type; floats by their bits."""

    def exact(value):
        return (type(value), value.hex() if isinstance(value, float) else value)

    signal, decision = event.signal, event.decision
    return tuple(
        exact(value)
        for value in (
            event.pc,
            event.taken,
            event.prediction,
            event.final_prediction,
            signal.low_confidence,
            signal.raw,
            signal.level,
            decision.action,
            decision.final_prediction,
            event.uops_before,
        )
    )


class TestFrontEndEvents:
    @settings(max_examples=200, deadline=None)
    @given(events=st.lists(_event(), max_size=60))
    def test_round_trip_keeps_every_field_and_type(self, events):
        columns = FrontEndEvents.of(events)
        rebuilt = list(columns)
        assert rebuilt == events
        assert [_typed(e) for e in rebuilt] == [_typed(e) for e in events]
        assert FrontEndEvents.of(iter(events)) == columns
        assert FrontEndEvents.of(columns) is columns

    @settings(max_examples=200, deadline=None)
    @given(events=st.lists(_event(), max_size=40), data=st.data())
    def test_len_indexing_and_slicing_agree_with_the_list(self, events, data):
        columns = FrontEndEvents.of(events)
        n = len(events)
        assert len(columns) == n
        for i in range(-n, n):
            assert _typed(columns[i]) == _typed(events[i])
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                columns[i]
        part = data.draw(st.slices(n))
        sliced = columns[part]
        assert isinstance(sliced, FrontEndEvents)
        assert sliced == FrontEndEvents.of(events[part])
        assert [_typed(e) for e in sliced] == [_typed(e) for e in events[part]]

    @settings(max_examples=100, deadline=None)
    @given(events=st.lists(_event(), max_size=40))
    def test_pickle_round_trip(self, events):
        columns = FrontEndEvents.of(events)
        restored = pickle.loads(
            pickle.dumps(columns, protocol=pickle.HIGHEST_PROTOCOL)
        )
        assert isinstance(restored, FrontEndEvents)
        assert restored == columns
        assert [_typed(e) for e in restored] == [_typed(e) for e in events]

    @settings(max_examples=100, deadline=None)
    @given(events=st.lists(_event(), min_size=1, max_size=20), data=st.data())
    def test_unequal_columns_compare_unequal(self, events, data):
        i = data.draw(st.integers(0, len(events) - 1))
        changed = list(events)
        changed[i] = replace(events[i], uops_before=events[i].uops_before + 1)
        assert FrontEndEvents.of(changed) != FrontEndEvents.of(events)
        assert FrontEndEvents.of(events[:-1]) != FrontEndEvents.of(events)

    @settings(max_examples=100, deadline=None)
    @given(events=st.lists(_event(), max_size=20), data=st.data())
    def test_of_rejects_a_decision_that_disagrees(self, events, data):
        good = data.draw(_event())
        bad = FrontEndEvent(
            pc=good.pc,
            taken=good.taken,
            prediction=good.prediction,
            final_prediction=good.final_prediction,
            signal=good.signal,
            decision=PolicyDecision(
                good.decision.action, not good.final_prediction
            ),
            uops_before=good.uops_before,
        )
        at = data.draw(st.integers(0, len(events)))
        with pytest.raises(ValueError, match=f"event {at}:"):
            FrontEndEvents.of(events[:at] + [bad] + events[at:])

    def test_columns_must_have_one_length(self):
        with pytest.raises(ValueError, match="differ in length"):
            FrontEndEvents([1], [True], [True], [True], [], [], [], [])
