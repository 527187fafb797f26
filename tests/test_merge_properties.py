"""Property tests: accumulators must merge like a monoid.

The segmented executor relies on two algebraic facts about the metrics
layer, checked here with hypothesis over arbitrary event streams and
cut points:

- **associativity** -- how a stream is split into segments cannot
  change the merged result;
- **order independence of the counters** -- the confusion-matrix and
  counter fields commute (the ordered raw-output lists are the one
  documented exception: they concatenate in operand order, which is
  exactly what in-order segment merging needs).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frontend import FrontEndEvent, FrontEndResult, aggregate_event
from repro.core.metrics import MetricsCollector
from repro.core.reversal import BranchAction, PolicyDecision
from repro.core.types import ConfidenceSignal

_ACTIONS = (BranchAction.NORMAL, BranchAction.GATE, BranchAction.REVERSE)


@st.composite
def events(draw):
    pc = draw(st.sampled_from([0x400, 0x404, 0x408, 0x40C]))
    taken = draw(st.booleans())
    prediction = draw(st.booleans())
    action = draw(st.sampled_from(_ACTIONS))
    final = (not prediction) if action is BranchAction.REVERSE else prediction
    level = draw(st.integers(min_value=0, max_value=2))
    raw = float(draw(st.integers(min_value=-64, max_value=64)))
    ctor = (
        ConfidenceSignal.high,
        ConfidenceSignal.weak_low,
        ConfidenceSignal.strong_low,
    )[level]
    return FrontEndEvent(
        pc=pc,
        taken=taken,
        prediction=prediction,
        final_prediction=final,
        signal=ctor(raw),
        decision=PolicyDecision(action, final),
        uops_before=draw(st.integers(min_value=0, max_value=20)),
    )


def _fold(stream, collect_outputs=True):
    result = FrontEndResult()
    for event in stream:
        aggregate_event(result, event, collect_outputs)
    return result


def _counters(result):
    return (
        result.branches,
        result.mispredictions,
        result.final_mispredictions,
        result.reversals,
        result.reversals_correcting,
        result.reversals_breaking,
        result.metrics.overall.as_dict(),
    )


class TestFrontEndResultMerge:
    @given(
        stream=st.lists(events(), max_size=60),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_segmentation_merges_to_monolithic(self, stream, data):
        monolithic = _fold(stream)
        cut_a = data.draw(st.integers(min_value=0, max_value=len(stream)))
        cut_b = data.draw(st.integers(min_value=cut_a, max_value=len(stream)))
        merged = (
            _fold(stream[:cut_a])
            .merge(_fold(stream[cut_a:cut_b]))
            .merge(_fold(stream[cut_b:]))
        )
        assert _counters(merged) == _counters(monolithic)
        assert merged.outputs_correct == monolithic.outputs_correct
        assert merged.outputs_mispredicted == monolithic.outputs_mispredicted

    @given(
        stream=st.lists(events(), max_size=60),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_is_associative(self, stream, data):
        cut_a = data.draw(st.integers(min_value=0, max_value=len(stream)))
        cut_b = data.draw(st.integers(min_value=cut_a, max_value=len(stream)))
        a = _fold(stream[:cut_a])
        b = _fold(stream[cut_a:cut_b])
        c = _fold(stream[cut_b:])
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert _counters(left) == _counters(right)
        assert left.outputs_correct == right.outputs_correct
        assert left.outputs_mispredicted == right.outputs_mispredicted

    @given(stream_a=st.lists(events(), max_size=40),
           stream_b=st.lists(events(), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_counters_commute(self, stream_a, stream_b):
        a, b = _fold(stream_a), _fold(stream_b)
        assert _counters(a.merge(b)) == _counters(b.merge(a))

    def test_merge_leaves_operands_untouched(self):
        a = FrontEndResult(branches=3, mispredictions=1)
        b = FrontEndResult(branches=2)
        a.merge(b)
        assert (a.branches, b.branches) == (3, 2)


class TestMetricsCollectorMerge:
    @given(
        records=st.lists(
            st.tuples(
                st.sampled_from([0x10, 0x20, 0x30]),
                st.booleans(),
                st.booleans(),
            ),
            max_size=50,
        ),
        data=st.data(),
        per_pc=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_segmented_recording_merges_exactly(self, records, data, per_pc):
        cut = data.draw(st.integers(min_value=0, max_value=len(records)))
        monolithic = MetricsCollector(track_per_pc=per_pc)
        for pc, low, mis in records:
            monolithic.record(pc, low, mis)

        first = MetricsCollector(track_per_pc=per_pc)
        second = MetricsCollector(track_per_pc=per_pc)
        for pc, low, mis in records[:cut]:
            first.record(pc, low, mis)
        for pc, low, mis in records[cut:]:
            second.record(pc, low, mis)
        merged = first.merge(second)

        assert merged.overall.as_dict() == monolithic.overall.as_dict()
        assert {
            pc: m.as_dict() for pc, m in merged.per_pc.items()
        } == {pc: m.as_dict() for pc, m in monolithic.per_pc.items()}
