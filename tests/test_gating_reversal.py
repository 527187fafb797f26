"""Unit tests for the speculation policies (gating and reversal)."""

from repro.core.reversal import (
    BranchAction,
    GatingOnlyPolicy,
    NoSpeculationControl,
    ThreeRegionPolicy,
)
from repro.core.types import ConfidenceSignal


class TestPolicies:
    def test_no_control(self):
        policy = NoSpeculationControl()
        d = policy.decide(ConfidenceSignal.strong_low(100.0), True)
        assert d.action is BranchAction.NORMAL
        assert d.final_prediction is True

    def test_gating_only(self):
        policy = GatingOnlyPolicy()
        low = policy.decide(ConfidenceSignal.weak_low(5.0), False)
        assert low.action is BranchAction.GATE
        assert low.final_prediction is False
        high = policy.decide(ConfidenceSignal.high(-50.0), True)
        assert high.action is BranchAction.NORMAL

    def test_gating_only_gates_strong_too(self):
        policy = GatingOnlyPolicy()
        d = policy.decide(ConfidenceSignal.strong_low(100.0), True)
        assert d.action is BranchAction.GATE

    def test_three_region(self):
        policy = ThreeRegionPolicy()
        strong = policy.decide(ConfidenceSignal.strong_low(100.0), True)
        assert strong.action is BranchAction.REVERSE
        assert strong.final_prediction is False  # inverted
        weak = policy.decide(ConfidenceSignal.weak_low(-20.0), True)
        assert weak.action is BranchAction.GATE
        assert weak.final_prediction is True
        high = policy.decide(ConfidenceSignal.high(-200.0), False)
        assert high.action is BranchAction.NORMAL
        assert high.final_prediction is False
