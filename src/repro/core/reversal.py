"""Speculation-control policies: gating, reversal, and the combination.

A policy maps each branch's confidence signal to one of three actions:

- ``NORMAL`` -- trust the prediction, no intervention;
- ``GATE`` -- trust the prediction but count the branch toward the
  pipeline-gating low-confidence counter (Figure 1);
- ``REVERSE`` -- invert the prediction before fetch proceeds
  (selective branch inversion, [2][8]).

The paper's headline policy (Section 5.5) is the *three-region* scheme
enabled by the cic-trained perceptron's multi-valued output: reverse
when the output is above the strong threshold (mispredictions dominate
there, Figure 5), gate when it falls in the weakly-low band, and do
nothing below it.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.core.types import ConfidenceLevel, ConfidenceSignal

__all__ = [
    "BranchAction",
    "PolicyDecision",
    "SpeculationPolicy",
    "NoSpeculationControl",
    "GatingOnlyPolicy",
    "ThreeRegionPolicy",
]


class BranchAction(enum.Enum):
    """What the front-end does with a predicted branch."""

    NORMAL = "normal"
    GATE = "gate"
    REVERSE = "reverse"


@dataclass(frozen=True)
class PolicyDecision:
    """A policy's verdict for one branch.

    Attributes:
        action: The speculation-control action.
        final_prediction: The direction actually followed by fetch
            (equal to the predictor's output unless reversed).
    """

    action: BranchAction
    final_prediction: bool

    @property
    def counts_toward_gating(self) -> bool:
        """Whether this branch increments the low-confidence counter."""
        return self.action is BranchAction.GATE


class SpeculationPolicy(ABC):
    """Maps (confidence signal, prediction) to a front-end action."""

    #: Identifier used in experiment tables.
    name: str = "policy"

    @abstractmethod
    def decide(self, signal: ConfidenceSignal, prediction: bool) -> PolicyDecision:
        """Choose the action for one predicted branch."""


class NoSpeculationControl(SpeculationPolicy):
    """Baseline: always speculate on the raw prediction."""

    name = "no-control"

    def decide(self, signal: ConfidenceSignal, prediction: bool) -> PolicyDecision:
        return PolicyDecision(BranchAction.NORMAL, prediction)


class GatingOnlyPolicy(SpeculationPolicy):
    """Gate every low-confidence branch; never reverse.

    This is the Table 4 configuration for both JRS and perceptron
    estimators (the branch-counter threshold lives in
    :attr:`repro.pipeline.config.PipelineConfig.gating_threshold`, not
    here).
    """

    name = "gating-only"

    def decide(self, signal: ConfidenceSignal, prediction: bool) -> PolicyDecision:
        if signal.low_confidence:
            return PolicyDecision(BranchAction.GATE, prediction)
        return PolicyDecision(BranchAction.NORMAL, prediction)


class ThreeRegionPolicy(SpeculationPolicy):
    """Section 5.5: reverse strongly-low, gate weakly-low branches.

    Requires an estimator producing three-way
    :class:`~repro.core.types.ConfidenceLevel` signals -- in practice a
    cic-trained perceptron configured with both ``threshold`` (the
    paper uses -75) and ``strong_threshold`` (the paper uses 0).
    """

    name = "gate+reverse"

    def decide(self, signal: ConfidenceSignal, prediction: bool) -> PolicyDecision:
        if signal.level is ConfidenceLevel.STRONG_LOW:
            return PolicyDecision(BranchAction.REVERSE, not prediction)
        if signal.level is ConfidenceLevel.WEAK_LOW:
            return PolicyDecision(BranchAction.GATE, prediction)
        return PolicyDecision(BranchAction.NORMAL, prediction)
