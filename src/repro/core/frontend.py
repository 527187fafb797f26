"""Front-end coupling of predictor, confidence estimator and policy.

:class:`FrontEnd` replays a trace through the per-branch protocol the
paper describes: predict in the front-end, estimate confidence on the
prediction, let the speculation policy act (gate / reverse / nothing),
then train everything non-speculatively at retirement.  It produces the
confusion-matrix metrics of Section 2.2 and, optionally, the raw
per-branch events and perceptron outputs that feed the Figure 4-7
density analysis and the pipeline simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from repro.core.estimator import ConfidenceEstimator
from repro.core.metrics import MetricsCollector
from repro.core.reversal import (
    BranchAction,
    NoSpeculationControl,
    PolicyDecision,
    SpeculationPolicy,
)
from repro.core.types import ConfidenceSignal
from repro.predictors.base import BranchPredictor
from repro.trace.record import BranchRecord, Trace

__all__ = [
    "FrontEndEvent",
    "FrontEndResult",
    "FrontEnd",
    "aggregate_event",
    "apply_policy",
]


@dataclass(frozen=True)
class FrontEndEvent:
    """Everything observed for one dynamic branch.

    Attributes:
        pc: Branch address.
        taken: Resolved direction.
        prediction: Raw predictor output.
        final_prediction: Direction followed after the policy acted
            (differs from ``prediction`` only on reversal).
        signal: Confidence estimate for ``prediction``.
        decision: Policy verdict.
        uops_before: Non-branch uops preceding the branch (for the
            pipeline model).
    """

    pc: int
    taken: bool
    prediction: bool
    final_prediction: bool
    signal: ConfidenceSignal
    decision: PolicyDecision
    uops_before: int

    @property
    def predictor_correct(self) -> bool:
        """Did the raw prediction match the outcome?"""
        return self.prediction == self.taken

    @property
    def final_correct(self) -> bool:
        """Did the followed direction match the outcome?"""
        return self.final_prediction == self.taken


@dataclass
class FrontEndResult:
    """Aggregates of one trace replay."""

    branches: int = 0
    mispredictions: int = 0
    final_mispredictions: int = 0
    reversals: int = 0
    reversals_correcting: int = 0  # reversal fixed a would-be mispredict
    reversals_breaking: int = 0  # reversal broke a correct prediction
    metrics: MetricsCollector = field(default_factory=MetricsCollector)
    # Raw perceptron outputs split by predictor outcome, populated only
    # when collect_outputs=True (the Figure 4-7 inputs).
    outputs_correct: List[float] = field(default_factory=list)
    outputs_mispredicted: List[float] = field(default_factory=list)

    @property
    def misprediction_rate(self) -> float:
        """Raw predictor misprediction rate."""
        return self.mispredictions / self.branches if self.branches else 0.0

    @property
    def final_misprediction_rate(self) -> float:
        """Misprediction rate after reversal acted."""
        return self.final_mispredictions / self.branches if self.branches else 0.0

    @property
    def net_reversal_gain(self) -> int:
        """Mispredictions removed by reversal (negative = made worse)."""
        return self.reversals_correcting - self.reversals_breaking

    def merge(self, other: "FrontEndResult") -> "FrontEndResult":
        """Return a new result combining ``self`` then ``other``.

        Every counter is an integer sum (associative and commutative);
        the raw-output lists concatenate in operand order, so merging
        per-segment results in segment order reproduces the monolithic
        result exactly, including event-ordered output densities.
        """
        merged = FrontEndResult(
            branches=self.branches + other.branches,
            mispredictions=self.mispredictions + other.mispredictions,
            final_mispredictions=(
                self.final_mispredictions + other.final_mispredictions
            ),
            reversals=self.reversals + other.reversals,
            reversals_correcting=(
                self.reversals_correcting + other.reversals_correcting
            ),
            reversals_breaking=(
                self.reversals_breaking + other.reversals_breaking
            ),
            metrics=self.metrics.merge(other.metrics),
        )
        merged.outputs_correct = self.outputs_correct + other.outputs_correct
        merged.outputs_mispredicted = (
            self.outputs_mispredicted + other.outputs_mispredicted
        )
        return merged


def aggregate_event(
    res: FrontEndResult, event: FrontEndEvent, collect_outputs: bool = False
) -> None:
    """Fold one event into a result.

    A pure function of ``(event, collect_outputs)``: it reads no
    front-end state, which is what lets segmented replay defer
    aggregation to merge time (segments cache raw events; any warmup or
    output-collection setting can be applied when folding).
    """
    res.branches += 1
    if not event.predictor_correct:
        res.mispredictions += 1
    if not event.final_correct:
        res.final_mispredictions += 1
    if event.decision.action is BranchAction.REVERSE:
        res.reversals += 1
        if not event.predictor_correct and event.final_correct:
            res.reversals_correcting += 1
        elif event.predictor_correct and not event.final_correct:
            res.reversals_breaking += 1
    res.metrics.record(
        event.pc, event.signal.low_confidence, not event.predictor_correct
    )
    if collect_outputs:
        if event.predictor_correct:
            res.outputs_correct.append(event.signal.raw)
        else:
            res.outputs_mispredicted.append(event.signal.raw)


class FrontEnd:
    """Replays traces through predictor + estimator + policy.

    Args:
        predictor: Baseline branch predictor (trained on direction).
        estimator: Confidence estimator (trained per its own scheme).
        policy: Speculation policy; defaults to no control.
        collect_outputs: Record raw estimator outputs split by
            prediction outcome (needed by the density figures).
        train_estimator_on_final: If True, the estimator trains on the
            correctness of the *followed* (possibly reversed)
            prediction rather than the raw one.  The paper trains on the
            raw prediction outcome -- the estimator models the
            predictor, not the policy -- so this defaults to False and
            exists for ablation.
    """

    def __init__(
        self,
        predictor: BranchPredictor,
        estimator: ConfidenceEstimator,
        policy: Optional[SpeculationPolicy] = None,
        collect_outputs: bool = False,
        train_estimator_on_final: bool = False,
    ):
        self.predictor = predictor
        self.estimator = estimator
        self.policy = policy if policy is not None else NoSpeculationControl()
        self.collect_outputs = collect_outputs
        self.train_estimator_on_final = train_estimator_on_final

    def process(self, record: BranchRecord) -> FrontEndEvent:
        """Run one dynamic branch through the full protocol."""
        pc = record.pc
        prediction = self.predictor.predict(pc)
        signal = self.estimator.estimate(pc, prediction)
        decision = self.policy.decide(signal, prediction)

        predictor_correct = prediction == record.taken
        if self.train_estimator_on_final:
            estimator_correct = decision.final_prediction == record.taken
        else:
            estimator_correct = predictor_correct

        # Retirement: train predictor and estimator, shift histories.
        self.predictor.update(pc, record.taken, prediction)
        self.estimator.train(pc, prediction, estimator_correct, signal)
        self.estimator.shift_history(record.taken)

        return FrontEndEvent(
            pc=pc,
            taken=record.taken,
            prediction=prediction,
            final_prediction=decision.final_prediction,
            signal=signal,
            decision=decision,
            uops_before=record.uops_before,
        )

    def replay(
        self,
        records: Iterable[BranchRecord],
        warmup: int = 0,
        result: Optional[FrontEndResult] = None,
    ) -> FrontEndResult:
        """Replay a record stream, aggregating metrics.

        Accepts any iterable of records -- a materialized
        :class:`~repro.trace.record.Trace`, one segment of one, or a
        lazy generator stream -- and holds no per-record state beyond
        the accumulators, so memory stays bounded by the source.

        Args:
            records: Input branch records, in program order.
            warmup: Leading branches that train all structures but are
                excluded from the metrics (the paper warms 10M of each
                30M-instruction trace).
            result: Existing result to continue aggregating into.
        """
        if warmup < 0:
            raise ValueError(f"warmup must be non-negative, got {warmup}")
        res = result if result is not None else FrontEndResult()
        for i, record in enumerate(records):
            event = self.process(record)
            if i < warmup:
                continue
            self._aggregate(res, event)
        return res

    def events(self, trace: Trace) -> Iterable[FrontEndEvent]:
        """Yield per-branch events (the pipeline simulator's input)."""
        for record in trace:
            yield self.process(record)

    def aggregate(self, res: FrontEndResult, event: FrontEndEvent) -> None:
        """Fold one event into a result (public for streaming drivers)."""
        self._aggregate(res, event)

    def _aggregate(self, res: FrontEndResult, event: FrontEndEvent) -> None:
        aggregate_event(res, event, self.collect_outputs)


def apply_policy(events, policy: SpeculationPolicy):
    """Re-derive policy decisions over an existing event stream.

    Predictor and estimator state evolution is independent of the
    speculation policy (both train on the *raw* prediction outcome), so
    one front-end replay can serve many policy and pipeline
    configurations: strip the decisions and let a different policy
    re-decide.  Returns a new list of events.
    """
    out = []
    for event in events:
        decision = policy.decide(event.signal, event.prediction)
        out.append(
            FrontEndEvent(
                pc=event.pc,
                taken=event.taken,
                prediction=event.prediction,
                final_prediction=decision.final_prediction,
                signal=event.signal,
                decision=decision,
                uops_before=event.uops_before,
            )
        )
    return out
