"""Front-end coupling of predictor, confidence estimator and policy.

:class:`FrontEnd` replays a trace through the per-branch protocol the
paper describes: predict in the front-end, estimate confidence on the
prediction, let the speculation policy act (gate / reverse / nothing),
then train everything non-speculatively at retirement.  It produces the
confusion-matrix metrics of Section 2.2 and, optionally, the raw
per-branch events and perceptron outputs that feed the Figure 4-7
density analysis and the pipeline simulator.

A replay keeps its post-warm-up events as :class:`FrontEndEvents`: eight
columns that build :class:`FrontEndEvent` objects only when read.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Tuple, Union

from repro.core.estimator import ConfidenceEstimator
from repro.core.metrics import ConfidenceMatrix
from repro.core.reversal import (
    BranchAction,
    NoSpeculationControl,
    PolicyDecision,
    SpeculationPolicy,
)
from repro.core.types import ConfidenceLevel, ConfidenceSignal
from repro.predictors.base import BranchPredictor
from repro.trace.record import BranchRecord, Trace

__all__ = [
    "FrontEndEvent",
    "FrontEndEvents",
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


#: Column names of :class:`FrontEndEvents`, in constructor order.
_COLUMNS = (
    "pc",
    "taken",
    "prediction",
    "final_prediction",
    "action",
    "level",
    "raw",
    "uops_before",
)

_new = object.__new__
_HIGH = ConfidenceLevel.HIGH


def _event(pc, taken, prediction, final, action, level, raw, uops) -> FrontEndEvent:
    """One event from its column values.

    The three frozen dataclasses are filled through their ``__dict__``,
    in field order, which is what their ``__init__`` does minus one
    ``object.__setattr__`` call per field (about 3x cheaper).  Nothing
    is shared between events, so an ``int`` and a ``float`` ``raw`` of
    equal value keep their own types.
    """
    signal = _new(ConfidenceSignal)
    d = signal.__dict__
    d["low_confidence"] = level is not _HIGH
    d["raw"] = raw
    d["level"] = level
    decision = _new(PolicyDecision)
    d = decision.__dict__
    d["action"] = action
    d["final_prediction"] = final
    event = _new(FrontEndEvent)
    d = event.__dict__
    d["pc"] = pc
    d["taken"] = taken
    d["prediction"] = prediction
    d["final_prediction"] = final
    d["signal"] = signal
    d["decision"] = decision
    d["uops_before"] = uops
    return event


class FrontEndEvents(Sequence):
    """A read-only sequence of :class:`FrontEndEvent`, held as columns.

    A replay's post-warm-up events as eight equal-length lists: ``pc``,
    ``taken``, ``prediction``, ``final_prediction``, ``action``
    (:class:`~repro.core.reversal.BranchAction`), ``level``
    (:class:`~repro.core.types.ConfidenceLevel`), ``raw`` (the
    estimator's raw output, ``int`` or ``float``) and ``uops_before``.
    An event's ``signal.low_confidence`` follows from its level and its
    ``decision.final_prediction`` is its ``final_prediction``, so the
    columns hold all of it.

    Most readers want a few columns, not events: the pipeline timing
    model reads six of them, and the Table 3 metrics none.  Event
    objects are built only when the sequence is iterated or indexed,
    afresh on every read.  Slicing gives another column sequence.  Two
    sequences compare equal when their columns do, which is when their
    events do.  Pickling stores the columns.

    The columns are not copied, and nothing may change them after
    construction: several sequences may share one list.
    """

    __slots__ = _COLUMNS

    def __init__(
        self,
        pc: List[int],
        taken: List[bool],
        prediction: List[bool],
        final_prediction: List[bool],
        action: List[BranchAction],
        level: List[ConfidenceLevel],
        raw: List[float],
        uops_before: List[int],
    ):
        columns = (
            pc, taken, prediction, final_prediction, action, level, raw, uops_before,
        )
        n = len(pc)
        if any(len(column) != n for column in columns):
            lengths = {name: len(c) for name, c in zip(_COLUMNS, columns)}
            raise ValueError(f"event columns differ in length: {lengths}")
        self.pc = pc
        self.taken = taken
        self.prediction = prediction
        self.final_prediction = final_prediction
        self.action = action
        self.level = level
        self.raw = raw
        self.uops_before = uops_before

    @classmethod
    def of(cls, events: Iterable[FrontEndEvent]) -> "FrontEndEvents":
        """``events`` as columns: a column sequence as is, else one pass.

        Raises :class:`ValueError` for an event whose
        ``decision.final_prediction`` differs from its
        ``final_prediction``: the columns keep only one of them.
        """
        if isinstance(events, FrontEndEvents):
            return events
        if not isinstance(events, list):
            events = list(events)
        final = [e.final_prediction for e in events]
        decided = [e.decision.final_prediction for e in events]
        if final != decided:
            i = next(i for i, (a, b) in enumerate(zip(final, decided)) if a != b)
            raise ValueError(
                f"event {i}: final_prediction={final[i]!r} but its "
                f"decision.final_prediction={decided[i]!r}"
            )
        signals = [e.signal for e in events]
        return cls(
            pc=[e.pc for e in events],
            taken=[e.taken for e in events],
            prediction=[e.prediction for e in events],
            final_prediction=final,
            action=[e.decision.action for e in events],
            level=[s.level for s in signals],
            raw=[s.raw for s in signals],
            uops_before=[e.uops_before for e in events],
        )

    def _columns(self) -> tuple:
        return tuple(getattr(self, name) for name in _COLUMNS)

    def __len__(self) -> int:
        return len(self.pc)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return FrontEndEvents(*(column[index] for column in self._columns()))
        return _event(*(column[index] for column in self._columns()))

    def __iter__(self) -> Iterator[FrontEndEvent]:
        return map(_event, *self._columns())

    def __eq__(self, other) -> bool:
        if not isinstance(other, FrontEndEvents):
            return NotImplemented
        return self._columns() == other._columns()

    def __reduce__(self):
        return FrontEndEvents, self._columns()

    def __repr__(self) -> str:
        return f"FrontEndEvents(<{len(self)} events>)"


@dataclass
class FrontEndResult:
    """Aggregates of one trace replay."""

    branches: int = 0
    mispredictions: int = 0
    final_mispredictions: int = 0
    reversals: int = 0
    reversals_correcting: int = 0  # reversal fixed a would-be mispredict
    reversals_breaking: int = 0  # reversal broke a correct prediction
    matrix: ConfidenceMatrix = field(default_factory=ConfidenceMatrix)
    # Raw perceptron outputs split by predictor outcome, populated only
    # when collect_outputs=True (the Figure 4-7 inputs).
    outputs_correct: List[float] = field(default_factory=list)
    outputs_mispredicted: List[float] = field(default_factory=list)

    @property
    def misprediction_rate(self) -> float:
        """Raw predictor misprediction rate."""
        return self.mispredictions / self.branches if self.branches else 0.0


def _fold(
    res: FrontEndResult,
    taken: bool,
    prediction: bool,
    final: bool,
    action: BranchAction,
    signal: ConfidenceSignal,
    collect_outputs: bool,
) -> None:
    """Fold one post-warm-up branch into a result (see :func:`aggregate_event`)."""
    correct = prediction == taken
    res.branches += 1
    if not correct:
        res.mispredictions += 1
    if final != taken:
        res.final_mispredictions += 1
    if action is BranchAction.REVERSE:
        res.reversals += 1
        if not correct and final == taken:
            res.reversals_correcting += 1
        elif correct and final != taken:
            res.reversals_breaking += 1
    res.matrix.record(signal.low_confidence, not correct)
    if collect_outputs:
        if correct:
            res.outputs_correct.append(signal.raw)
        else:
            res.outputs_mispredicted.append(signal.raw)


def aggregate_event(
    res: FrontEndResult, event: FrontEndEvent, collect_outputs: bool = False
) -> None:
    """Fold one event into a result.

    A pure function of ``(event, collect_outputs)``: it reads no
    front-end state, and it folds exactly as :meth:`FrontEnd.replay`
    does, through the same code.
    """
    _fold(
        res,
        event.taken,
        event.prediction,
        event.final_prediction,
        event.decision.action,
        event.signal,
        collect_outputs,
    )


class FrontEnd:
    """Replays traces through predictor + estimator + policy.

    Args:
        predictor: Baseline branch predictor (trained on direction).
        estimator: Confidence estimator (trained per its own scheme).
        policy: Speculation policy; defaults to no control.
        collect_outputs: Record raw estimator outputs split by
            prediction outcome (needed by the density figures).

    The estimator trains on the correctness of the raw prediction, not
    of the followed (possibly reversed) one, as in the paper: it models
    the predictor, not the policy.
    """

    def __init__(
        self,
        predictor: BranchPredictor,
        estimator: ConfidenceEstimator,
        policy: Optional[SpeculationPolicy] = None,
        collect_outputs: bool = False,
    ):
        self.predictor = predictor
        self.estimator = estimator
        self.policy = policy if policy is not None else NoSpeculationControl()
        self.collect_outputs = collect_outputs

    def process(self, record: BranchRecord) -> FrontEndEvent:
        """Run one dynamic branch through the full protocol."""
        pc = record.pc
        taken = record.taken
        prediction, signal, decision = self._step(pc, taken)
        return FrontEndEvent(
            pc=pc,
            taken=taken,
            prediction=prediction,
            final_prediction=decision.final_prediction,
            signal=signal,
            decision=decision,
            uops_before=record.uops_before,
        )

    def _step(
        self, pc: int, taken: bool
    ) -> Tuple[bool, ConfidenceSignal, PolicyDecision]:
        """The per-branch protocol: ``(prediction, signal, decision)``."""
        prediction = self.predictor.predict(pc)
        signal = self.estimator.estimate(pc, prediction)
        decision = self.policy.decide(signal, prediction)

        # Retirement: train predictor and estimator, shift histories.
        self.predictor.update(pc, taken, prediction)
        self.estimator.train(pc, prediction, prediction == taken, signal)
        self.estimator.shift_history(taken)
        return prediction, signal, decision

    def replay(
        self,
        records: Iterable[BranchRecord],
        warmup: int = 0,
        events: bool = False,
    ) -> Union[FrontEndResult, Tuple[FrontEndEvents, FrontEndResult]]:
        """Replay a record stream, aggregating metrics.

        Accepts any iterable of records -- a
        :class:`~repro.trace.record.Trace`, whose columns it reads
        without building records, or a lazy generator stream -- and,
        unless ``events`` is set, holds no per-record state beyond the
        accumulators, so memory stays bounded by the source.

        Args:
            records: Input branch records, in program order.
            warmup: Leading branches that train all structures but are
                excluded from the metrics (the paper warms 10M of each
                30M-instruction trace).
            events: Also keep the post-warm-up events, in program
                order, as :class:`FrontEndEvents` columns, written
                branch by branch without building event objects.

        Returns:
            The :class:`FrontEndResult`, or ``(events, result)`` when
            ``events`` is set.
        """
        if warmup < 0:
            raise ValueError(f"warmup must be non-negative, got {warmup}")
        if isinstance(records, Trace):
            rows = zip(records.pc, records.taken, records.uops_before)
        else:
            rows = ((r.pc, r.taken, r.uops_before) for r in records)
        res = FrontEndResult()
        step = self._step
        collect = self.collect_outputs
        if events:
            columns = tuple([] for _ in _COLUMNS)
            pcs, takens, predictions, finals, actions, levels, raws, uops = (
                column.append for column in columns
            )
        for i, (pc, taken, uops_before) in enumerate(rows):
            prediction, signal, decision = step(pc, taken)
            if i < warmup:
                continue
            final = decision.final_prediction
            action = decision.action
            _fold(res, taken, prediction, final, action, signal, collect)
            if events:
                pcs(pc)
                takens(taken)
                predictions(prediction)
                finals(final)
                actions(action)
                levels(signal.level)
                raws(signal.raw)
                uops(uops_before)
        if events:
            return FrontEndEvents(*columns), res
        return res


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
