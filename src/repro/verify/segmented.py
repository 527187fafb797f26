"""Segmented-vs-monolithic equivalence: the chain must change nothing.

The segment chain (:func:`repro.engine.replay.replay_segmented`)
promises that cutting a replay into checkpointed segments is
*invisible*: the event stream, the canonical metrics, and the final
component states are bit-identical to the monolithic replay of the same
job, for every registered configuration, on both backends, across
adversarial cut points (odd sizes, sizes that do not divide the trace,
a final short segment, a single segment covering everything).

This layer replays each verify-matrix case monolithically on the
reference front end as the oracle, then runs the segmented chain per
(backend, segment size) and compares:

- the full post-warm-up event list (``FrontEndEvent`` equality covers
  prediction, final prediction, signal and policy decision per branch);
- the canonical metrics document of the folded result;
- the final predictor/estimator state digests carried by the chain's
  outgoing checkpoint.

A fast-backend chain that silently fell back to the reference loop is
reported as a failure, exactly like the fastpath layer: every matrix
case must actually exercise the seeded columnar passes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.frontend import FrontEnd, FrontEndResult, aggregate_event
from repro.engine.cache import SegmentCache
from repro.engine.canonical import canonical_metrics
from repro.engine.job import SimJob
from repro.engine.replay import replay_segmented

__all__ = [
    "REFERENCE_SIZES",
    "FAST_SIZES",
    "SegmentedReport",
    "run_segmented_equivalence",
]

#: Cut points exercised per backend.  The reference chain is the same
#: code path at every size, so two adversarial sizes suffice (odd
#: non-divisor, and one segment larger than the quick-profile trace);
#: the fast chain's seeded columnar math is boundary-sensitive, so it
#: gets the wider sweep.
REFERENCE_SIZES: Tuple[int, ...] = (997, 4096)
FAST_SIZES: Tuple[int, ...] = (512, 997, 2499, 4096)


def _digest(state: tuple) -> str:
    return hashlib.sha256(repr(state).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SegmentedReport:
    """Outcome of one case x backend equivalence sweep."""

    label: str
    backend: str
    sizes: Tuple[int, ...]
    failure: Optional[str]  # None when every size matched

    @property
    def ok(self) -> bool:
        return self.failure is None

    def format(self) -> str:
        sizes = ",".join(str(s) for s in self.sizes)
        if self.ok:
            return f"ok   {self.label} [{self.backend}, sizes={sizes}]"
        return f"FAIL {self.label} [{self.backend}]: {self.failure}"


def _monolithic_oracle(trace, case):
    """Reference whole-trace replay: events, metrics, state digests."""
    frontend = FrontEnd(
        case.predictor.build(), case.estimator.build(), case.policy.build()
    )
    events = []
    result = FrontEndResult()
    for record in trace:
        event = frontend.process(record)
        events.append(event)
        aggregate_event(result, event, True)
    return (
        events,
        canonical_metrics(result),
        frontend.predictor.state_digest(),
        frontend.estimator.state_digest(),
    )


def _check_one(trace, case, backend: str, size: int, oracle) -> Optional[str]:
    ref_events, ref_metrics, ref_pdigest, ref_edigest = oracle
    job = SimJob(
        benchmark="segmented",
        n_branches=len(trace),
        warmup=0,
        seed=1,
        predictor=case.predictor,
        estimator=case.estimator,
        policy=case.policy,
        backend=backend,
        collect_outputs=True,
        segment_size=size,
    )
    outcome, checkpoint = replay_segmented(job, trace, cache=SegmentCache())
    if backend == "fast" and outcome.backend != "fast":
        return (
            f"size={size}: fast chain fell back to the reference loop "
            f"(every matrix case must have a seeded fast pass)"
        )
    if outcome.events != ref_events:
        first = next(
            (
                i
                for i, (seg, ref) in enumerate(zip(outcome.events, ref_events))
                if seg != ref
            ),
            min(len(outcome.events), len(ref_events)),
        )
        return f"size={size}: event stream diverges at branch {first}"
    if canonical_metrics(outcome.result) != ref_metrics:
        return f"size={size}: canonical metrics differ"
    if _digest(checkpoint.predictor_state) != ref_pdigest:
        return f"size={size}: final predictor state digest differs"
    if _digest(checkpoint.estimator_state) != ref_edigest:
        return f"size={size}: final estimator state digest differs"
    return None


def run_segmented_equivalence(
    trace,
    case,
    backends: Sequence[str] = ("reference", "fast"),
    sizes: Optional[Sequence[int]] = None,
) -> List[SegmentedReport]:
    """Sweep ``case`` over every (backend, size) against one oracle.

    The monolithic reference oracle is computed once per case and
    shared across backends; ``sizes`` overrides the per-backend
    defaults (:data:`REFERENCE_SIZES` / :data:`FAST_SIZES`) when given.
    """
    oracle = _monolithic_oracle(trace, case)
    reports: List[SegmentedReport] = []
    for backend in backends:
        backend_sizes = tuple(
            sizes
            if sizes is not None
            else (FAST_SIZES if backend == "fast" else REFERENCE_SIZES)
        )
        failure = None
        for size in backend_sizes:
            failure = _check_one(trace, case, backend, size, oracle)
            if failure is not None:
                break
        reports.append(SegmentedReport(case.label, backend, backend_sizes, failure))
    return reports
