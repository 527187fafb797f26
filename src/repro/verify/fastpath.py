"""Fast-backend cross-check: vectorized kernels vs the reference loop.

Mirrors :mod:`repro.verify.differential`, but the production side is
the :mod:`repro.fastpath` driver instead of the pure-Python oracles:
one whole-trace fast replay is compared branch-by-branch against the
reference :class:`~repro.core.frontend.FrontEnd` on prediction,
confidence signal (flag, raw output, level) and policy action, and the
final predictor/estimator ``state_canonical()`` digests must agree.

Every case in the verify matrix must be *inside* the fast backend's
support matrix -- a registered configuration the fast backend silently
refused to run would never be cross-checked, so unsupported matrix
cases are reported as failures, not skips.
"""

from __future__ import annotations

import hashlib

from repro.core.frontend import FrontEnd
from repro.engine.job import SimJob
from repro.verify.differential import DifferentialReport, Divergence

__all__ = ["run_fastpath_differential"]


def _digest(state: tuple) -> str:
    return hashlib.sha256(repr(state).encode("utf-8")).hexdigest()


def run_fastpath_differential(
    trace,
    predictor_spec,
    estimator_spec,
    policy_spec,
    label: str = "",
) -> DifferentialReport:
    """Replay ``trace`` on both backends and compare everything.

    The fast replay runs with ``warmup=0`` so every branch is visible;
    the reference front end is stepped alongside the fast event stream.
    """
    from repro import fastpath

    job = SimJob(
        benchmark="differential",
        n_branches=len(trace),
        warmup=0,
        seed=1,
        predictor=predictor_spec,
        estimator=estimator_spec,
        policy=policy_spec,
        backend="fast",
    )
    if not fastpath.supports(job):
        return DifferentialReport(
            label,
            0,
            Divergence(
                0,
                0,
                "support",
                "configuration rejected by the fast backend",
                "every verify-matrix case must have a fast pass",
            ),
        )
    from repro.fastpath.driver import replay_trace

    events, result, predictor_state, estimator_state = replay_trace(job, trace)

    reference = FrontEnd(
        predictor_spec.build(), estimator_spec.build(), policy_spec.build()
    )
    index = 0
    for record, fast in zip(trace, events):
        ref = reference.process(record)
        pairs = (
            ("prediction", fast.prediction, ref.prediction),
            ("final_prediction", fast.final_prediction, ref.final_prediction),
            (
                "signal.low_confidence",
                fast.signal.low_confidence,
                ref.signal.low_confidence,
            ),
            ("signal.raw", fast.signal.raw, ref.signal.raw),
            ("signal.level", fast.signal.level, ref.signal.level),
            ("decision.action", fast.decision.action, ref.decision.action),
        )
        for field, fast_value, ref_value in pairs:
            if fast_value != ref_value:
                return DifferentialReport(
                    label,
                    index + 1,
                    Divergence(index, record.pc, field, fast_value, ref_value),
                )
        index += 1
    if index != len(events) or result.branches != index:
        return DifferentialReport(
            label,
            index,
            Divergence(
                index, 0, "event count", (len(events), result.branches), index
            ),
        )
    if _digest(predictor_state) != reference.predictor.state_digest():
        return DifferentialReport(
            label,
            index,
            Divergence(
                index,
                0,
                "predictor state",
                predictor_state[0],
                "digest mismatch (inspect state_canonical())",
            ),
        )
    if _digest(estimator_state) != reference.estimator.state_digest():
        return DifferentialReport(
            label,
            index,
            Divergence(
                index,
                0,
                "estimator state",
                estimator_state[0],
                "digest mismatch (inspect state_canonical())",
            ),
        )
    return DifferentialReport(label, index, None)
