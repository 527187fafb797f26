"""Whole-trace replay driver for the fast backend.

Decomposes the replay of a ``SimJob`` over its whole trace into three
passes instead of the reference's per-branch protocol loop:

1. **Predictor pass** -- depends only on the trace, so it is cached per
   ``(trace, predictor canonical)`` and shared across every
   estimator/policy/threshold sweep over the same trace.
2. **Estimator pass** -- consumes the prediction/correctness streams
   (estimators train on the *raw* predictor outcome, never on the
   policy's final prediction, so the pass is policy-independent).  Its
   threshold-free part, the raw output stream and final state, is
   cached per ``(trace, predictor canonical, trajectory key)``, so a
   threshold ladder over one trace trains once per key; each job's
   threshold only reclassifies it
   (:func:`~repro.fastpath.estimators.classify`).
3. **Policy + columns pass** -- vectorized policy application and
   aggregation, then the post-warm-up
   :class:`~repro.core.frontend.FrontEndEvents` columns: slices of the
   lists the first two passes and the columnar trace already hold, plus
   the policy's action column.  No per-branch object is built; readers
   that want :class:`~repro.core.frontend.FrontEndEvent` objects build
   them on iteration.

Every pass is bit-identical to the reference front end;
:func:`unsupported_reason` names the first component of a job outside
the space where that has been proven (:mod:`repro.fastpath.support`),
and such a job falls back to the reference backend.
"""

from __future__ import annotations

import functools
import weakref
from typing import Optional

import numpy as np

from repro.core.frontend import FrontEndEvents, FrontEndResult
from repro.core.reversal import BranchAction
from repro.core.types import ConfidenceLevel
from repro.fastpath.columnar import get_columnar
from repro.fastpath.estimators import (
    LEVEL_STRONG_LOW,
    classify,
    run_estimator,
    trajectory_key,
)
from repro.fastpath.predictors import run_predictor
from repro.fastpath.support import supported
from repro.telemetry import COUNT_BUCKETS, get_registry

__all__ = ["unsupported_reason", "replay_trace"]


# -------------------------------------------------------------------------
# Support
# -------------------------------------------------------------------------

#: Policy kinds :func:`_policy` and :func:`_events` apply.
_POLICIES = ("none", "gating", "three_region")


def unsupported_reason(job) -> Optional[str]:
    """First component keeping ``job`` off the fast path, or ``None``.

    The token becomes the ``reason`` label on
    ``fastpath_fallbacks_total``.
    """
    if not supported(job.predictor):
        return f"predictor:{job.predictor.kind}"
    if not supported(job.estimator):
        return f"estimator:{job.estimator.kind}"
    if job.policy.kind not in _POLICIES or job.policy.params:
        return f"policy:{job.policy.kind}"
    return None


# -------------------------------------------------------------------------
# Replay
# -------------------------------------------------------------------------

#: Whole-trace passes cached per trace object.  Predictor passes are
#: keyed by the predictor canonical (a triple), estimator trajectories
#: by the pair ``(predictor canonical, trajectory key)``.  Neither
#: depends on the policy or the threshold, so sweeps over one trace
#: reuse them.
_PASS_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _cached_pass(trace, key, counter: str, run):
    """``run()`` once per ``(trace, key)``; counts ``counter{result}``."""
    per_trace = _PASS_CACHE.get(trace)
    if per_trace is None:
        per_trace = _PASS_CACHE[trace] = {}
    value = per_trace.get(key)
    tel = get_registry()
    if tel.enabled:
        tel.counter(counter, result="miss" if value is None else "hit").inc()
    if value is None:
        value = per_trace[key] = run()
    return value


def _trajectory(trace, col, ppass, predictor_key, spec):
    """``spec``'s estimator trajectory over ``trace``, computed at most
    once per trace.  A fusion's components come through here too, so a
    fusion reuses the trajectories its trace already holds."""
    component = functools.partial(_trajectory, trace, col, ppass, predictor_key)
    return _cached_pass(
        trace,
        (predictor_key, trajectory_key(spec)),
        "fastpath_estimator_pass_total",
        lambda: run_estimator(spec, col, ppass.pred, ppass.correct, component),
    )


def _policy(job, ppass, level):
    """The policy's final direction and reversal flag per branch (arrays)."""
    pred_arr = ppass.pred_arr
    if job.policy.kind == "three_region":
        reverse_arr = level == LEVEL_STRONG_LOW
        return np.where(reverse_arr, ~pred_arr, pred_arr), reverse_arr
    return pred_arr, np.zeros(pred_arr.shape[0], dtype=bool)


def _aggregate(job, col, ppass, raw, low, final_arr, reverse_arr, warmup):
    """Vectorized equivalent of FrontEnd._aggregate after ``warmup``."""
    w = warmup
    taken_tail = col.takens.astype(bool)[w:]
    pred_correct = ppass.correct_arr[w:]
    final_correct = final_arr[w:] == taken_tail
    rev = reverse_arr[w:]
    low = low[w:]
    mis = ~pred_correct

    result = FrontEndResult()
    result.branches = int(taken_tail.shape[0])
    result.mispredictions = int(np.count_nonzero(mis))
    result.final_mispredictions = int(np.count_nonzero(~final_correct))
    result.reversals = int(np.count_nonzero(rev))
    result.reversals_correcting = int(np.count_nonzero(rev & mis & final_correct))
    result.reversals_breaking = int(np.count_nonzero(rev & pred_correct & ~final_correct))
    matrix = result.matrix
    matrix.low_mispredicted = int(np.count_nonzero(low & mis))
    matrix.low_correct = int(np.count_nonzero(low & ~mis))
    matrix.high_mispredicted = int(np.count_nonzero(~low & mis))
    matrix.high_correct = int(np.count_nonzero(~low & ~mis))
    if job.collect_outputs:
        correct = ppass.correct
        n = col.n
        result.outputs_correct = [raw[i] for i in range(w, n) if correct[i]]
        result.outputs_mispredicted = [raw[i] for i in range(w, n) if not correct[i]]
    return result


#: Column values by ``LEVEL_*`` code.
_LEVELS = np.array(
    (ConfidenceLevel.HIGH, ConfidenceLevel.WEAK_LOW, ConfidenceLevel.STRONG_LOW),
    dtype=object,
)
#: Three-region actions by level code: reverse strong, gate weak.
_REGION_ACTIONS = np.array(
    (BranchAction.NORMAL, BranchAction.GATE, BranchAction.REVERSE), dtype=object
)
#: Gating actions by low flag.
_GATE_ACTIONS = np.array((BranchAction.NORMAL, BranchAction.GATE), dtype=object)


def _events(job, col, ppass, raw, low, level, final_arr, warmup):
    """Post-warm-up event columns: slices of the lists the passes hold."""
    w = warmup
    prediction = ppass.pred[w:]
    codes = level[w:]
    kind = job.policy.kind
    if kind == "three_region":
        final = final_arr[w:].tolist()
        action = _REGION_ACTIONS[codes].tolist()
    else:
        final = prediction
        if kind == "gating":
            action = _GATE_ACTIONS[low[w:].view(np.int8)].tolist()
        else:
            action = [BranchAction.NORMAL] * len(prediction)
    return FrontEndEvents(
        pc=col.pc_list[w:],
        taken=col.taken_list[w:],
        prediction=prediction,
        final_prediction=final,
        action=action,
        level=_LEVELS[codes].tolist(),
        raw=raw[w:],
        uops_before=col.uops_list[w:],
    )


def replay_trace(job, trace, warmup=0):
    """Fast replay of ``job`` over the whole of ``trace``.

    Returns ``(events, result, predictor_state, estimator_state)``: the
    :class:`~repro.core.frontend.FrontEndEvents` after the first
    ``warmup`` branches, their
    :class:`~repro.core.frontend.FrontEndResult`, and the components'
    final ``state_canonical()`` tuples, which the fastpath verify layer
    compares with the reference front end's.  The columnar view
    (:func:`get_columnar`), the predictor pass and the estimator
    trajectory are cached per trace object.  A trace the columnar
    lowering rejects (e.g. pcs outside the supported range) raises
    :class:`~repro.fastpath.FastPathUnsupported`, so the caller reruns
    it on the reference loop.
    """
    from repro.fastpath import FastPathUnsupported

    try:
        col = get_columnar(trace)
    except (TypeError, ValueError) as exc:
        raise FastPathUnsupported(str(exc)) from None
    tel = get_registry()
    if tel.enabled:
        tel.histogram(
            "fastpath_batch_branches", buckets=COUNT_BUCKETS
        ).observe(col.n)
    predictor_key = job.predictor.canonical()
    ppass = _cached_pass(
        trace,
        predictor_key,
        "fastpath_predictor_pass_total",
        lambda: run_predictor(job.predictor, col),
    )
    trajectory = _trajectory(trace, col, ppass, predictor_key, job.estimator)
    low, level = classify(job.estimator, trajectory)
    raw = trajectory.raw
    final_arr, reverse_arr = _policy(job, ppass, level)
    result = _aggregate(job, col, ppass, raw, low, final_arr, reverse_arr, warmup)
    events = _events(job, col, ppass, raw, low, level, final_arr, warmup)
    return events, result, ppass.state, trajectory.state
