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
``supports_job`` whitelists exactly the (kind, params) space for which
that has been proven, and anything outside it falls back to the
reference backend.
"""

from __future__ import annotations

import weakref
from typing import Optional, Tuple

import numpy as np

from repro.core.frontend import FrontEndEvents, FrontEndResult
from repro.core.reversal import BranchAction
from repro.core.types import ConfidenceLevel
from repro.fastpath.columnar import get_columnar
from repro.fastpath.estimators import (
    ESTIMATOR_DEFAULTS,
    LEVEL_STRONG_LOW,
    classify,
    run_estimator,
    trajectory_key,
)
from repro.fastpath.kernels import swar_supported
from repro.fastpath.predictors import PREDICTOR_DEFAULTS, run_predictor
from repro.telemetry import COUNT_BUCKETS, get_registry

__all__ = [
    "supports_job",
    "unsupported_reason",
    "replay_trace",
]


# -------------------------------------------------------------------------
# Support matrix
# -------------------------------------------------------------------------


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_pow2(value) -> bool:
    return _is_int(value) and value >= 2 and (value & (value - 1)) == 0


def _merged(defaults: dict, spec) -> Tuple[dict, bool]:
    params = spec.param_dict()
    if not set(params) <= set(defaults):
        return {}, False
    merged = dict(defaults)
    merged.update(params)
    return merged, True


def _supports_predictor(spec) -> bool:
    if spec.kind == "baseline_hybrid":
        p, ok = _merged(PREDICTOR_DEFAULTS[spec.kind], spec)
        return ok and (
            _is_int(p["bimodal_entries"])
            and p["bimodal_entries"] > 0
            and _is_pow2(p["gshare_entries"])
            and _is_int(p["meta_entries"])
            and p["meta_entries"] > 0
            and _is_int(p["history_length"])
            and 1 <= p["history_length"] <= 64
        )
    if spec.kind == "gshare_perceptron_hybrid":
        p, ok = _merged(PREDICTOR_DEFAULTS[spec.kind], spec)
        return ok and (
            _is_pow2(p["gshare_entries"])
            and _is_int(p["gshare_history"])
            and 1 <= p["gshare_history"] <= 64
            and _is_int(p["perceptron_entries"])
            and p["perceptron_entries"] > 0
            and _is_int(p["perceptron_history"])
            and swar_supported(p["perceptron_history"], 8)
            and _is_int(p["meta_entries"])
            and p["meta_entries"] > 0
        )
    if spec.kind == "tage":
        p, ok = _merged(PREDICTOR_DEFAULTS["tage"], spec)
        if not ok:
            return False
        if not (_is_int(p["base_entries"]) and p["base_entries"] > 0):
            return False
        if not _is_pow2(p["tagged_entries"]):
            return False
        if not (_is_int(p["tag_bits"]) and 1 <= p["tag_bits"] <= 30):
            return False
        if not (_is_int(p["counter_bits"]) and 2 <= p["counter_bits"] <= 16):
            return False
        if not (_is_int(p["u_reset_period"]) and p["u_reset_period"] >= 1):
            return False
        if not (
            _is_int(p["n_tables"])
            and p["n_tables"] >= 1
            and _is_int(p["min_history"])
            and _is_int(p["max_history"])
            and 1 <= p["min_history"] <= p["max_history"]
        ):
            return False
        # Collision bumping can push the longest table past max_history;
        # the realised geometry must fit the 64-bit history kernels.
        from repro.predictors.tage import geometric_history_lengths

        lengths = geometric_history_lengths(
            p["n_tables"], p["min_history"], p["max_history"]
        )
        return lengths[-1] <= 64
    return False


def _supports_estimator(spec) -> bool:
    if spec.kind == "always_high":
        return not spec.param_dict()
    if spec.kind == "jrs":
        p, ok = _merged(ESTIMATOR_DEFAULTS["jrs"], spec)
        if not ok:
            return False
        if not (_is_pow2(p["entries"]) and _is_int(p["counter_bits"])):
            return False
        if not 1 <= p["counter_bits"] <= 16:
            return False
        if not (_is_int(p["threshold"]) and 0 < p["threshold"] <= (1 << p["counter_bits"]) - 1):
            return False
        if not isinstance(p["enhanced"], bool):
            return False
        # Enhanced indexing appends the prediction bit to the history
        # word, which must still fit the uint64 fold input.
        limit = 63 if p["enhanced"] else 64
        return _is_int(p["history_length"]) and 1 <= p["history_length"] <= limit
    if spec.kind == "perceptron":
        p, ok = _merged(ESTIMATOR_DEFAULTS["perceptron"], spec)
        if not ok:
            return False
        if p["mode"] not in ("cic", "tnt"):
            return False
        if not (_is_int(p["entries"]) and p["entries"] > 0):
            return False
        if not (_is_int(p["weight_bits"]) and _is_int(p["history_length"])):
            return False
        if not swar_supported(p["history_length"], p["weight_bits"]):
            return False
        if not (_is_number(p["threshold"]) and _is_number(p["training_threshold"])):
            return False
        if p["training_threshold"] < 0:
            return False
        strong = p["strong_threshold"]
        if strong is not None and not _is_number(strong):
            return False
        # Combinations the reference constructor rejects fall back so
        # the reference raises its own error.
        if p["mode"] == "tnt" and (strong is not None or p["threshold"] < 0):
            return False
        if strong is not None and strong < p["threshold"]:
            return False
        return True
    if spec.kind == "path_perceptron":
        p, ok = _merged(ESTIMATOR_DEFAULTS["path_perceptron"], spec)
        return ok and (
            _is_int(p["table_entries"])
            and p["table_entries"] > 0
            and _is_int(p["history_length"])
            and 1 <= p["history_length"] <= 64
            and _is_int(p["weight_bits"])
            and 2 <= p["weight_bits"] <= 16
            and _is_number(p["training_threshold"])
            and p["training_threshold"] >= 0
            and _is_number(p["threshold"])
        )
    if spec.kind == "agreement":
        params = spec.param_dict()
        if not {"primary", "secondary"} <= set(params):
            return False
        if not set(params) <= {"primary", "secondary", "mode"}:
            return False
        if params.get("mode", "intersection") not in ("union", "intersection"):
            return False
        return _supports_estimator(params["primary"]) and _supports_estimator(
            params["secondary"]
        )
    if spec.kind == "cascade":
        params = spec.param_dict()
        if not {"primary", "secondary"} <= set(params):
            return False
        if not set(params) <= {"primary", "secondary", "neutral_band", "primary_threshold"}:
            return False
        band = params.get("neutral_band", 30.0)
        if not (_is_number(band) and band >= 0):
            return False
        if not _is_number(params.get("primary_threshold", 0.0)):
            return False
        return _supports_estimator(params["primary"]) and _supports_estimator(
            params["secondary"]
        )
    return False


def _supports_policy(spec) -> bool:
    return spec.kind in ("none", "gating", "three_region") and not spec.param_dict()


def supports_job(job) -> bool:
    """True when every component of ``job`` has a proven fast pass."""
    return (
        _supports_predictor(job.predictor)
        and _supports_estimator(job.estimator)
        and _supports_policy(job.policy)
    )


def unsupported_reason(job) -> Optional[str]:
    """First component keeping ``job`` off the fast path, or ``None``.

    Telemetry-facing counterpart of :func:`supports_job`: the token
    becomes the ``reason`` label on ``fastpath_fallbacks_total``.
    """
    if not _supports_predictor(job.predictor):
        return f"predictor:{job.predictor.kind}"
    if not _supports_estimator(job.estimator):
        return f"estimator:{job.estimator.kind}"
    if not _supports_policy(job.policy):
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
    overall = result.metrics.overall
    overall.low_mispredicted = int(np.count_nonzero(low & mis))
    overall.low_correct = int(np.count_nonzero(low & ~mis))
    overall.high_mispredicted = int(np.count_nonzero(~low & mis))
    overall.high_correct = int(np.count_nonzero(~low & ~mis))
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
    trajectory = _cached_pass(
        trace,
        (predictor_key, trajectory_key(job.estimator)),
        "fastpath_estimator_pass_total",
        lambda: run_estimator(job.estimator, col, ppass.pred, ppass.correct),
    )
    low, level = classify(job.estimator, trajectory)
    raw = trajectory.raw
    final_arr, reverse_arr = _policy(job, ppass, level)
    result = _aggregate(job, col, ppass, raw, low, final_arr, reverse_arr, warmup)
    events = _events(job, col, ppass, raw, low, level, final_arr, warmup)
    return events, result, ppass.state, trajectory.state
