"""Chunked trace-replay driver for the fast backend.

Decomposes one replay step of a ``SimJob`` (a whole trace, or one
segment of it resumed from a checkpoint) into three passes instead of
the reference's per-branch protocol loop:

1. **Predictor pass** -- depends only on the trace, so a fresh
   whole-trace step caches it per ``(trace, predictor canonical)`` and
   shares it across every estimator/policy/threshold sweep over the
   same trace.
2. **Estimator pass** -- consumes the prediction/correctness streams
   (estimators train on the *raw* predictor outcome, never on the
   policy's final prediction, so the pass is policy-independent).
3. **Policy + materialization pass** -- vectorized policy application
   and aggregation, then one scalar loop that materializes the
   post-warmup :class:`~repro.core.frontend.FrontEndEvent` stream with
   interned signal/decision objects.

Every pass is bit-identical to the reference front end;
``supports_job`` whitelists exactly the (kind, params) space for which
that has been proven, and anything outside it falls back to the
reference backend.
"""

from __future__ import annotations

import weakref
from typing import List, Optional, Tuple

import numpy as np

from repro.fastpath.columnar import ColumnarTrace, get_columnar
from repro.fastpath.estimators import ESTIMATOR_DEFAULTS, run_estimator
from repro.fastpath.kernels import swar_supported
from repro.fastpath.predictors import PREDICTOR_DEFAULTS, run_predictor
from repro.telemetry import COUNT_BUCKETS, get_registry

__all__ = [
    "supports_job",
    "unsupported_reason",
    "replay_segment",
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
        # the realised geometry must fit both the history kernels and
        # the segment-resume checkpoint window (64 bits each).
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

#: Predictor passes cached per trace object: the pass depends only on
#: (trace, predictor canonical), so estimator/policy sweeps reuse it.
_PREDICTOR_PASS_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _predictor_pass(job, trace, col: ColumnarTrace):
    tel = get_registry()
    per_trace = _PREDICTOR_PASS_CACHE.get(trace)
    if per_trace is None:
        per_trace = {}
        _PREDICTOR_PASS_CACHE[trace] = per_trace
    key = job.predictor.canonical()
    ppass = per_trace.get(key)
    if ppass is None:
        if tel.enabled:
            tel.counter("fastpath_predictor_pass_total", result="miss").inc()
        ppass = run_predictor(job.predictor, col)
        per_trace[key] = ppass
    elif tel.enabled:
        tel.counter("fastpath_predictor_pass_total", result="hit").inc()
    return ppass


def _decide(job, col, ppass, epass):
    """Apply the policy: per-branch decisions plus aggregate arrays."""
    from repro.core.reversal import BranchAction, PolicyDecision

    n = col.n
    pred_arr = ppass.pred_arr
    level_arr = np.asarray(epass.level, dtype=np.int8)
    kind = job.policy.kind
    if kind == "three_region":
        reverse_arr = level_arr == 2
        final_arr = np.where(reverse_arr, ~pred_arr, pred_arr)
    else:
        reverse_arr = np.zeros(n, dtype=bool)
        final_arr = pred_arr

    normal = {
        True: PolicyDecision(BranchAction.NORMAL, True),
        False: PolicyDecision(BranchAction.NORMAL, False),
    }
    gate = {
        True: PolicyDecision(BranchAction.GATE, True),
        False: PolicyDecision(BranchAction.GATE, False),
    }
    reverse = {
        True: PolicyDecision(BranchAction.REVERSE, True),
        False: PolicyDecision(BranchAction.REVERSE, False),
    }
    pred = ppass.pred
    decisions: List[PolicyDecision] = [None] * n
    if kind == "none":
        for i in range(n):
            decisions[i] = normal[pred[i]]
    elif kind == "gating":
        low = epass.low
        for i in range(n):
            decisions[i] = gate[pred[i]] if low[i] else normal[pred[i]]
    else:  # three_region
        level = epass.level
        for i in range(n):
            lv = level[i]
            p = pred[i]
            if lv == 2:
                decisions[i] = reverse[not p]
            elif lv == 1:
                decisions[i] = gate[p]
            else:
                decisions[i] = normal[p]
    return decisions, final_arr, reverse_arr


def _signals(epass):
    """Interned ConfidenceSignal per branch."""
    from repro.core.types import ConfidenceSignal

    ctors = {
        0: ConfidenceSignal.high,
        1: ConfidenceSignal.weak_low,
        2: ConfidenceSignal.strong_low,
    }
    cache = {}
    level = epass.level
    raw = epass.raw
    n = len(level)
    signals = [None] * n
    for i in range(n):
        key = (level[i], raw[i])
        sig = cache.get(key)
        if sig is None:
            sig = ctors[level[i]](raw[i])
            cache[key] = sig
        signals[i] = sig
    return signals


def _aggregate(job, col, ppass, epass, final_arr, reverse_arr, warmup):
    """Vectorized equivalent of FrontEnd._aggregate after ``warmup``."""
    from repro.core.frontend import FrontEndResult

    w = warmup
    taken_tail = col.takens.astype(bool)[w:]
    pred_correct = ppass.correct_arr[w:]
    final_correct = final_arr[w:] == taken_tail
    rev = reverse_arr[w:]
    low = np.asarray(epass.low, dtype=bool)[w:]
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
        raw = epass.raw
        correct = ppass.correct
        n = col.n
        result.outputs_correct = [raw[i] for i in range(w, n) if correct[i]]
        result.outputs_mispredicted = [raw[i] for i in range(w, n) if not correct[i]]
    return result


def _materialize_events(col, ppass, signals, decisions, warmup):
    from repro.core.frontend import FrontEndEvent

    n = col.n
    pcs = col.pc_list
    takens = col.taken_list
    preds = ppass.pred
    uops = col.uops_list
    events = []
    append = events.append
    new = object.__new__
    cls = FrontEndEvent
    for i in range(warmup, n):
        o = new(cls)
        d = o.__dict__
        d["pc"] = pcs[i]
        d["taken"] = takens[i]
        d["prediction"] = preds[i]
        decision = decisions[i]
        d["final_prediction"] = decision.final_prediction
        d["signal"] = signals[i]
        d["decision"] = decision
        d["uops_before"] = uops[i]
        append(o)
    return events


def replay_segment(job, segment, state=None, warmup=0):
    """Fast replay of one step of ``job``'s trace from an incoming state.

    ``state`` is the incoming ``(predictor_state, estimator_state,
    history_bits, path)``: the component canonical tuples and the
    trailing outcome/address windows
    (:data:`~repro.engine.replay.CHECKPOINT_WINDOW` wide), or ``None``
    for a fresh start.  Returns ``(events, result, state)``: the events
    after the first ``warmup`` branches, their
    :class:`~repro.core.frontend.FrontEndResult`, and the outgoing
    state in the same layout.

    A fresh start over a trace object takes the whole-trace caches: the
    columnar view from :func:`get_columnar` and the per-trace
    predictor pass.  Streamed segments are lists, which cannot key
    those weak caches, and a resumed step's derived columns depend on
    its incoming context, so both lower per call.

    An incoming state is *trusted for shape, not for truth*:
    checkpoints are read back from the on-disk segment cache, so a
    *malformed* state (truncated tuple, wrong types) is rejected
    cheaply as :class:`~repro.fastpath.FastPathUnsupported` rather than
    crashing deep inside a kernel, and callers keep their ordinary
    fast-to-reference fallback path.
    """
    from repro.engine.replay import CHECKPOINT_WINDOW
    from repro.fastpath import FastPathUnsupported

    fresh = state is None
    predictor_state, estimator_state, history_bits, path = (
        (None, None, 0, ()) if fresh else state
    )
    cached = fresh and not isinstance(segment, list)
    try:
        if cached:
            col = get_columnar(segment)
        else:
            col = ColumnarTrace(segment, init_history=history_bits, init_path=path)
    except (TypeError, ValueError) as exc:
        raise FastPathUnsupported(str(exc)) from None
    tel = get_registry()
    if tel.enabled:
        tel.histogram(
            "fastpath_batch_branches", buckets=COUNT_BUCKETS
        ).observe(col.n)
    try:
        if cached:
            ppass = _predictor_pass(job, segment, col)
        else:
            ppass = run_predictor(job.predictor, col, predictor_state)
        epass = run_estimator(
            job.estimator, col, ppass.pred, ppass.correct, estimator_state
        )
    except (TypeError, ValueError, IndexError, KeyError) as exc:
        if fresh:
            raise
        raise FastPathUnsupported(
            f"malformed init state: {type(exc).__name__}: {exc}"
        ) from None
    decisions, final_arr, reverse_arr = _decide(job, col, ppass, epass)
    signals = _signals(epass)
    result = _aggregate(job, col, ppass, epass, final_arr, reverse_arr, warmup)
    events = _materialize_events(col, ppass, signals, decisions, warmup)
    out_path = tuple(path) + tuple(col.pc_list[-CHECKPOINT_WINDOW:])
    out_state = (
        ppass.state,
        epass.state,
        col.final_history(CHECKPOINT_WINDOW),
        out_path[-CHECKPOINT_WINDOW:],
    )
    return events, result, out_state
