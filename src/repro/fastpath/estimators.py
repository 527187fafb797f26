"""Whole-trace estimator passes for the fast backend.

Each pass is split at the confidence threshold λ:

- :func:`run_estimator` replays the estimator over the whole trace and
  returns its :class:`Trajectory`: the per-branch raw output and the
  final ``state_canonical()`` tuple, which λ cannot change among specs
  with one :func:`trajectory_key`;
- :func:`classify` turns a trajectory into one spec's low-confidence
  flags and three-level codes with one vectorised compare per rule.

Together they are bit-identical to the reference estimators in
:mod:`repro.core`.

The fusion estimators (agreement, cascade) compose recursively: each
component trains on its *own* classification stream (exactly as the
reference does), so a component trajectory is independent of how its
signals are fused downstream, and the fusion is a classification rule
over the component trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.fastpath.columnar import ColumnarTrace
from repro.fastpath.kernels import (
    fold_u64,
    mix_hash_u64,
    swar_cic_pass,
    swar_direction_pass,
)

__all__ = ["Trajectory", "classify", "run_estimator", "trajectory_key"]

#: Confidence-level codes used inside the fast backend.  ``LEVEL_HIGH``
#: must be 0: :func:`classify` scales a low flag by ``LEVEL_WEAK_LOW``.
LEVEL_HIGH = 0
LEVEL_WEAK_LOW = 1
LEVEL_STRONG_LOW = 2

#: Default parameters of the registered estimator factories.
ESTIMATOR_DEFAULTS = {
    "always_high": {},
    "jrs": {
        "entries": 8192,
        "counter_bits": 4,
        "threshold": 7,
        "history_length": 13,
        "enhanced": True,
    },
    "perceptron": {
        "entries": 128,
        "history_length": 32,
        "weight_bits": 8,
        "threshold": 0.0,
        "training_threshold": 96,
        "strong_threshold": None,
        "mode": "cic",
    },
    "path_perceptron": {
        "table_entries": 256,
        "history_length": 16,
        "weight_bits": 8,
        "threshold": 0.0,
        "training_threshold": 64,
    },
    "agreement": {"mode": "intersection"},
    "cascade": {"neutral_band": 30.0, "primary_threshold": 0.0},
}


@dataclass
class Trajectory:
    """What replaying an estimator over a whole trace leaves that λ
    cannot change: the input of :func:`classify`."""

    raw: List  # per-branch raw signal value (exact reference type)
    state: tuple  # final state_canonical() tuple
    parts: Tuple["Trajectory", ...] = ()  # a fusion's component trajectories


def _params(spec) -> dict:
    params = dict(ESTIMATOR_DEFAULTS[spec.kind])
    params.update(spec.param_dict())
    return params


def trajectory_key(spec) -> tuple:
    """Cache key of ``spec``'s :class:`Trajectory` on one predictor pass.

    Specs with equal keys have equal trajectories.  JRS counters and
    tnt perceptrons train without looking at λ.  A cic perceptron trains
    when ``c != p`` or ``|y| <= T``, and for ``|y| > T`` every λ in
    ``[-T, T]`` gives the same ``c``, so inside that band it trains
    the same whatever its λ and strong threshold.  Those specs drop
    their classification params from the key; every other spec is
    keyed by its full canonical, so it shares with nothing.
    """
    drop: Tuple[str, ...] = ()
    if spec.kind == "jrs":
        drop = ("threshold",)
    elif spec.kind == "perceptron":
        p = _params(spec)
        if p["mode"] == "tnt":
            drop = ("threshold",)
        elif -p["training_threshold"] <= p["threshold"] <= p["training_threshold"]:
            drop = ("threshold", "strong_threshold")
    if not drop:
        return spec.canonical()
    kept = tuple((k, v) for k, v in spec.params if k not in drop)
    return type(spec)(kind=spec.kind, params=kept).canonical()


def classify(spec, trajectory: Trajectory) -> Tuple[np.ndarray, np.ndarray]:
    """``spec``'s per-branch ``(low, level)`` arrays over ``trajectory``.

    The one place each kind's threshold rule lives: JRS is low when
    ``raw < λ``; tnt when ``-λ <= y <= λ``; cic and the path perceptron
    when ``y > λ``, and cic is strong when also ``y > strong_threshold``.
    ``level`` holds ``LEVEL_*`` codes.
    """
    p = _params(spec)
    kind = spec.kind
    if kind in ("agreement", "cascade"):
        first, second = trajectory.parts
        p_low, p_level = classify(p["primary"], first)
        s_low, _ = classify(p["secondary"], second)
        if kind == "agreement":
            low = (p_low | s_low) if p["mode"] == "union" else (p_low & s_low)
            level = low * np.int8(LEVEL_WEAK_LOW)
            level[low & (p_level == LEVEL_STRONG_LOW)] = LEVEL_STRONG_LOW
            return low, level
        # Cascade: the secondary decides where the primary is near its
        # threshold; elsewhere the primary's signal passes through.
        near = np.abs(np.asarray(first.raw) - p["primary_threshold"]) <= p["neutral_band"]
        low = np.where(near, s_low, p_low)
        return low, np.where(near, s_low * np.int8(LEVEL_WEAK_LOW), p_level)
    raw = np.asarray(trajectory.raw)
    if kind == "always_high":
        low = np.zeros(raw.shape[0], dtype=bool)
    elif kind == "jrs":
        low = raw < p["threshold"]
    elif p.get("mode") == "tnt":
        low = (-p["threshold"] <= raw) & (raw <= p["threshold"])
    else:  # cic perceptron, path perceptron
        low = raw > p["threshold"]
    level = low * np.int8(LEVEL_WEAK_LOW)
    strong = p.get("strong_threshold")
    if strong is not None:
        level[low & (raw > strong)] = LEVEL_STRONG_LOW
    return low, level


def _run_always_high(col: ColumnarTrace, params, pred, correct) -> Trajectory:
    return Trajectory(raw=[0.0] * col.n, state=("always_high",))


def _run_jrs(col: ColumnarTrace, params, pred, correct) -> Trajectory:
    entries = params["entries"]
    counter_bits = params["counter_bits"]
    history_length = params["history_length"]
    enhanced = params["enhanced"]

    index_bits = entries.bit_length() - 1
    context = col.history(history_length)
    if enhanced:
        context = (context << np.uint64(1)) | np.asarray(pred, dtype=np.uint64)
    indices = (
        fold_u64((col.pcs >> 2).astype(np.uint64), index_bits)
        ^ fold_u64(context, index_bits)
    ).tolist()

    counter_max = (1 << counter_bits) - 1
    table = [0] * entries
    n = col.n
    raw = [0.0] * n
    for i in range(n):
        j = indices[i]
        v = table[j]
        raw[i] = float(v)
        if correct[i]:
            if v < counter_max:
                table[j] = v + 1
        else:
            table[j] = 0

    state = ("jrs", bool(enhanced), tuple(table), col.final_history(history_length))
    return Trajectory(raw=raw, state=state)


def _run_perceptron(col: ColumnarTrace, params, pred, correct) -> Trajectory:
    entries = params["entries"]
    history_length = params["history_length"]
    weight_bits = params["weight_bits"]
    mode = params["mode"]

    w_max = (1 << (weight_bits - 1)) - 1
    w_min = -(1 << (weight_bits - 1))
    rows = ((col.pcs >> 2) % entries).tolist()
    pops = col.popcounts(history_length)

    if mode == "cic":
        ys, weights = swar_cic_pass(
            rows,
            correct,
            col.taken_ints,
            pops,
            entries,
            history_length,
            params["threshold"],
            params["training_threshold"],
            w_min,
            w_max,
        )
    else:  # tnt: direction training
        theta = int(1.93 * history_length + 14)  # jimenez_lin_theta
        ys, weights = swar_direction_pass(
            rows,
            col.taken_ints,
            pops,
            entries,
            history_length,
            theta,
            w_min,
            w_max,
        )

    state = (
        "perceptron_estimator",
        mode,
        tuple(tuple(int(w) for w in row) for row in weights),
        col.final_history(history_length),
    )
    return Trajectory(raw=ys, state=state)


def _run_path_perceptron(col: ColumnarTrace, params, pred, correct) -> Trajectory:
    entries = params["table_entries"]
    history_length = params["history_length"]
    weight_bits = params["weight_bits"]
    threshold = params["threshold"]
    training_threshold = params["training_threshold"]

    w_max = (1 << (weight_bits - 1)) - 1
    w_min = -(1 << (weight_bits - 1))
    h = history_length
    n = col.n

    # Path matrix: P[i, j] = pc of the (j+1)-th most recent retired
    # branch before i (0 when the path is still short).
    path_mat = sliding_window_view(col.path_before(h), h)[:, ::-1]
    keys = (
        ((col.pcs >> 2).astype(np.uint64) << np.uint64(20))[:, None]
        ^ ((path_mat >> np.uint64(2)) << np.uint64(4))
        ^ np.arange(h, dtype=np.uint64)[None, :]
    )
    # Flattened (position, row) index into the (h, entries) weight table.
    flat_idx = (
        (mix_hash_u64(keys) % np.uint64(entries)).astype(np.int64)
        + (np.arange(h, dtype=np.int64) * entries)[None, :]
    )
    history_words = col.history(h)
    xs_mat = (
        ((history_words[:, None] >> np.arange(h, dtype=np.uint64)) & np.uint64(1))
        .astype(np.int32)
        * 2
        - 1
    )
    bias_idx = ((col.pcs >> 2) % entries).tolist()

    weights_flat = np.zeros(h * entries, dtype=np.int32)
    bias = [0] * entries
    raw = [0.0] * n
    for i in range(n):
        idx = flat_idx[i]
        x = xs_mat[i]
        w = weights_flat[idx]
        b = bias_idx[i]
        y = int(bias[b] + np.dot(w, x))
        yf = float(y)
        raw[i] = yf
        # Train toward p when the low/high call c disagreed or |y| was
        # small (the reference train rule).
        p = -1 if correct[i] else 1
        c = 1 if y > threshold else -1
        if c != p or abs(yf) <= training_threshold:
            updated = w + p * x
            np.clip(updated, w_min, w_max, out=updated)
            weights_flat[idx] = updated
            bv = bias[b] + p
            bias[b] = w_max if bv > w_max else (w_min if bv < w_min else bv)

    weights = weights_flat.reshape(h, entries)
    state = (
        "path_perceptron",
        tuple(tuple(int(w) for w in row) for row in weights),
        tuple(bias),
        col.final_history(h),
        tuple(col.pc_list[-h:]),
    )
    return Trajectory(raw=raw, state=state)


def _run_agreement(col: ColumnarTrace, params, pred, correct) -> Trajectory:
    first = run_estimator(params["primary"], col, pred, correct)
    second = run_estimator(params["secondary"], col, pred, correct)
    state = ("agreement", params["mode"], first.state, second.state)
    return Trajectory(raw=first.raw, state=state, parts=(first, second))


def _run_cascade(col: ColumnarTrace, params, pred, correct) -> Trajectory:
    first = run_estimator(params["primary"], col, pred, correct)
    second = run_estimator(params["secondary"], col, pred, correct)
    state = ("cascade", first.state, second.state)
    return Trajectory(raw=first.raw, state=state, parts=(first, second))


_RUNNERS = {
    "always_high": _run_always_high,
    "jrs": _run_jrs,
    "perceptron": _run_perceptron,
    "path_perceptron": _run_path_perceptron,
    "agreement": _run_agreement,
    "cascade": _run_cascade,
}


def run_estimator(spec, col: ColumnarTrace, pred, correct) -> Trajectory:
    """Replay ``spec`` (an EstimatorSpec) over the whole trace.

    ``pred``/``correct`` are the predictor pass's per-branch prediction
    and correctness lists (the streams the front end feeds the
    estimator's ``estimate``/``train`` protocol).  Every spec with the
    same :func:`trajectory_key` returns an equal :class:`Trajectory`;
    :func:`classify` gives each one's flags.
    """
    runner = _RUNNERS.get(spec.kind)
    if runner is None:
        from repro.fastpath import FastPathUnsupported

        raise FastPathUnsupported(f"no fast estimator pass for kind {spec.kind!r}")
    return runner(col, _params(spec), pred, correct)
