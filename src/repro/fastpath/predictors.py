"""Whole-trace predictor passes for the fast backend.

Each pass replays one registered predictor kind over a full columnar
trace and returns the per-branch predictions plus the final
``state_canonical()`` tuple, bit-identical to the reference
implementation in :mod:`repro.predictors`.  Table indices are
precomputed with the vectorized kernels; the dense counter-table
read-modify-write loops stay scalar over Python lists, while the
perceptron component runs as a SWAR big-int pass.  (Vectorising the
table updates over runs of distinct indices was measured slower: the
benchmark index streams alias so densely that the median run is about
three branches long.)

Predictor passes depend only on the trace, never on the estimator or
policy, so the driver caches them per ``(trace, predictor canonical)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.fastpath.columnar import ColumnarTrace
from repro.fastpath.kernels import fold_u64, swar_direction_pass
from repro.fastpath.support import arguments

__all__ = ["PredictorPass", "run_predictor"]

@dataclass
class PredictorPass:
    """Result of replaying a predictor over a whole trace."""

    pred: List[bool]  # per-branch prediction
    correct: List[bool]  # per-branch (prediction == taken)
    pred_arr: np.ndarray  # bool array view of ``pred``
    correct_arr: np.ndarray  # bool array view of ``correct``
    state: tuple  # final state_canonical() tuple


def _finish(col: ColumnarTrace, pred: List[bool], state: tuple) -> PredictorPass:
    pred_arr = np.asarray(pred, dtype=bool)
    correct_arr = pred_arr == col.takens.astype(bool)
    return PredictorPass(
        pred=pred,
        correct=correct_arr.tolist(),
        pred_arr=pred_arr,
        correct_arr=correct_arr,
        state=state,
    )


def _gshare_indices(col: ColumnarTrace, entries: int, history_length: int) -> List[int]:
    index_bits = entries.bit_length() - 1
    pcs = (col.pcs >> 2).astype(np.uint64)
    return (
        fold_u64(pcs, index_bits) ^ fold_u64(col.history(history_length), index_bits)
    ).tolist()


def _run_baseline_hybrid(col: ColumnarTrace, params: dict) -> PredictorPass:
    bim_entries = params["bimodal_entries"]
    gsh_entries = params["gshare_entries"]
    meta_entries = params["meta_entries"]
    history_length = params["history_length"]

    b_idx = ((col.pcs >> 2) % bim_entries).tolist()
    m_idx = ((col.pcs >> 2) % meta_entries).tolist()
    g_idx = _gshare_indices(col, gsh_entries, history_length)
    takl = col.taken_list

    bim = [2] * bim_entries
    gsh = [2] * gsh_entries
    meta = [2] * meta_entries
    n = col.n
    pred = [False] * n
    for i in range(n):
        b = b_idx[i]
        g = g_idx[i]
        m = m_idx[i]
        t = takl[i]
        vb = bim[b]
        vg = gsh[g]
        pa = vb >= 2
        pb = vg >= 2
        pred[i] = pb if meta[m] >= 2 else pa
        if pa != pb:
            if pb == t:
                if meta[m] < 3:
                    meta[m] += 1
            elif meta[m] > 0:
                meta[m] -= 1
        if t:
            if vb < 3:
                bim[b] = vb + 1
            if vg < 3:
                gsh[g] = vg + 1
        else:
            if vb > 0:
                bim[b] = vb - 1
            if vg > 0:
                gsh[g] = vg - 1

    final_bits = col.final_history(max(history_length, 1))
    state = (
        "combined",
        ("bimodal", tuple(bim)),
        ("gshare", history_length, tuple(gsh), final_bits),
        tuple(meta),
        final_bits,
    )
    return _finish(col, pred, state)


def _run_gshare_perceptron_hybrid(col: ColumnarTrace, params: dict) -> PredictorPass:
    gsh_entries = params["gshare_entries"]
    gshare_history = params["gshare_history"]
    perc_entries = params["perceptron_entries"]
    perc_history = params["perceptron_history"]
    meta_entries = params["meta_entries"]

    gsh = [2] * gsh_entries
    meta = [2] * meta_entries

    # Component B first: the direction-trained perceptron is
    # self-contained (trains on every branch outcome), so one SWAR pass
    # yields its per-branch outputs and final weights.
    theta = int(1.93 * perc_history + 14)  # jimenez_lin_theta
    rows = ((col.pcs >> 2) % perc_entries).tolist()
    ys, weights = swar_direction_pass(
        rows,
        col.taken_ints,
        col.popcounts(perc_history),
        perc_entries,
        perc_history,
        theta,
        w_min=-128,
        w_max=127,
    )
    pb_list = [y >= 0 for y in ys]

    g_idx = _gshare_indices(col, gsh_entries, gshare_history)
    m_idx = ((col.pcs >> 2) % meta_entries).tolist()
    takl = col.taken_list
    n = col.n
    pred = [False] * n
    for i in range(n):
        g = g_idx[i]
        m = m_idx[i]
        t = takl[i]
        vg = gsh[g]
        pa = vg >= 2
        pb = pb_list[i]
        pred[i] = pb if meta[m] >= 2 else pa
        if pa != pb:
            if pb == t:
                if meta[m] < 3:
                    meta[m] += 1
            elif meta[m] > 0:
                meta[m] -= 1
        if t:
            if vg < 3:
                gsh[g] = vg + 1
        elif vg > 0:
            gsh[g] = vg - 1

    shared_length = max(gshare_history, perc_history)
    final_bits = col.final_history(shared_length)
    state = (
        "combined",
        ("gshare", gshare_history, tuple(gsh), final_bits),
        (
            "perceptron_predictor",
            tuple(tuple(int(w) for w in row) for row in weights),
            final_bits,
        ),
        tuple(meta),
        final_bits,
    )
    return _finish(col, pred, state)


def _run_tage(col: ColumnarTrace, params: dict) -> PredictorPass:
    from repro.predictors.tage import geometric_history_lengths

    base_entries = params["base_entries"]
    tagged_entries = params["tagged_entries"]
    tag_bits = params["tag_bits"]
    counter_bits = params["counter_bits"]
    u_reset_period = params["u_reset_period"]
    lengths = geometric_history_lengths(
        params["n_tables"], params["min_history"], params["max_history"]
    )
    n_tables = len(lengths)
    index_bits = tagged_entries.bit_length() - 1
    midpoint = 1 << (counter_bits - 1)
    ctr_max = (1 << counter_bits) - 1

    # Per-table index/tag streams precomputed from the history columns;
    # the scalar loop below only does table reads/writes.
    pcs = (col.pcs >> 2).astype(np.uint64)
    pc_fold_idx = fold_u64(pcs, index_bits)
    pc_fold_tag = fold_u64(pcs, tag_bits)
    tag_mask = np.uint64((1 << tag_bits) - 1)
    idx_cols: List[List[int]] = []
    tag_cols: List[List[int]] = []
    for length in lengths:
        h = col.history(length)
        idx_cols.append((pc_fold_idx ^ fold_u64(h, index_bits)).tolist())
        tag_cols.append(
            (
                (pc_fold_tag ^ (fold_u64(h, tag_bits - 1) << np.uint64(1)))
                & tag_mask
            ).tolist()
        )
    b_idx = (pcs % np.uint64(base_entries)).tolist()

    base = [2] * base_entries
    ctr = [[midpoint] * tagged_entries for _ in lengths]
    tags = [[0] * tagged_entries for _ in lengths]
    useful = [[0] * tagged_entries for _ in lengths]
    retired = 0

    takl = col.taken_list
    n = col.n
    pred = [False] * n
    for i in range(n):
        provider = -1
        alt = -1
        for t in range(n_tables):
            if tags[t][idx_cols[t][i]] == tag_cols[t][i]:
                alt = provider
                provider = t
        taken = takl[i]
        if provider >= 0:
            pslot = idx_cols[provider][i]
            provider_pred = ctr[provider][pslot] >= midpoint
            pred[i] = provider_pred
            if alt >= 0:
                alt_pred = ctr[alt][idx_cols[alt][i]] >= midpoint
            else:
                alt_pred = base[b_idx[i]] >= 2
            v = ctr[provider][pslot]
            if taken:
                if v < ctr_max:
                    ctr[provider][pslot] = v + 1
            elif v > 0:
                ctr[provider][pslot] = v - 1
            if provider_pred != alt_pred:
                u = useful[provider][pslot]
                if provider_pred == taken:
                    if u < 3:
                        useful[provider][pslot] = u + 1
                elif u > 0:
                    useful[provider][pslot] = u - 1
        else:
            b = b_idx[i]
            vb = base[b]
            pred[i] = vb >= 2
            if taken:
                if vb < 3:
                    base[b] = vb + 1
            elif vb > 0:
                base[b] = vb - 1
        if pred[i] != taken:
            start = provider + 1
            allocated = False
            for t in range(start, n_tables):
                slot = idx_cols[t][i]
                if useful[t][slot] == 0:
                    tags[t][slot] = tag_cols[t][i]
                    ctr[t][slot] = midpoint if taken else midpoint - 1
                    allocated = True
                    break
            if not allocated:
                for t in range(start, n_tables):
                    slot = idx_cols[t][i]
                    u = useful[t][slot]
                    if u > 0:
                        useful[t][slot] = u - 1
        retired += 1
        if retired % u_reset_period == 0:
            for t in range(n_tables):
                ut = useful[t]
                for s in range(tagged_entries):
                    val = ut[s]
                    if val:
                        ut[s] = val >> 1

    final_bits = col.final_history(lengths[-1])
    state = (
        "tage",
        lengths,
        tuple(base),
        tuple(
            (tuple(ctr[t]), tuple(tags[t]), tuple(useful[t]))
            for t in range(n_tables)
        ),
        final_bits,
        retired,
    )
    return _finish(col, pred, state)


_RUNNERS = {
    "baseline_hybrid": _run_baseline_hybrid,
    "gshare_perceptron_hybrid": _run_gshare_perceptron_hybrid,
    "tage": _run_tage,
}


def run_predictor(spec, col: ColumnarTrace) -> PredictorPass:
    """Replay ``spec`` (a PredictorSpec) over the whole trace from fresh
    tables.  Raises :class:`~repro.fastpath.FastPathUnsupported` for a
    spec without a fast pass."""
    params = arguments(spec)
    return _RUNNERS[spec.kind](col, params)
