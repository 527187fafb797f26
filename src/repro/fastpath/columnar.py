"""Columnar trace views for the fast backend.

The reference front end walks a trace record by record; the fast
backend instead lowers the whole trace once into parallel columns
(numpy arrays for vector passes, plain lists for the scalar table
loops) and caches derived per-branch history words per length.  The
view is cached per :class:`~repro.trace.record.Trace` object in a
``WeakKeyDictionary`` so repeated jobs over the engine's cached traces
pay the lowering cost once.
"""

from __future__ import annotations

import weakref
from typing import Dict, List

import numpy as np

from repro.fastpath.kernels import final_history_bits, history_bits

__all__ = ["ColumnarTrace", "get_columnar"]

#: pcs above this bound could overflow the uint64 hash/index arithmetic
#: (the path-perceptron hash shifts ``pc >> 2`` left by 20 bits).
MAX_SUPPORTED_PC = 1 << 40


class ColumnarTrace:
    """One trace lowered into column arrays plus per-length history."""

    def __init__(self, trace):
        n = len(trace)
        self.n = n
        self.takens = np.fromiter(
            (record.taken for record in trace), dtype=np.uint8, count=n
        )
        self.pcs = np.fromiter(
            (record.pc for record in trace), dtype=np.int64, count=n
        )
        if n and (self.pcs.min() < 0 or self.pcs.max() >= MAX_SUPPORTED_PC):
            raise ValueError(
                f"trace pcs outside [0, {MAX_SUPPORTED_PC:#x}) are not "
                f"supported by the fast backend"
            )
        # Scalar-loop views: Python lists are markedly faster than
        # element-wise numpy indexing in the per-branch table loops.
        self.taken_list: List[bool] = self.takens.astype(bool).tolist()
        self.taken_ints: List[int] = self.takens.tolist()
        self.pc_list: List[int] = self.pcs.tolist()
        self.uops_list: List[int] = [record.uops_before for record in trace]
        self._history: Dict[int, np.ndarray] = {}

    def history(self, length: int) -> np.ndarray:
        """Per-branch pre-branch history words, cached per length."""
        cached = self._history.get(length)
        if cached is None:
            cached = history_bits(self.takens, length)
            self._history[length] = cached
        return cached

    def final_history(self, length: int) -> int:
        """GHR bits after the whole trace has been replayed."""
        return final_history_bits(self.takens, length)

    def path_before(self, length: int) -> np.ndarray:
        """Per-branch padded path context for sliding-window matrices.

        Returns ``length`` zero slots (the empty pre-trace path)
        followed by all but the last pc, so
        ``sliding_window_view(..., length)`` row ``i`` holds the
        ``length`` addresses retired before branch ``i`` in
        chronological order.
        """
        window = np.zeros(length, dtype=np.uint64)
        body = (self.pcs[:-1] if self.n else self.pcs).astype(np.uint64)
        return np.concatenate([window, body])

    def popcounts(self, length: int) -> List[int]:
        """Per-branch taken-count of the ``length``-bit history."""
        return np.bitwise_count(self.history(length)).astype(np.int64).tolist()


_COLUMNAR_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def get_columnar(trace) -> ColumnarTrace:
    """Columnar view of ``trace``, cached for the trace's lifetime."""
    view = _COLUMNAR_CACHE.get(trace)
    if view is None:
        view = ColumnarTrace(trace)
        _COLUMNAR_CACHE[trace] = view
    return view
