"""Columnar trace views for the fast backend.

The reference front end walks a trace branch by branch; the fast
backend instead reads the whole trace at once.  A
:class:`~repro.trace.record.Trace` already holds its branches as three
plain lists, which the scalar table loops use as they are; the view
adds numpy arrays of the pcs and directions for the vector passes, and
caches derived per-branch history words per length.  The view is cached
per trace object in a ``WeakKeyDictionary`` so repeated jobs over the
engine's cached traces pay for the arrays once.
"""

from __future__ import annotations

import weakref
from typing import Dict, List

import numpy as np

from repro.fastpath.kernels import final_history_bits, history_bits

__all__ = ["ColumnarTrace", "get_columnar"]

#: pcs at or above this bound could overflow the uint64 hash/index
#: arithmetic (the path-perceptron hash shifts ``pc >> 2`` left by 20
#: bits).
MAX_SUPPORTED_PC = 1 << 40


class ColumnarTrace:
    """One trace's columns as lists and arrays, plus per-length history."""

    def __init__(self, trace):
        # Scalar-loop views: Python lists are markedly faster than
        # element-wise numpy indexing in the per-branch table loops, and
        # the trace's own columns already are such lists.
        self.pc_list: List[int] = trace.pc
        self.taken_list: List[bool] = trace.taken
        self.uops_list: List[int] = trace.uops_before
        n = len(self.pc_list)
        self.n = n
        # Bound the pcs on the Python ints, before any fixed-width
        # conversion could overflow on them.
        if n and (min(self.pc_list) < 0 or max(self.pc_list) >= MAX_SUPPORTED_PC):
            raise ValueError(
                f"trace pcs outside [0, {MAX_SUPPORTED_PC:#x}) are not "
                f"supported by the fast backend"
            )
        self.pcs = np.array(self.pc_list, dtype=np.int64)
        self.takens = np.array(self.taken_list, dtype=np.uint8)
        self.taken_ints: List[int] = self.takens.tolist()
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
