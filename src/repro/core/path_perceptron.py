"""Path-based perceptron confidence estimation (extension).

Jimenez's later neural predictors index each weight by the *path* --
the addresses of the preceding branches -- instead of selecting one
whole weight row by the current branch address.  Applied to confidence
estimation, weight ``i`` lives in a table indexed by a hash of the
``i``-th most recent branch address (and the position), so branches
sharing a path prefix share training, and destructive aliasing within
one 128-row table is traded for constructive sharing across paths.

Training follows the paper's cic rule (target = prediction outcome);
only the indexing differs from
:class:`repro.core.perceptron_estimator.PerceptronConfidenceEstimator`.
The estimator tracks the path itself: the front-end protocol delivers
every retired branch to :meth:`train` in program order, so the last
``history_length`` trained pcs *are* the path.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.common.bits import mix_hash
from repro.common.history import GlobalHistoryRegister
from repro.core.estimator import ConfidenceEstimator
from repro.core.types import ConfidenceSignal

__all__ = ["PathPerceptronConfidenceEstimator"]


class PathPerceptronConfidenceEstimator(ConfidenceEstimator):
    """cic-trained perceptron with path-hashed weight selection.

    Args:
        table_entries: Rows in each per-position weight table.
        history_length: Path/history depth (weights per output).
        weight_bits: Stored weight width (saturating).
        threshold: ``lambda`` -- output above it is low confidence.
        training_threshold: The cic rule's ``T``.
    """

    def __init__(
        self,
        table_entries: int = 256,
        history_length: int = 16,
        weight_bits: int = 8,
        threshold: float = 0.0,
        training_threshold: int = 64,
    ):
        if table_entries <= 0:
            raise ValueError(f"table_entries must be positive, got {table_entries}")
        if not 0 < history_length <= 64:
            raise ValueError(
                f"history_length must be in [1, 64], got {history_length}"
            )
        if not 2 <= weight_bits <= 16:
            raise ValueError(f"weight_bits must be in [2, 16], got {weight_bits}")
        if training_threshold < 0:
            raise ValueError(
                f"training_threshold must be >= 0, got {training_threshold}"
            )
        self.table_entries = table_entries
        self.history_length = history_length
        self.weight_bits = weight_bits
        self.threshold = threshold
        self.training_threshold = training_threshold
        self._w_max = (1 << (weight_bits - 1)) - 1
        self._w_min = -(1 << (weight_bits - 1))
        # One weight table per path position, plus a bias table indexed
        # by the current pc.
        self._weights = np.zeros(
            (history_length, table_entries), dtype=np.int32
        )
        self._bias = np.zeros(table_entries, dtype=np.int32)
        self._history = GlobalHistoryRegister(history_length)
        self._path = deque(maxlen=history_length)
        self.name = (
            f"path-perceptron-T{table_entries}H{history_length}-l{threshold:g}"
        )

    @property
    def history(self) -> GlobalHistoryRegister:
        """The estimator's outcome history register."""
        return self._history

    def _indices(self, pc: int) -> np.ndarray:
        """Weight-table index per path position."""
        idx = np.empty(self.history_length, dtype=np.int64)
        path = list(self._path)
        for i in range(self.history_length):
            past_pc = path[-(i + 1)] if i < len(path) else 0
            idx[i] = mix_hash(((pc >> 2) << 20) ^ ((past_pc >> 2) << 4) ^ i) % (
                self.table_entries
            )
        return idx

    def output(self, pc: int) -> int:
        """Raw multi-valued output for the current path and history."""
        indices = self._indices(pc)
        weights = self._weights[np.arange(self.history_length), indices]
        xs = self._history.vector[: self.history_length]
        bias = self._bias[(pc >> 2) % self.table_entries]
        return int(bias + np.dot(weights, xs))

    def estimate(self, pc: int, prediction: bool) -> ConfidenceSignal:
        y = self.output(pc)
        if y > self.threshold:
            return ConfidenceSignal.weak_low(float(y))
        return ConfidenceSignal.high(float(y))

    def train(
        self, pc: int, prediction: bool, correct: bool, signal: ConfidenceSignal
    ) -> None:
        y = signal.raw
        p = -1 if correct else 1
        c = 1 if signal.low_confidence else -1
        if c != p or abs(y) <= self.training_threshold:
            indices = self._indices(pc)
            rows = np.arange(self.history_length)
            xs = self._history.vector[: self.history_length].astype(np.int32)
            updated = self._weights[rows, indices] + p * xs
            np.clip(updated, self._w_min, self._w_max, out=updated)
            self._weights[rows, indices] = updated
            slot = (pc >> 2) % self.table_entries
            self._bias[slot] = int(
                np.clip(self._bias[slot] + p, self._w_min, self._w_max)
            )
        # The retired branch extends the path for everything younger.
        self._path.append(pc)

    def shift_history(self, taken: bool) -> None:
        self._history.push(taken)

    @property
    def storage_bits(self) -> int:
        return (
            self._weights.size * self.weight_bits
            + self._bias.size * self.weight_bits
        )

    def state_canonical(self) -> tuple:
        return (
            "path_perceptron",
            tuple(tuple(int(w) for w in row) for row in self._weights),
            tuple(int(b) for b in self._bias),
            self._history.bits,
            tuple(self._path),
        )
