"""JRS miss-distance-counter confidence estimators (Section 2.3).

The original JRS estimator [6] keeps a table of resetting counters
indexed by ``pc XOR global-history`` (gshare-style).  A counter is
incremented when its branch is correctly predicted and cleared on a
misprediction, so its value is the distance since the last miss.  A
branch whose counter is **at or above** the threshold ``lambda`` is
high confidence.

The *enhanced* JRS estimator of Grunwald et al. [4] additionally folds
the current prediction into the index, splitting each context into a
taken-predicted and a not-taken-predicted counter.  The paper uses the
enhanced variant (8K entries x 4 bits = 4KB) as the best-known prior
method that the perceptron estimator is compared against.
"""

from __future__ import annotations

from typing import Dict

from repro.common.bits import fold_bits, mask
from repro.common.counters import CounterTable
from repro.common.history import GlobalHistoryRegister
from repro.core.estimator import ConfidenceEstimator
from repro.core.types import ConfidenceSignal

__all__ = ["JRSEstimator"]


class JRSEstimator(ConfidenceEstimator):
    """Miss-distance-counter estimator, original or enhanced indexing.

    Args:
        entries: MDC table size (power of two; paper uses 8192).
        counter_bits: Resetting counter width (paper uses 4).
        threshold: ``lambda`` -- counters at or above it are high
            confidence.  Table 3 sweeps 3, 7, 11, 15.
        history_length: Bits of global history in the index.
        enhanced: Fold the current prediction into the index (the [4]
            enhancement; the paper's default comparator).
    """

    def __init__(
        self,
        entries: int = 8192,
        counter_bits: int = 4,
        threshold: int = 7,
        history_length: int = 13,
        enhanced: bool = True,
    ):
        width = entries.bit_length() - 1
        if (1 << width) != entries:
            raise ValueError(f"JRS table entries must be a power of two, got {entries}")
        if not 0 < threshold <= (1 << counter_bits) - 1:
            raise ValueError(
                f"threshold must be in [1, {(1 << counter_bits) - 1}], "
                f"got {threshold}"
            )
        if history_length <= 0:
            raise ValueError(f"history_length must be positive, got {history_length}")
        self._index_bits = width
        self._index_mask = mask(width)
        self._folded_pcs: Dict[int, int] = {}
        self._table = CounterTable(
            entries, bits=counter_bits, mode="resetting", initial=0
        )
        self.threshold = threshold
        # One frozen signal per counter value, shared by every estimate.
        self._signals = tuple(
            ConfidenceSignal.high(float(value))
            if value >= threshold
            else ConfidenceSignal.weak_low(float(value))
            for value in range(self._table.max_value + 1)
        )
        self.enhanced = enhanced
        self._history = GlobalHistoryRegister(history_length)
        self.name = ("enhanced-jrs" if enhanced else "jrs") + f"-l{threshold}"

    @property
    def history(self) -> GlobalHistoryRegister:
        """The estimator's private global history register."""
        return self._history

    @property
    def entries(self) -> int:
        """MDC table size."""
        return self._table.entries

    @property
    def counter_max(self) -> int:
        """Saturation ceiling of the miss-distance counters."""
        return self._table.max_value

    def _index(self, pc: int, prediction: bool) -> int:
        context = self._history.bits
        if self.enhanced:
            # Include the prediction with the history, as in [4].
            context = (context << 1) | (1 if prediction else 0)
        folded_context = fold_bits(context, self._index_bits)
        folded_pc = self._folded_pcs.get(pc)
        if folded_pc is None:
            folded_pc = self._folded_pcs[pc] = fold_bits(pc >> 2, self._index_bits)
        return (folded_pc ^ folded_context) & self._index_mask

    def estimate(self, pc: int, prediction: bool) -> ConfidenceSignal:
        return self._signals[self._table.read(self._index(pc, prediction))]

    def train(
        self, pc: int, prediction: bool, correct: bool, signal: ConfidenceSignal
    ) -> None:
        self._table.update(self._index(pc, prediction), correct)

    def shift_history(self, taken: bool) -> None:
        self._history.push(taken)

    @property
    def storage_bits(self) -> int:
        return self._table.storage_bits

    def state_canonical(self) -> tuple:
        return (
            "jrs",
            bool(self.enhanced),
            tuple(int(v) for v in self._table.snapshot()),
            self._history.bits,
        )
