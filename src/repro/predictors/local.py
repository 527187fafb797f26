"""Two-level local (PAs) predictor.

First level: per-branch history registers; second level: a pattern
history table of saturating counters indexed by the local pattern.
The Tyson pattern-based confidence estimator (Section 2.3) classifies
confidence from the same local patterns, so this predictor doubles as
its substrate.
"""

from __future__ import annotations

from typing import Optional

from repro.common.counters import CounterTable
from repro.common.history import LocalHistoryTable
from repro.predictors.base import BranchPredictor

__all__ = ["LocalPredictor"]


class LocalPredictor(BranchPredictor):
    """PAs: per-address history selecting a shared pattern table."""

    def __init__(
        self,
        history_entries: int = 2048,
        history_length: int = 10,
        pattern_bits: int = 2,
    ):
        self.name = f"local-{history_entries}x{history_length}"
        self._histories = LocalHistoryTable(history_entries, history_length)
        self._patterns = CounterTable(
            1 << history_length,
            bits=pattern_bits,
            mode="saturating",
            initial=(1 << pattern_bits) // 2,
        )
        self._midpoint = (self._patterns.max_value + 1) / 2.0

    @property
    def history_length(self) -> int:
        """Bits of local history per branch."""
        return self._histories.history_length

    def local_pattern(self, pc: int) -> int:
        """Current local-history pattern for ``pc`` (estimator hook)."""
        return self._histories.read(pc)

    def predict(self, pc: int) -> bool:
        return self._patterns.msb(self._histories.read(pc))

    def train(self, pc: int, taken: bool, prediction: bool) -> None:
        pattern = self._histories.read(pc)
        self._patterns.update(pattern, taken)
        self._histories.push(pc, taken)

    def confidence_hint(self, pc: int) -> Optional[float]:
        value = self._patterns.read(self._histories.read(pc))
        return abs(value + 0.5 - self._midpoint) / (self._midpoint - 0.5)

    @property
    def storage_bits(self) -> int:
        return self._histories.storage_bits + self._patterns.storage_bits
