"""Bimodal (per-address two-bit counter) predictor.

The classic Smith predictor: a table of 2-bit saturating counters
indexed by the low bits of the branch address.  It captures per-branch
bias and is the first component of the paper's baseline hybrid
("16K bimodal", Table 1).
"""

from __future__ import annotations

from typing import Optional

from repro.common.counters import CounterTable
from repro.predictors.base import BranchPredictor

__all__ = ["BimodalPredictor"]


class BimodalPredictor(BranchPredictor):
    """PC-indexed table of saturating counters."""

    def __init__(self, entries: int = 16384, counter_bits: int = 2):
        self.name = f"bimodal-{entries}"
        self._table = CounterTable(entries, bits=counter_bits, mode="saturating",
                                   initial=(1 << counter_bits) // 2)
        self._midpoint = (self._table.max_value + 1) / 2.0

    @property
    def entries(self) -> int:
        """Number of counters."""
        return self._table.entries

    def _index(self, pc: int) -> int:
        # Drop the byte-offset bits: 4-aligned addresses would otherwise
        # use only every fourth counter.
        return (pc >> 2) % self._table.entries

    def predict(self, pc: int) -> bool:
        return self._table.msb(self._index(pc))

    def train(self, pc: int, taken: bool, prediction: bool) -> None:
        self._table.update(self._index(pc), taken)

    def confidence_hint(self, pc: int) -> Optional[float]:
        value = self._table.read(self._index(pc))
        # Distance from the weak midpoint, normalised to [0, 1].
        return abs(value + 0.5 - self._midpoint) / (self._midpoint - 0.5)

    @property
    def storage_bits(self) -> int:
        return self._table.storage_bits

    def state_canonical(self) -> tuple:
        return ("bimodal", tuple(int(v) for v in self._table.snapshot()))
