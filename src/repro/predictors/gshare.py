"""gshare predictor (McFarling).

A table of 2-bit counters indexed by the XOR of the branch address and
the global branch history, giving one counter per (branch, path
context) pair.  This is the second component of the paper's baseline
hybrid ("64K gshare") and the history-based predictor whose *limited
history reach* the hidden-correlation trace population exploits.
"""

from __future__ import annotations

from typing import Optional

from repro.common.counters import CounterTable
from repro.common.history import GlobalHistoryRegister
from repro.predictors.base import BranchPredictor

__all__ = ["GSharePredictor"]


def _index_width(entries: int) -> int:
    width = entries.bit_length() - 1
    if (1 << width) != entries:
        raise ValueError(f"gshare table entries must be a power of two, got {entries}")
    return width


class GSharePredictor(BranchPredictor):
    """Global-history XOR PC indexed counter table.

    Args:
        entries: Counter-table size (power of two).
        history_length: Bits of global history used in the index.
        counter_bits: Width of each saturating counter.
        shared_history: Optional externally-owned history register; when
            provided this predictor never shifts it (the owner does),
            matching a hybrid's single physical GHR.
    """

    def __init__(
        self,
        entries: int = 65536,
        history_length: int = 14,
        counter_bits: int = 2,
        shared_history: Optional[GlobalHistoryRegister] = None,
    ):
        self.name = f"gshare-{entries}-h{history_length}"
        self._index_bits = _index_width(entries)
        if history_length <= 0:
            raise ValueError(
                f"history_length must be positive, got {history_length}"
            )
        self._history_length = history_length
        self._table = CounterTable(entries, bits=counter_bits, mode="saturating",
                                   initial=(1 << counter_bits) // 2)
        self._midpoint = (self._table.max_value + 1) / 2.0
        if shared_history is not None:
            if shared_history.length < history_length:
                raise ValueError(
                    "shared history register shorter than the predictor's "
                    f"history_length ({shared_history.length} < {history_length})"
                )
            self._history = shared_history
            self._owns_history = False
        else:
            self._history = GlobalHistoryRegister(history_length)
            self._owns_history = True

    @property
    def history_length(self) -> int:
        """Bits of global history folded into the index."""
        return self._history_length

    @property
    def history(self) -> GlobalHistoryRegister:
        """The history register consulted by this predictor."""
        return self._history

    def _index(self, pc: int) -> int:
        history_bits = self._history.bits & ((1 << self._history_length) - 1)
        from repro.common.bits import fold_bits

        folded_history = fold_bits(history_bits, self._index_bits)
        folded_pc = fold_bits(pc >> 2, self._index_bits)
        return folded_pc ^ folded_history

    def predict(self, pc: int) -> bool:
        return self._table.msb(self._index(pc))

    def train(self, pc: int, taken: bool, prediction: bool) -> None:
        self._table.update(self._index(pc), taken)

    def _shift_history(self, taken: bool) -> None:
        if self._owns_history:
            self._history.push(taken)

    def confidence_hint(self, pc: int) -> Optional[float]:
        value = self._table.read(self._index(pc))
        return abs(value + 0.5 - self._midpoint) / (self._midpoint - 0.5)

    @property
    def storage_bits(self) -> int:
        return self._table.storage_bits

    def state_canonical(self) -> tuple:
        return (
            "gshare",
            self._history_length,
            tuple(int(v) for v in self._table.snapshot()),
            self._history.bits,
        )
