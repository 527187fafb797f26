"""Counter tables: arrays of saturating or resetting counters.

Two-bit saturating counters are the storage element of the bimodal and
gshare predictors (Table 1 of the paper); 4-bit *resetting* counters --
incremented on a correct prediction, cleared on a misprediction -- are
the storage element of the JRS/enhanced-JRS confidence estimators
(Section 2.3).  :class:`CounterTable` provides an SRAM-like array of
either kind backed by a numpy vector so big tables stay cheap.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CounterTable"]


class CounterTable:
    """A table of identical n-bit counters, numpy-backed.

    ``mode`` selects the update semantics:

    - ``"saturating"``: :meth:`update` counts up/down with saturation
      (branch-predictor PHT behaviour).
    - ``"resetting"``: :meth:`update` increments on ``True`` and clears
      to zero on ``False`` (JRS MDC behaviour).

    Indices are taken modulo the table size so callers may pass raw
    hashes without pre-masking.
    """

    VALID_MODES = ("saturating", "resetting")

    def __init__(
        self,
        entries: int,
        bits: int = 2,
        mode: str = "saturating",
        initial: int = 0,
    ):
        if entries <= 0:
            raise ValueError(f"table must have at least one entry, got {entries}")
        if bits <= 0 or bits > 16:
            raise ValueError(f"counter width must be in [1, 16], got {bits}")
        if mode not in self.VALID_MODES:
            raise ValueError(f"mode must be one of {self.VALID_MODES}, got {mode!r}")
        self._entries = entries
        self._bits = bits
        self._max = (1 << bits) - 1
        if not 0 <= initial <= self._max:
            raise ValueError(f"initial value {initial} out of range")
        self._mode = mode
        self._table = np.full(entries, initial, dtype=np.int32)

    @property
    def entries(self) -> int:
        """Number of counters in the table."""
        return self._entries

    @property
    def bits(self) -> int:
        """Width of each counter in bits."""
        return self._bits

    @property
    def max_value(self) -> int:
        """Per-counter saturation ceiling."""
        return self._max

    @property
    def mode(self) -> str:
        """Update semantics, ``"saturating"`` or ``"resetting"``."""
        return self._mode

    @property
    def storage_bits(self) -> int:
        """Total storage budget of the table in bits."""
        return self._entries * self._bits

    def _slot(self, index: int) -> int:
        return index % self._entries

    def read(self, index: int) -> int:
        """Return the counter value at ``index`` (mod table size)."""
        return int(self._table[self._slot(index)])

    def update(self, index: int, up: bool) -> int:
        """Apply one update event; returns the new counter value."""
        slot = self._slot(index)
        value = int(self._table[slot])
        if self._mode == "saturating":
            if up:
                if value < self._max:
                    value += 1
            elif value > 0:
                value -= 1
        else:  # resetting
            if up:
                if value < self._max:
                    value += 1
            else:
                value = 0
        self._table[slot] = value
        return value

    def write(self, index: int, value: int) -> None:
        """Force a counter to ``value``."""
        if not 0 <= value <= self._max:
            raise ValueError(f"value {value} out of range for {self._bits}-bit counter")
        self._table[self._slot(index)] = value

    def msb(self, index: int) -> bool:
        """Decision bit of the counter at ``index``."""
        return bool(self.read(index) >> (self._bits - 1))

    def snapshot(self) -> np.ndarray:
        """Copy of the raw counter array (for analysis/tests)."""
        return self._table.copy()

    def __len__(self) -> int:
        return self._entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CounterTable(entries={self._entries}, bits={self._bits}, "
            f"mode={self._mode!r})"
        )
