"""Counter tables: arrays of saturating or resetting counters.

Two-bit saturating counters are the storage element of the bimodal and
gshare predictors (Table 1 of the paper); 4-bit *resetting* counters --
incremented on a correct prediction, cleared on a misprediction -- are
the storage element of the JRS/enhanced-JRS confidence estimators
(Section 2.3).  :class:`CounterTable` provides an SRAM-like array of
either kind.  The counters live in a plain list of ints: every access
is one scalar read or write on the replay's per-branch path, where a
list item costs a fraction of a numpy scalar's boxing.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CounterTable"]


class CounterTable:
    """A table of identical n-bit counters.

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
        self._resetting = mode == "resetting"
        self._msb_value = 1 << (bits - 1)
        self._table = [int(initial)] * entries

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

    def read(self, index: int) -> int:
        """Return the counter value at ``index`` (mod table size)."""
        return self._table[index % self._entries]

    def update(self, index: int, up: bool) -> int:
        """Apply one update event; returns the new counter value."""
        slot = index % self._entries
        value = self._table[slot]
        if up:
            if value < self._max:
                value += 1
        elif self._resetting:
            value = 0
        elif value > 0:
            value -= 1
        self._table[slot] = value
        return value

    def write(self, index: int, value: int) -> None:
        """Force a counter to ``value``."""
        if not 0 <= value <= self._max:
            raise ValueError(f"value {value} out of range for {self._bits}-bit counter")
        self._table[index % self._entries] = int(value)

    def msb(self, index: int) -> bool:
        """Decision bit of the counter at ``index``."""
        return self._table[index % self._entries] >= self._msb_value

    def snapshot(self) -> np.ndarray:
        """Copy of the raw counter array as ``int32`` (for analysis/tests)."""
        return np.array(self._table, dtype=np.int32)

    def __len__(self) -> int:
        return self._entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CounterTable(entries={self._entries}, bits={self._bits}, "
            f"mode={self._mode!r})"
        )
