"""Branch-history registers.

The global history register (GHR) is the shift register of recent
conditional-branch outcomes shared by gshare, the perceptron predictor
and every confidence estimator in the paper.  The perceptron consumes
the history as a +/-1 vector (Section 3); table-indexed structures
consume it as an unsigned bit field.  :class:`GlobalHistoryRegister`
maintains both views coherently so one shift serves all consumers.

:class:`LocalHistoryTable` is the per-branch (PAs-style) first level
used by the Tyson pattern-based confidence estimator.
"""

from __future__ import annotations

import numpy as np

from repro.common.bits import mask

__all__ = ["GlobalHistoryRegister", "LocalHistoryTable"]


class GlobalHistoryRegister:
    """Fixed-length shift register of branch outcomes.

    Bit 0 holds the most recent branch (1 = taken).  The +/-1 vector
    view (:attr:`vector`) is ordered the same way: element 0 is the most
    recent branch, matching the weight ordering used by
    :class:`repro.core.perceptron.PerceptronArray`.

    Only perceptron components read the vector, so a register builds it
    from :attr:`bits` on its first read and shifts it on every push
    after that; until then a push is one integer shift.
    """

    __slots__ = ("_length", "_mask", "_bits", "_vector")

    def __init__(self, length: int):
        if length <= 0:
            raise ValueError(f"history length must be positive, got {length}")
        if length > 64:
            raise ValueError(f"history length above 64 is unsupported, got {length}")
        self._length = length
        self._mask = mask(length)
        self._bits = 0
        self._vector = None

    @property
    def length(self) -> int:
        """Number of branches remembered."""
        return self._length

    @property
    def bits(self) -> int:
        """History as an unsigned bit field (bit 0 = most recent)."""
        return self._bits

    @property
    def vector(self) -> np.ndarray:
        """History as a +/-1 ``int8`` vector (element 0 = most recent).

        The first read builds the vector from :attr:`bits`; from then on
        the returned array is the live internal buffer, shifted by every
        push.  Callers must not mutate it.
        """
        if self._vector is None:
            bits = self._bits
            self._vector = np.array(
                [1 if (bits >> i) & 1 else -1 for i in range(self._length)],
                dtype=np.int8,
            )
        return self._vector

    def push(self, taken: bool) -> None:
        """Shift in one resolved branch outcome."""
        self._bits = ((self._bits << 1) | (1 if taken else 0)) & self._mask
        vector = self._vector
        if vector is not None:
            # Shift the vector view: element i becomes old element i-1.
            vector[1:] = vector[:-1]
            vector[0] = 1 if taken else -1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GlobalHistoryRegister(length={self._length}, "
            f"bits={self._bits:#x})"
        )


class LocalHistoryTable:
    """Per-branch history table (the first level of a PAs predictor).

    Each entry is a short shift register of that static branch's own
    recent outcomes, indexed by (a hash of) the branch address.
    """

    def __init__(self, entries: int, history_length: int):
        if entries <= 0:
            raise ValueError(f"table must have at least one entry, got {entries}")
        if history_length <= 0 or history_length > 32:
            raise ValueError(
                f"local history length must be in [1, 32], got {history_length}"
            )
        self._entries = entries
        self._length = history_length
        self._mask = mask(history_length)
        self._table = [0] * entries

    @property
    def entries(self) -> int:
        """Number of per-branch history registers."""
        return self._entries

    @property
    def history_length(self) -> int:
        """Bits of local history kept per branch."""
        return self._length

    @property
    def storage_bits(self) -> int:
        """Total storage budget in bits."""
        return self._entries * self._length

    def _slot(self, pc: int) -> int:
        # Drop byte-offset bits of 4-aligned instruction addresses.
        return (pc >> 2) % self._entries

    def read(self, pc: int) -> int:
        """Return the local-history pattern for branch ``pc``."""
        return self._table[self._slot(pc)]

    def push(self, pc: int, taken: bool) -> int:
        """Shift one outcome into branch ``pc``'s register; return it."""
        slot = self._slot(pc)
        value = ((self._table[slot] << 1) | (1 if taken else 0)) & self._mask
        self._table[slot] = value
        return value

    def __len__(self) -> int:
        return self._entries
