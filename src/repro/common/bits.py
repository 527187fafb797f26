"""Bit-manipulation helpers shared by predictors and estimators.

Hardware branch predictors index SRAM tables with hashes of the branch
address and history bits.  These helpers provide the small vocabulary of
operations those index functions are built from: masking to a field
width, XOR-folding a wide value into a narrow one, and converting
between unsigned fields and signed two's-complement values (needed for
perceptron weights stored in fixed-width fields).  :func:`mix_hash` has
a vectorised twin, :func:`mix_hash_u64`, for whole uint64 columns.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "mask",
    "bit_at",
    "popcount",
    "fold_bits",
    "mix_hash",
    "mix_hash_u64",
    "sign",
    "to_signed",
    "to_unsigned",
    "bits_to_pm1",
    "pm1_to_bits",
]

# 64-bit golden-ratio multiplier used by :func:`mix_hash`.
_GOLDEN = 0x9E3779B97F4A7C15
_U64 = (1 << 64) - 1


def mask(nbits: int) -> int:
    """Return an ``nbits``-wide all-ones mask (``nbits == 0`` gives 0)."""
    if nbits < 0:
        raise ValueError(f"mask width must be non-negative, got {nbits}")
    return (1 << nbits) - 1


def bit_at(value: int, index: int) -> int:
    """Return bit ``index`` (0 = LSB) of ``value`` as 0 or 1."""
    if index < 0:
        raise ValueError(f"bit index must be non-negative, got {index}")
    return (value >> index) & 1


def popcount(value: int) -> int:
    """Number of set bits in a non-negative integer."""
    if value < 0:
        raise ValueError("popcount requires a non-negative value")
    return bin(value).count("1")


def fold_bits(value: int, width: int) -> int:
    """XOR-fold ``value`` down to ``width`` bits.

    This is the classic technique used to compress a long global history
    register into a table index: successive ``width``-bit slices of the
    input are XORed together.  ``width == 0`` returns 0.
    """
    if width < 0:
        raise ValueError(f"fold width must be non-negative, got {width}")
    if width == 0:
        return 0
    folded = 0
    v = value
    m = mask(width)
    while v:
        folded ^= v & m
        v >>= width
    return folded


def mix_hash(value: int) -> int:
    """Cheap 64-bit integer mixer (splitmix-style) for synthetic traces.

    Not cryptographic; used to decorrelate derived seeds and to generate
    deterministic per-branch jitter in the pipeline model.
    """
    v = (value + _GOLDEN) & _U64
    v = ((v ^ (v >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    v = ((v ^ (v >> 27)) * 0x94D049BB133111EB) & _U64
    return v ^ (v >> 31)


def mix_hash_u64(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`mix_hash` (splitmix64 mixer).

    Exact for inputs below 2**64; uint64 wraparound matches the
    reference's explicit ``& _U64`` masking.
    """
    u64 = np.uint64
    with np.errstate(over="ignore"):
        v = np.asarray(values, dtype=u64) + u64(_GOLDEN)
        v = (v ^ (v >> u64(30))) * u64(0xBF58476D1CE4E5B9)
        v = (v ^ (v >> u64(27))) * u64(0x94D049BB133111EB)
    return v ^ (v >> u64(31))


def sign(value: float) -> int:
    """Return -1, 0 or +1 matching the sign of ``value``."""
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


def to_signed(value: int, nbits: int) -> int:
    """Interpret an ``nbits``-wide unsigned field as two's complement."""
    if nbits <= 0:
        raise ValueError(f"field width must be positive, got {nbits}")
    value &= mask(nbits)
    sign_bit = 1 << (nbits - 1)
    return value - (1 << nbits) if value & sign_bit else value


def to_unsigned(value: int, nbits: int) -> int:
    """Store a signed value into an ``nbits``-wide two's-complement field."""
    if nbits <= 0:
        raise ValueError(f"field width must be positive, got {nbits}")
    return value & mask(nbits)


def bits_to_pm1(history: int, length: int) -> tuple:
    """Expand ``length`` low bits of ``history`` into a +/-1 tuple.

    Bit ``i`` of the register becomes element ``i`` of the tuple: 1 for a
    taken branch, -1 for a not-taken branch.  This is the perceptron
    input encoding from Section 3 of the paper.
    """
    if length < 0:
        raise ValueError(f"history length must be non-negative, got {length}")
    return tuple(1 if (history >> i) & 1 else -1 for i in range(length))


def pm1_to_bits(values) -> int:
    """Inverse of :func:`bits_to_pm1`; +1 maps to a set bit."""
    out = 0
    for i, v in enumerate(values):
        if v not in (1, -1):
            raise ValueError(f"perceptron inputs must be +/-1, got {v!r}")
        if v == 1:
            out |= 1 << i
    return out
