"""Bit-manipulation helpers shared by predictors and estimators.

Hardware branch predictors index SRAM tables with hashes of the branch
address and history bits.  These helpers provide the small vocabulary of
operations those index functions are built from: masking to a field
width, counting set bits and XOR-folding a wide value into a narrow
one.  :func:`mix_hash` has a vectorised twin, :func:`mix_hash_u64`,
for whole uint64 columns.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "mask",
    "popcount",
    "fold_bits",
    "mix_hash",
    "mix_hash_u64",
]

# 64-bit golden-ratio multiplier used by :func:`mix_hash`.
_GOLDEN = 0x9E3779B97F4A7C15
_U64 = (1 << 64) - 1


def mask(nbits: int) -> int:
    """Return an ``nbits``-wide all-ones mask (``nbits == 0`` gives 0)."""
    if nbits < 0:
        raise ValueError(f"mask width must be non-negative, got {nbits}")
    return (1 << nbits) - 1


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
    m = (1 << width) - 1
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

