"""Shared low-level building blocks for the reproduction.

This subpackage contains the hardware-flavoured primitives every other
subsystem is built from:

- :mod:`repro.common.bits` -- bit-twiddling helpers (masks, folding
  hashes, the +/-1 perceptron input encoding) used by table-indexed
  predictors.
- :mod:`repro.common.counters` -- vectorised tables of saturating or
  resetting counters, the storage element of classic predictors and of
  the JRS confidence estimator.
- :mod:`repro.common.history` -- global and local branch-history
  registers, including the +/-1 vector view consumed by perceptrons.
- :mod:`repro.common.perceptron` -- the saturating perceptron weight
  array shared by the perceptron predictor and estimator.
- :mod:`repro.common.rng` -- child seeds derived by name, so every
  experiment is reproducible from a single seed.

A component's adaptive state is set by its constructor and read back
only through ``state_canonical()``; nothing here saves, loads or
resets it.
"""

from repro.common.bits import (
    fold_bits,
    mask,
    mix_hash,
    popcount,
    sign,
)
from repro.common.counters import CounterTable
from repro.common.history import (
    GlobalHistoryRegister,
    LocalHistoryTable,
)
from repro.common.perceptron import PerceptronArray
from repro.common.rng import derive_seed

__all__ = [
    "fold_bits",
    "mask",
    "mix_hash",
    "popcount",
    "sign",
    "CounterTable",
    "GlobalHistoryRegister",
    "LocalHistoryTable",
    "PerceptronArray",
    "derive_seed",
]
