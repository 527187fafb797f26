"""TAGE-class predictor (Seznec & Michaud, tagged geometric history).

A base bimodal table backed by a cascade of tagged tables indexed with
geometrically increasing history lengths.  The longest-history table
whose tag matches provides the prediction; the next-longest match (or
the base table) is the alternate.  On a misprediction a new entry is
allocated in a longer-history table, stealing an entry whose "useful"
counter has decayed to zero.

This is the modern-baseline arm of the H2P workload study (see
``docs/workloads.md``): the 2004 bimodal/gshare hybrid tops out at a
10-branch history reach, while TAGE's longest table sees 40 branches --
exactly the gap the hidden-correlation H2P populations live in.  The
question the ``h2p`` sweep asks is whether perceptron confidence
estimation still separates low-confidence branches when the underlying
predictor is this much stronger.

Deliberate simplifications against a contest-grade TAGE, chosen so the
pure-Python verify oracle (``repro.verify.oracles.RefTage``) can
restate the design independently and still agree bit-for-bit:

- allocation picks the *shortest* eligible longer-history table with a
  free (u == 0) entry instead of drawing a randomised victim -- the
  predictor stays fully deterministic in its input stream;
- no use-alt-on-newly-allocated heuristic;
- the periodic useful-counter decay halves every u instead of
  alternately clearing MSB/LSB halves.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.common.bits import fold_bits, mask
from repro.common.counters import CounterTable
from repro.common.history import GlobalHistoryRegister
from repro.predictors.base import BranchPredictor

__all__ = ["TagePredictor", "geometric_history_lengths"]


def _index_width(entries: int, what: str) -> int:
    width = entries.bit_length() - 1
    if (1 << width) != entries:
        raise ValueError(
            f"{what} entries must be a power of two, got {entries}"
        )
    return width


def geometric_history_lengths(
    n_tables: int, min_history: int, max_history: int
) -> Tuple[int, ...]:
    """Strictly increasing geometric series of history lengths.

    ``L_i = min * (max/min)^(i/(n-1))`` rounded, then bumped where
    rounding collides -- the classic TAGE spacing that gives short
    tables for local patterns and long tables for distant correlation.
    """
    if n_tables < 1:
        raise ValueError(f"n_tables must be >= 1, got {n_tables}")
    if not 1 <= min_history <= max_history:
        raise ValueError(
            f"need 1 <= min_history <= max_history, got "
            f"{min_history}..{max_history}"
        )
    if n_tables == 1:
        return (min_history,)
    ratio = (max_history / min_history) ** (1.0 / (n_tables - 1))
    lengths: List[int] = []
    for i in range(n_tables):
        length = int(round(min_history * ratio**i))
        if lengths and length <= lengths[-1]:
            length = lengths[-1] + 1
        lengths.append(length)
    return tuple(lengths)


class TagePredictor(BranchPredictor):
    """Base bimodal plus tagged geometric-history tables.

    Args:
        base_entries: Bimodal fallback table size.
        tagged_entries: Entries per tagged table (power of two).
        n_tables: Number of tagged tables.
        tag_bits: Tag width stored per tagged entry.
        counter_bits: Width of the tagged prediction counters.
        min_history: History length of the shortest tagged table.
        max_history: History length of the longest tagged table.
        u_reset_period: Retired branches between useful-counter decays.
    """

    def __init__(
        self,
        base_entries: int = 4096,
        tagged_entries: int = 1024,
        n_tables: int = 4,
        tag_bits: int = 9,
        counter_bits: int = 3,
        min_history: int = 5,
        max_history: int = 40,
        u_reset_period: int = 16384,
    ):
        super().__init__()
        if base_entries < 1:
            raise ValueError(
                f"base_entries must be positive, got {base_entries}"
            )
        if not 1 <= tag_bits <= 30:
            raise ValueError(f"tag_bits must be in [1, 30], got {tag_bits}")
        if counter_bits < 2:
            raise ValueError(
                f"counter_bits must be >= 2, got {counter_bits}"
            )
        if u_reset_period < 1:
            raise ValueError(
                f"u_reset_period must be positive, got {u_reset_period}"
            )
        self._index_bits = _index_width(tagged_entries, "tage tagged-table")
        self._lengths = geometric_history_lengths(
            n_tables, min_history, max_history
        )
        self.name = (
            f"tage-{n_tables}x{tagged_entries}-"
            f"h{self._lengths[0]}..{self._lengths[-1]}"
        )
        self._tag_bits = tag_bits
        self._counter_bits = counter_bits
        self._ctr_midpoint = 1 << (counter_bits - 1)
        self._u_reset_period = u_reset_period
        self._base = CounterTable(
            base_entries, bits=2, mode="saturating", initial=2
        )
        self._ctr = [
            CounterTable(
                tagged_entries,
                bits=counter_bits,
                mode="saturating",
                initial=self._ctr_midpoint,
            )
            for _ in self._lengths
        ]
        self._tags = [[0] * tagged_entries for _ in self._lengths]
        self._useful = [
            CounterTable(tagged_entries, bits=2, mode="saturating", initial=0)
            for _ in self._lengths
        ]
        self._history = GlobalHistoryRegister(self._lengths[-1])
        self._retired = 0

    @property
    def history_lengths(self) -> Tuple[int, ...]:
        """Per-table history reach, shortest first."""
        return self._lengths

    @property
    def history(self) -> GlobalHistoryRegister:
        """The global history register (owned by this predictor)."""
        return self._history

    def _index(self, table: int, pc: int) -> int:
        h = self._history.bits & mask(self._lengths[table])
        return fold_bits(pc >> 2, self._index_bits) ^ fold_bits(
            h, self._index_bits
        )

    def _tag(self, table: int, pc: int) -> int:
        # Tag hash is deliberately *not* the index hash (different fold
        # widths) so an index collision still usually misses on tag.
        h = self._history.bits & mask(self._lengths[table])
        return (
            fold_bits(pc >> 2, self._tag_bits)
            ^ (fold_bits(h, self._tag_bits - 1) << 1)
        ) & mask(self._tag_bits)

    def _matches(self, pc: int) -> List[Tuple[int, int]]:
        """(table, slot) pairs whose stored tag matches, shortest first."""
        out = []
        for table in range(len(self._lengths)):
            slot = self._index(table, pc)
            if self._tags[table][slot] == self._tag(table, pc):
                out.append((table, slot))
        return out

    def _table_pred(self, table: int, slot: int) -> bool:
        return self._ctr[table].read(slot) >= self._ctr_midpoint

    def _base_pred(self, pc: int) -> bool:
        return self._base.msb(pc >> 2)

    def predict(self, pc: int) -> bool:
        matches = self._matches(pc)
        if matches:
            table, slot = matches[-1]
            return self._table_pred(table, slot)
        return self._base_pred(pc)

    def train(self, pc: int, taken: bool, prediction: bool) -> None:
        matches = self._matches(pc)
        if matches:
            table, slot = matches[-1]
            provider_pred = self._table_pred(table, slot)
            if len(matches) >= 2:
                alt_table, alt_slot = matches[-2]
                alt_pred = self._table_pred(alt_table, alt_slot)
            else:
                alt_pred = self._base_pred(pc)
            self._ctr[table].update(slot, taken)
            # The useful bit only gains signal when provider and
            # alternate disagreed -- otherwise the provider added
            # nothing over its fallback.
            if provider_pred != alt_pred:
                self._useful[table].update(slot, provider_pred == taken)
            provider_table: Optional[int] = table
        else:
            self._base.update(pc >> 2, taken)
            provider_table = None
        if prediction != taken:
            self._allocate(pc, taken, provider_table)
        self._retired += 1
        if self._retired % self._u_reset_period == 0:
            self._decay_useful()

    def _allocate(
        self, pc: int, taken: bool, provider_table: Optional[int]
    ) -> None:
        start = 0 if provider_table is None else provider_table + 1
        for table in range(start, len(self._lengths)):
            slot = self._index(table, pc)
            if self._useful[table].read(slot) == 0:
                self._tags[table][slot] = self._tag(table, pc)
                self._ctr[table].write(
                    slot,
                    self._ctr_midpoint if taken else self._ctr_midpoint - 1,
                )
                return
        # No free victim: age every candidate so a later mispredict can
        # allocate (the classic TAGE anti-ping-pong rule).
        for table in range(start, len(self._lengths)):
            self._useful[table].update(self._index(table, pc), False)

    def _decay_useful(self) -> None:
        for useful in self._useful:
            for slot in range(useful.entries):
                value = useful.read(slot)
                if value:
                    useful.write(slot, value >> 1)

    def _shift_history(self, taken: bool) -> None:
        self._history.push(taken)

    def confidence_hint(self, pc: int) -> Optional[float]:
        matches = self._matches(pc)
        if matches:
            table, slot = matches[-1]
            value = self._ctr[table].read(slot)
            midpoint = (self._ctr[table].max_value + 1) / 2.0
        else:
            value = self._base.read(pc >> 2)
            midpoint = (self._base.max_value + 1) / 2.0
        return abs(value + 0.5 - midpoint) / (midpoint - 0.5)

    @property
    def storage_bits(self) -> int:
        tagged = sum(
            ctr.storage_bits + useful.storage_bits + len(tags) * self._tag_bits
            for ctr, useful, tags in zip(self._ctr, self._useful, self._tags)
        )
        return self._base.storage_bits + tagged

    def reset(self) -> None:
        super().reset()
        self._base.fill(2)
        for ctr in self._ctr:
            ctr.fill(self._ctr_midpoint)
        for tags in self._tags:
            for slot in range(len(tags)):
                tags[slot] = 0
        for useful in self._useful:
            useful.fill(0)
        self._history.clear()
        self._retired = 0

    def state_canonical(self) -> tuple:
        return (
            "tage",
            self._lengths,
            tuple(int(v) for v in self._base.snapshot()),
            tuple(
                (
                    tuple(int(v) for v in ctr.snapshot()),
                    tuple(tags),
                    tuple(int(v) for v in useful.snapshot()),
                )
                for ctr, tags, useful in zip(
                    self._ctr, self._tags, self._useful
                )
            ),
            self._history.bits,
            self._retired,
        )
