"""Trace data model.

A trace is the correct-path sequence of *conditional branches* a
program retires, annotated with the number of non-branch uops fetched
between consecutive branches.  This is exactly the information the
paper's front-end structures observe: branch address, resolved
direction, and uop volume (for the per-1000-uop rates of Table 2).

A :class:`Trace` holds its branches as three parallel columns and
builds :class:`BranchRecord` objects only when read, as
:class:`~repro.core.frontend.FrontEndEvents` does for replay events.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional

__all__ = ["BranchRecord", "TraceStats", "Trace"]


@dataclass(frozen=True)
class BranchRecord:
    """One dynamic conditional branch on the correct path.

    Attributes:
        pc: Address of the branch instruction.
        taken: Resolved direction (True = taken).
        uops_before: Non-branch uops fetched since the previous branch
            (the branch itself counts as one additional uop).
    """

    pc: int
    taken: bool
    uops_before: int = 7

    def __post_init__(self):
        if self.pc < 0:
            raise ValueError(f"pc must be non-negative, got {self.pc}")
        if self.uops_before < 0:
            raise ValueError(
                f"uops_before must be non-negative, got {self.uops_before}"
            )

    @property
    def uops(self) -> int:
        """Total uops this record contributes (preceding uops + branch)."""
        return self.uops_before + 1


_new = object.__new__


def _record(pc, taken, uops_before) -> BranchRecord:
    """One record from column values a :class:`Trace` already checked.

    Fills the frozen dataclass through its ``__dict__``, which is what
    its ``__init__`` does minus the per-field ``object.__setattr__``
    calls and the ``__post_init__`` check.
    """
    record = _new(BranchRecord)
    d = record.__dict__
    d["pc"] = pc
    d["taken"] = taken
    d["uops_before"] = uops_before
    return record


@dataclass
class TraceStats:
    """Aggregate statistics of a trace."""

    branches: int = 0
    taken: int = 0
    total_uops: int = 0
    static_branches: int = 0

    @property
    def taken_fraction(self) -> float:
        """Fraction of dynamic branches that were taken."""
        return self.taken / self.branches if self.branches else 0.0

    @property
    def branches_per_kuop(self) -> float:
        """Dynamic conditional branches per 1000 uops."""
        return 1000.0 * self.branches / self.total_uops if self.total_uops else 0.0


class Trace(Sequence):
    """An ordered, read-only sequence of :class:`BranchRecord` with metadata.

    The branches live in three equal-length plain lists: ``pc``,
    ``taken`` (bools) and ``uops_before``.  Hot readers (the reference
    front end, the fast backend, trace files, statistics and digests)
    read the columns; records are built only when the trace is iterated
    or indexed, afresh on every read.  Slicing gives another trace with
    the same name and seed.  Pickling stores the columns.

    Traces are immutable once built and experiments share them freely:
    nothing may change a column after construction, and slices and
    :meth:`slice` copy their columns.  A trace compares and hashes by
    identity, so the fast backend's per-trace caches key on the object.
    """

    def __init__(
        self,
        records: Iterable[BranchRecord],
        name: str = "anonymous",
        seed: Optional[int] = None,
    ):
        records = records if isinstance(records, list) else list(records)
        self._init(
            [r.pc for r in records],
            [r.taken for r in records],
            [r.uops_before for r in records],
            name,
            seed,
        )

    def _init(self, pc, taken, uops_before, name, seed) -> None:
        self.pc: List[int] = pc
        self.taken: List[bool] = taken
        self.uops_before: List[int] = uops_before
        self._name = name
        self._seed = seed
        self._stats: Optional[TraceStats] = None

    @classmethod
    def from_columns(
        cls,
        pc: List[int],
        taken: List[bool],
        uops_before: List[int],
        name: str = "anonymous",
        seed: Optional[int] = None,
    ) -> "Trace":
        """A trace over three parallel lists, which it keeps (no copy).

        Checks the columns in bulk and raises the :class:`ValueError`
        that :class:`BranchRecord` raises for the first negative pc or
        ``uops_before``, and one for columns of unequal length.
        """
        if not len(pc) == len(taken) == len(uops_before):
            raise ValueError(
                f"trace columns differ in length: pc={len(pc)}, "
                f"taken={len(taken)}, uops_before={len(uops_before)}"
            )
        if pc and min(pc) < 0:
            bad = next(v for v in pc if v < 0)
            raise ValueError(f"pc must be non-negative, got {bad}")
        if uops_before and min(uops_before) < 0:
            bad = next(v for v in uops_before if v < 0)
            raise ValueError(f"uops_before must be non-negative, got {bad}")
        trace = _new(cls)
        trace._init(pc, taken, uops_before, name, seed)
        return trace

    @property
    def name(self) -> str:
        """Workload name (benchmark name for generated traces)."""
        return self._name

    @property
    def seed(self) -> Optional[int]:
        """Generator seed, when the trace was synthesised."""
        return self._seed

    def __len__(self) -> int:
        return len(self.pc)

    def __iter__(self) -> Iterator[BranchRecord]:
        return map(_record, self.pc, self.taken, self.uops_before)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trace.from_columns(
                self.pc[index],
                self.taken[index],
                self.uops_before[index],
                name=self._name,
                seed=self._seed,
            )
        return _record(self.pc[index], self.taken[index], self.uops_before[index])

    def stats(self) -> TraceStats:
        """Compute (and cache) aggregate statistics."""
        if self._stats is None:
            n = len(self.pc)
            self._stats = TraceStats(
                branches=n,
                taken=sum(self.taken),
                total_uops=sum(self.uops_before) + n,
                static_branches=len(set(self.pc)),
            )
        return self._stats

    def content_digest(self) -> str:
        """SHA-256 hex digest of the records alone.

        Hashes each record's ``(pc, taken, uops_before)`` as
        ``b"<pc>,<taken 0|1>,<uops_before>;"`` in decimal, so the name,
        the seed, the file format and the file's path never change it.
        """
        return hashlib.sha256(
            b"".join(
                [
                    b"%d,%d,%d;" % row
                    for row in zip(self.pc, self.taken, self.uops_before)
                ]
            )
        ).hexdigest()

    def slice(self, start: int, stop: Optional[int] = None) -> "Trace":
        """Return a sub-trace over ``trace[start:stop]``, named for it."""
        return Trace.from_columns(
            self.pc[start:stop],
            self.taken[start:stop],
            self.uops_before[start:stop],
            name=f"{self._name}[{start}:{stop}]",
            seed=self._seed,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Trace(name={self._name!r}, branches={len(self.pc)})"
