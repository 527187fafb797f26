"""Trace data model.

A trace is the correct-path sequence of *conditional branches* a
program retires, annotated with the number of non-branch uops fetched
between consecutive branches.  This is exactly the information the
paper's front-end structures observe: branch address, resolved
direction, and uop volume (for the per-1000-uop rates of Table 2).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence

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


class Trace:
    """An ordered collection of :class:`BranchRecord` with metadata.

    Traces are immutable once built; experiments share them freely.
    """

    def __init__(
        self,
        records: Sequence[BranchRecord],
        name: str = "anonymous",
        seed: Optional[int] = None,
    ):
        self._records: List[BranchRecord] = list(records)
        self._name = name
        self._seed = seed
        self._stats: Optional[TraceStats] = None

    @property
    def name(self) -> str:
        """Workload name (benchmark name for generated traces)."""
        return self._name

    @property
    def seed(self) -> Optional[int]:
        """Generator seed, when the trace was synthesised."""
        return self._seed

    @property
    def records(self) -> Sequence[BranchRecord]:
        """The underlying record list (treat as read-only)."""
        return self._records

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[BranchRecord]:
        return iter(self._records)

    def __getitem__(self, index):
        return self._records[index]

    def stats(self) -> TraceStats:
        """Compute (and cache) aggregate statistics."""
        if self._stats is None:
            stats = TraceStats()
            pcs = set()
            for rec in self._records:
                stats.branches += 1
                stats.taken += 1 if rec.taken else 0
                stats.total_uops += rec.uops
                pcs.add(rec.pc)
            stats.static_branches = len(pcs)
            self._stats = stats
        return self._stats

    def content_digest(self) -> str:
        """SHA-256 hex digest of the records alone.

        Hashes each record's ``(pc, taken, uops_before)`` as
        ``b"<pc>,<taken 0|1>,<uops_before>;"`` in decimal, so the name,
        the seed, the file format and the file's path never change it.
        """
        digest = hashlib.sha256()
        for rec in self._records:
            digest.update(b"%d,%d,%d;" % (rec.pc, rec.taken, rec.uops_before))
        return digest.hexdigest()

    def slice(self, start: int, stop: Optional[int] = None) -> "Trace":
        """Return a sub-trace over ``records[start:stop]``."""
        sub = self._records[start:stop]
        return Trace(sub, name=f"{self._name}[{start}:{stop}]", seed=self._seed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Trace(name={self._name!r}, branches={len(self._records)})"
