"""Per-static-branch predictability metrics and the H2P taxonomy.

The aggregate misprediction rate hides *where* mispredictions come
from.  Following the hard-to-predict-branch (H2P) literature, this
module profiles a trace (or a replay's event stream) per static branch:
dynamic execution count, direction entropy, and -- when predictor
events are available -- accuracy, then classifies each static into a
small taxonomy whose interesting corner is the H2P class: few statics,
huge dynamic counts, stubbornly low accuracy.

Entropy here is the *direction* entropy -- the Shannon entropy of the
branch's taken/not-taken distribution, normalised to [0, 1]:

    ``entropy = -(p*log2(p) + q*log2(q))``, ``p`` the taken rate.

It is a function of the (taken, not-taken) *counts* only, so it is
invariant under any permutation of the branch's outcome sequence and
exactly 0 for constant-direction branches.  It upper-bounds nothing
about history predictability (a strict TNTN alternator has entropy 1
and accuracy ~1), which is precisely why the taxonomy combines it with
*measured* accuracy when events are available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.core.frontend import FrontEndEvents
from repro.trace.record import BranchRecord

__all__ = [
    "BranchProfile",
    "TraceBranchSummary",
    "direction_entropy",
    "profile_records",
    "profile_events",
    "classify_taxonomy",
    "TAXONOMY_CLASSES",
]

#: Taxonomy labels, from easiest to hardest:
#:
#: - ``constant``: one direction only -- free for any predictor;
#: - ``biased``: strongly skewed (entropy below the bias threshold);
#: - ``mixed``: mixed directions, but either cold or (when accuracy is
#:   known) adequately predicted;
#: - ``h2p``: hot (dynamic-count share above threshold percentile) and
#:   badly predicted -- the branches the H2P literature is about.
TAXONOMY_CLASSES: Tuple[str, ...] = ("constant", "biased", "mixed", "h2p")

# Taxonomy thresholds.  A static is "hot" when it carries at least
# _HOT_SHARE of the dynamic executions seen, "biased" below
# _BIAS_ENTROPY (~ p >= 0.95 one-way), and H2P when hot, non-trivially
# mixed and -- given events -- under _H2P_ACCURACY.
_HOT_SHARE = 0.01
_BIAS_ENTROPY = 0.2864  # normalised entropy at p = 0.95
_H2P_ACCURACY = 0.97


def direction_entropy(taken: int, not_taken: int) -> float:
    """Normalised direction entropy of a (taken, not-taken) count pair.

    Permutation-invariant by construction (counts only), bounded to
    [0, 1], and exactly 0.0 for constant-direction branches and for
    branches never executed.
    """
    if taken < 0 or not_taken < 0:
        raise ValueError(
            f"counts must be non-negative, got ({taken}, {not_taken})"
        )
    total = taken + not_taken
    if total == 0 or taken == 0 or not_taken == 0:
        return 0.0
    p = taken / total
    q = not_taken / total
    h = -(p * math.log2(p) + q * math.log2(q))
    # log2 rounding can push the sum a hair past 1.0; clamp the bound.
    return min(1.0, max(0.0, h))


@dataclass(frozen=True)
class BranchProfile:
    """Aggregated per-static-branch statistics.

    Attributes:
        pc: Static branch address.
        executions: Dynamic execution count.
        taken: Taken-outcome count.
        mispredicts: Predictor mispredict count, or ``None`` when the
            profile came from raw records (no predictor in the loop).
    """

    pc: int
    executions: int
    taken: int
    mispredicts: Optional[int] = None

    @property
    def taken_rate(self) -> float:
        return self.taken / self.executions if self.executions else 0.0

    @property
    def entropy(self) -> float:
        """Normalised direction entropy in [0, 1]."""
        return direction_entropy(self.taken, self.executions - self.taken)

    @property
    def accuracy(self) -> Optional[float]:
        if self.mispredicts is None or not self.executions:
            return None
        return 1.0 - self.mispredicts / self.executions

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe scalar row (result-store friendly)."""
        row: Dict[str, object] = {
            "pc": self.pc,
            "executions": self.executions,
            "taken": self.taken,
            "taken_rate": self.taken_rate,
            "entropy": self.entropy,
        }
        if self.mispredicts is not None:
            row["mispredicts"] = self.mispredicts
            row["accuracy"] = self.accuracy
        return row


def classify_taxonomy(profile: BranchProfile, total_executions: int) -> str:
    """Assign one :data:`TAXONOMY_CLASSES` label to a branch profile.

    ``total_executions`` is the dynamic count of the whole stream the
    profile was measured over (hotness is a *share*, so the taxonomy is
    stable under trace length).  Without accuracy data the H2P class
    falls back to the entropy proxy: hot and high-entropy.
    """
    if profile.entropy == 0.0:
        return "constant"
    if profile.entropy < _BIAS_ENTROPY:
        return "biased"
    share = profile.executions / total_executions if total_executions else 0.0
    hot = share >= _HOT_SHARE
    accuracy = profile.accuracy
    if hot and accuracy is not None and accuracy < _H2P_ACCURACY:
        return "h2p"
    if hot and accuracy is None and profile.entropy >= 2 * _BIAS_ENTROPY:
        return "h2p"
    return "mixed"


@dataclass(frozen=True)
class TraceBranchSummary:
    """Per-branch profiles plus the stream-level taxonomy breakdown."""

    profiles: Tuple[BranchProfile, ...]
    total_executions: int

    def taxonomy(self) -> Dict[str, List[BranchProfile]]:
        out: Dict[str, List[BranchProfile]] = {
            cls: [] for cls in TAXONOMY_CLASSES
        }
        for profile in self.profiles:
            out[classify_taxonomy(profile, self.total_executions)].append(
                profile
            )
        return out

    def h2p_branches(self) -> List[BranchProfile]:
        return self.taxonomy()["h2p"]

    def rows(self) -> List[Dict[str, object]]:
        """JSON-safe rows, hottest first, with the taxonomy label."""
        rows = []
        for profile in sorted(
            self.profiles, key=lambda p: (-p.executions, p.pc)
        ):
            row = profile.as_dict()
            row["taxonomy"] = classify_taxonomy(
                profile, self.total_executions
            )
            rows.append(row)
        return rows


def _summarise(
    counts: Dict[int, List[int]], with_mispredicts: bool
) -> TraceBranchSummary:
    profiles = tuple(
        BranchProfile(
            pc=pc,
            executions=stats[0],
            taken=stats[1],
            mispredicts=stats[2] if with_mispredicts else None,
        )
        for pc, stats in sorted(counts.items())
    )
    total = sum(p.executions for p in profiles)
    tel = telemetry.get_registry()
    if tel.enabled:
        tel.counter("branch_entropy_profiles_total").inc(len(profiles))
    return TraceBranchSummary(profiles=profiles, total_executions=total)


def profile_records(records: Iterable[BranchRecord]) -> TraceBranchSummary:
    """Profile a raw record stream (no predictor: entropy/counts only)."""
    counts: Dict[int, List[int]] = {}
    for record in records:
        stats = counts.get(record.pc)
        if stats is None:
            stats = counts[record.pc] = [0, 0, 0]
        stats[0] += 1
        if record.taken:
            stats[1] += 1
    return _summarise(counts, with_mispredicts=False)


def profile_events(events: Iterable) -> TraceBranchSummary:
    """Profile a replay event stream (FrontEndEvents or FrontEndEvent list).

    Uses ``pc``, ``taken`` and whether the prediction was correct -- the
    per-branch accuracy column that turns the entropy proxy into the
    measured H2P taxonomy.  Reads the ``pc``, ``taken`` and
    ``prediction`` columns, so it builds no event object.
    """
    columns = FrontEndEvents.of(events)
    counts: Dict[int, List[int]] = {}
    for pc, taken, prediction in zip(columns.pc, columns.taken, columns.prediction):
        stats = counts.get(pc)
        if stats is None:
            stats = counts[pc] = [0, 0, 0]
        stats[0] += 1
        if taken:
            stats[1] += 1
        if prediction != taken:
            stats[2] += 1
    return _summarise(counts, with_mispredicts=True)
