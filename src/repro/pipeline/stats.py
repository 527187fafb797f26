"""Simulation statistics.

Everything the paper's evaluation tables are computed from: uop counts
split into correct-path and wrong-path, cycle counts split into useful,
gated and refill time, and per-mechanism event counters.  One
:class:`SimStats` covers one whole simulated replay;
:meth:`SimStats.cost_vs` turns a gated run and its ungated baseline
into the paper's U and P percentages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["SimStats"]


@dataclass
class SimStats:
    """Counters accumulated over one simulated trace replay."""

    # --- uop accounting -------------------------------------------------
    correct_path_uops: int = 0
    wrong_path_uops: int = 0

    # --- branch accounting ----------------------------------------------
    branches: int = 0
    mispredictions: int = 0  # of the followed (possibly reversed) direction
    raw_mispredictions: int = 0  # of the raw predictor output
    reversals: int = 0
    reversals_correcting: int = 0
    reversals_breaking: int = 0
    gated_branches: int = 0  # branches that counted toward the LC counter

    # --- cycle accounting -------------------------------------------------
    total_cycles: float = 0.0
    gated_cycles: float = 0.0  # fetch stall cycles charged to gating
    throttled_cycles: float = 0.0  # reduced-rate fetch (throttle mode)
    squash_cycles: float = 0.0  # fetch time lost to misprediction recovery

    # --- gating effectiveness --------------------------------------------
    gating_stalls: int = 0  # distinct stall episodes
    wrong_path_uops_saved: float = 0.0  # estimated uops gating kept out

    @property
    def total_uops_executed(self) -> float:
        """Total uops executed, correct plus wrong path (the U metric base)."""
        return self.correct_path_uops + self.wrong_path_uops

    @property
    def wrong_path_increase(self) -> float:
        """% increase in uops executed due to mispredictions (Table 2)."""
        if self.correct_path_uops == 0:
            return 0.0
        return 100.0 * self.wrong_path_uops / self.correct_path_uops

    @property
    def uops_per_cycle(self) -> float:
        """Retired (correct-path) uops per cycle -- the performance metric."""
        return (
            self.correct_path_uops / self.total_cycles if self.total_cycles else 0.0
        )

    @property
    def misprediction_rate(self) -> float:
        """Followed-direction misprediction rate per branch."""
        return self.mispredictions / self.branches if self.branches else 0.0

    @property
    def mispredicts_per_kuop(self) -> float:
        """Mispredictions per 1000 correct-path uops (Table 2, column 1)."""
        if self.correct_path_uops == 0:
            return 0.0
        return 1000.0 * self.mispredictions / self.correct_path_uops

    def cost_vs(self, base: "SimStats") -> Tuple[float, float]:
        """``(U, P)`` of this run against an ungated ``base`` run, in %.

        U is the reduction in uops executed and P the performance loss
        (extra cycles), the two numbers of the paper's gating tables
        (Tables 4-6, Figures 8-9).  Positive U saves work; positive P
        costs time.
        """
        u = 100.0 * (
            base.total_uops_executed - self.total_uops_executed
        ) / base.total_uops_executed
        p = 100.0 * (self.total_cycles - base.total_cycles) / base.total_cycles
        return u, p

    def as_dict(self) -> dict:
        """Summary dictionary for reports."""
        return {
            "branches": self.branches,
            "correct_path_uops": self.correct_path_uops,
            "wrong_path_uops": round(self.wrong_path_uops, 1),
            "total_uops_executed": round(self.total_uops_executed, 1),
            "wrong_path_increase_pct": round(self.wrong_path_increase, 2),
            "total_cycles": round(self.total_cycles, 1),
            "gated_cycles": round(self.gated_cycles, 1),
            "uops_per_cycle": round(self.uops_per_cycle, 4),
            "mispredictions": self.mispredictions,
            "mispredicts_per_kuop": round(self.mispredicts_per_kuop, 3),
            "reversals": self.reversals,
            "reversals_correcting": self.reversals_correcting,
            "reversals_breaking": self.reversals_breaking,
            "gating_stalls": self.gating_stalls,
        }
