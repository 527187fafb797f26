"""Extension: pipeline gating (stall) vs fetch throttling.

Manne et al. [10] evaluated two speculation-control mechanisms: fully
stalling fetch (the pipeline gating the paper adopts) and *throttling*
-- fetching at reduced bandwidth while confidence is low.  This
experiment runs both against the same perceptron estimator and reports
the U/P trade: throttling keeps some fetch flowing, so it saves fewer
wrong-path uops but risks less performance on false flags.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

from repro.analysis.tables import format_table
from repro.experiments.common import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
    gated_perceptrons,
    gating_jobs,
    run_gating,
)
from repro.pipeline.config import BASELINE_40X4, PipelineConfig

__all__ = ["ThrottleRow", "ThrottleResult", "jobs", "run", "MECHANISMS"]

#: (label, gating_mode, throttle_factor)
MECHANISMS: Tuple[Tuple[str, str, float], ...] = (
    ("stall", "stall", 0.5),
    ("throttle 1/2", "throttle", 0.5),
    ("throttle 1/4", "throttle", 0.25),
)

THRESHOLDS = (0, -50)


@dataclass
class ThrottleRow:
    """Average U/P for one (mechanism, lambda) design point."""

    mechanism: str
    threshold: float
    uop_reduction_pct: float
    performance_loss_pct: float

    def as_dict(self) -> dict:
        return {
            "mechanism": self.mechanism,
            "lambda": self.threshold,
            "U %": round(self.uop_reduction_pct, 1),
            "P %": round(self.performance_loss_pct, 1),
        }


@dataclass
class ThrottleResult:
    """All mechanism/threshold cells."""

    rows: List[ThrottleRow]

    def row(self, mechanism: str, threshold: float) -> ThrottleRow:
        for r in self.rows:
            if r.mechanism == mechanism and r.threshold == threshold:
                return r
        raise KeyError((mechanism, threshold))

    def format(self) -> str:
        return format_table(
            [r.as_dict() for r in self.rows],
            title=(
                "Gating mechanism comparison (extension): full stall vs "
                "fetch throttling (40c, PL1)"
            ),
        )


def jobs(settings: ExperimentSettings = DEFAULT_SETTINGS) -> List:
    """Every :class:`SimJob` this experiment submits, in order."""
    return gating_jobs(settings, gated_perceptrons(THRESHOLDS))


def run(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    config: PipelineConfig = BASELINE_40X4,
) -> ThrottleResult:
    """Compare stall vs throttle mechanisms at two thresholds."""
    machines = [
        replace(config.with_gating(1), gating_mode=mode, throttle_factor=factor)
        for _, mode, factor in MECHANISMS
    ]
    times = run_gating(
        settings, gated_perceptrons(THRESHOLDS), config,
        [machines] * len(THRESHOLDS),
    )
    rows = [
        ThrottleRow(label, lam, *times.cost(i, j))
        for i, lam in enumerate(THRESHOLDS)
        for j, (label, _, _) in enumerate(MECHANISMS)
    ]
    return ThrottleResult(rows=rows)
