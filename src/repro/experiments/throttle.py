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
from repro.engine import ALWAYS_HIGH, GATING_POLICY, EstimatorSpec
from repro.experiments.common import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
    job_for,
    run_jobs,
    simulate_events,
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


def _grid(settings: ExperimentSettings):
    """(keys, jobs) for the (benchmark x lambda) grid, in order."""
    batch = []
    keys = []
    for name in settings.benchmarks:
        keys.append((name, None))
        batch.append(job_for(settings, name, ALWAYS_HIGH))
        for lam in THRESHOLDS:
            keys.append((name, lam))
            batch.append(
                job_for(
                    settings, name,
                    EstimatorSpec.of("perceptron", threshold=lam),
                    policy=GATING_POLICY,
                )
            )
    return keys, batch


def jobs(settings: ExperimentSettings = DEFAULT_SETTINGS) -> List:
    """Every :class:`SimJob` this experiment submits, in order."""
    return _grid(settings)[1]


def run(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    config: PipelineConfig = BASELINE_40X4,
) -> ThrottleResult:
    """Compare stall vs throttle mechanisms at two thresholds."""
    keys, batch = _grid(settings)
    outcomes = dict(zip(keys, run_jobs(batch)))

    samples = {}
    for name in settings.benchmarks:
        base = simulate_events(outcomes[(name, None)].events, config)
        for lam in THRESHOLDS:
            events = outcomes[(name, lam)].events
            for label, mode, factor in MECHANISMS:
                machine = replace(
                    config.with_gating(1),
                    gating_mode=mode,
                    throttle_factor=factor,
                )
                stats = simulate_events(events, machine)
                samples.setdefault((label, lam), []).append(
                    stats.cost_vs(base)
                )
    rows = [
        ThrottleRow(
            mechanism=label,
            threshold=lam,
            uop_reduction_pct=sum(p[0] for p in pts) / len(pts),
            performance_loss_pct=sum(p[1] for p in pts) / len(pts),
        )
        for (label, lam), pts in samples.items()
    ]
    return ThrottleResult(rows=rows)
