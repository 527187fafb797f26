"""Section 5.4.2: perceptron estimator latency sensitivity.

The perceptron's adder tree takes several cycles; the paper estimates 9
cycles for a 32-input perceptron at 0.09um and compares gating with a
9-cycle pipelined estimator against an ideal 1-cycle estimator.

Paper shape: the 9-cycle latency barely dents the uop reduction for
similar performance loss -- on a deep pipeline, slipping the start of
gating by a few cycles admits few extra instructions relative to the
whole wrong-path window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.tables import format_table
from repro.experiments.common import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
    gated_perceptrons,
    gating_jobs,
    run_gating,
)
from repro.pipeline.config import BASELINE_40X4, PipelineConfig

__all__ = ["LatencyRow", "LatencyResult", "jobs", "run", "LATENCIES"]

#: Estimator latencies to compare (cycles); 1 = ideal, 9 = estimated
#: pipelined perceptron.
LATENCIES = (1, 9)


@dataclass
class LatencyRow:
    """Average U/P at one estimator latency."""

    latency: int
    uop_reduction_pct: float
    performance_loss_pct: float

    def as_dict(self) -> dict:
        return {
            "latency (cycles)": self.latency,
            "U %": round(self.uop_reduction_pct, 1),
            "P %": round(self.performance_loss_pct, 1),
        }


@dataclass
class LatencyResult:
    """The latency ladder."""

    rows: List[LatencyRow]

    def row(self, latency: int) -> LatencyRow:
        for r in self.rows:
            if r.latency == latency:
                return r
        raise KeyError(latency)

    @property
    def uop_reduction_drop_pct(self) -> float:
        """U(ideal) - U(9-cycle): the paper says this is very small."""
        return self.row(1).uop_reduction_pct - self.row(LATENCIES[-1]).uop_reduction_pct

    def format(self) -> str:
        table = format_table(
            [r.as_dict() for r in self.rows],
            title="Section 5.4.2: estimator latency sensitivity (gating, PL1, 40c)",
        )
        return table + (
            f"\nU drop from {LATENCIES[-1]}-cycle latency: "
            f"{self.uop_reduction_drop_pct:.1f} points (paper: very little)"
        )


def jobs(
    settings: ExperimentSettings = DEFAULT_SETTINGS, threshold: float = 0.0
) -> List:
    """Every :class:`SimJob` this experiment submits, in order."""
    return gating_jobs(settings, gated_perceptrons([threshold]))


def run(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    config: PipelineConfig = BASELINE_40X4,
    threshold: float = 0.0,
) -> LatencyResult:
    """Reproduce the latency comparison.

    The front-end replay is shared across latencies: estimator latency
    is purely a timing-model parameter.
    """
    times = run_gating(
        settings,
        gated_perceptrons([threshold]),
        config,
        [[config.with_gating(1, estimator_latency=lat) for lat in LATENCIES]],
    )
    return LatencyResult(
        rows=[
            LatencyRow(lat, *times.cost(0, j))
            for j, lat in enumerate(LATENCIES)
        ]
    )
