"""Table 4: pipeline gating with JRS vs perceptron estimators.

For the 40-cycle baseline pipeline: average reduction in total uops
executed (U) and performance loss (P) across benchmarks, for the JRS
estimator at lambda in {3, 7, 11, 15} x branch-counter thresholds PL1-3,
and the perceptron estimator at lambda in {25, 0, -25, -50} with PL1.

Paper shape: the perceptron dominates the U-vs-P frontier -- e.g. 8%
uop reduction at ~0% performance loss (lambda=25), while JRS cannot
achieve any significant reduction without measurable loss; at matched U
(perceptron lambda=-50 ~ JRS lambda=7/PL2) the perceptron loses 3x less
performance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.tables import format_table
from repro.engine import GATING_POLICY, EstimatorSpec
from repro.experiments.common import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
    gating_jobs,
    run_gating,
)
from repro.pipeline.config import BASELINE_40X4, PipelineConfig

__all__ = ["GatingCell", "Table4Result", "jobs", "run"]

JRS_THRESHOLDS = (3, 7, 11, 15)
PERCEPTRON_THRESHOLDS = (25, 0, -25, -50)
BRANCH_COUNTER_THRESHOLDS = (1, 2, 3)

#: Paper-reported (U, P) for reference columns.
PAPER_JRS = {
    (3, 1): (26, 17), (7, 1): (29, 25), (11, 1): (31, 29), (15, 1): (31, 32),
    (3, 2): (14, 4), (7, 2): (19, 9), (11, 2): (21, 12), (15, 2): (22, 14),
    (3, 3): (9, 2), (7, 3): (13, 4), (11, 3): (14, 5), (15, 3): (15, 7),
}
PAPER_PERCEPTRON = {
    (25, 1): (8, 0), (0, 1): (11, 1), (-25, 1): (14, 2), (-50, 1): (18, 3),
}


@dataclass
class GatingCell:
    """One (estimator, lambda, PL) cell of Table 4, averaged over benchmarks."""

    estimator: str
    threshold: float
    counter_threshold: int
    uop_reduction_pct: float
    performance_loss_pct: float
    paper: Optional[Tuple[float, float]] = None

    def as_dict(self) -> dict:
        row = {
            "estimator": self.estimator,
            "lambda": self.threshold,
            "PL": self.counter_threshold,
            "U %": round(self.uop_reduction_pct, 1),
            "P %": round(self.performance_loss_pct, 1),
        }
        if self.paper is not None:
            row["paper U"], row["paper P"] = self.paper
        return row


@dataclass
class Table4Result:
    """All gating cells plus per-benchmark detail."""

    cells: List[GatingCell]
    per_benchmark: Dict[str, List[GatingCell]]

    def cell(self, estimator: str, threshold: float, pl: int) -> GatingCell:
        for c in self.cells:
            if (
                c.estimator == estimator
                and c.threshold == threshold
                and c.counter_threshold == pl
            ):
                return c
        raise KeyError((estimator, threshold, pl))

    def format(self) -> str:
        return format_table(
            [c.as_dict() for c in self.cells],
            title=(
                "Table 4: pipeline gating, 40-cycle pipeline "
                "(U = uop reduction, P = performance loss, averages)"
            ),
        )


#: One replayed variant per (estimator, lambda), in job order, as
#: (estimator, spec kind, lambda, PL values, paper U/P).  The front end
#: does not see PL, so each variant is timed once per PL value.
_POINTS = tuple(
    (label, kind, lam, pls, paper)
    for label, kind, lambdas, pls, paper in (
        ("JRS", "jrs", JRS_THRESHOLDS, BRANCH_COUNTER_THRESHOLDS, PAPER_JRS),
        ("perceptron", "perceptron", PERCEPTRON_THRESHOLDS, (1,),
         PAPER_PERCEPTRON),
    )
    for lam in lambdas
)


def _variants():
    return [
        (EstimatorSpec.of(kind, threshold=lam), GATING_POLICY)
        for _, kind, lam, _, _ in _POINTS
    ]


def jobs(settings: ExperimentSettings = DEFAULT_SETTINGS) -> List:
    """Every :class:`SimJob` this experiment submits, in order."""
    return gating_jobs(settings, _variants())


def run(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    config: PipelineConfig = BASELINE_40X4,
) -> Table4Result:
    """Reproduce Table 4.

    Per benchmark, the ungated baseline is replayed once; each
    estimator threshold is replayed once and its event stream reused
    across branch-counter thresholds (the PL knob lives in the pipeline
    configuration, not the front-end).  The whole (benchmark x
    estimator x lambda) grid is one engine batch.
    """
    times = run_gating(
        settings,
        _variants(),
        config,
        [[config.with_gating(pl) for pl in pls] for _, _, _, pls, _ in _POINTS],
    )
    per_benchmark = {
        name: [
            GatingCell(label, lam, pl, *stats.cost_vs(base))
            for (label, _, lam, pls, _), row in zip(_POINTS, per_variant)
            for pl, stats in zip(pls, row)
        ]
        for name, base, per_variant in zip(
            settings.benchmarks, times.bases, times.stats
        )
    }
    cells = [
        GatingCell(label, lam, pl, *times.cost(i, j), paper=paper[(lam, pl)])
        for i, (label, _, lam, pls, paper) in enumerate(_POINTS)
        for j, pl in enumerate(pls)
    ]
    return Table4Result(cells=cells, per_benchmark=per_benchmark)
