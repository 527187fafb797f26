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
from repro.engine import ALWAYS_HIGH, GATING_POLICY, EstimatorSpec
from repro.experiments.common import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
    job_for,
    run_jobs,
    simulate_events,
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


def _average(cells_by_benchmark: List[Tuple[float, float]]) -> Tuple[float, float]:
    n = len(cells_by_benchmark)
    u = sum(c[0] for c in cells_by_benchmark) / n
    p = sum(c[1] for c in cells_by_benchmark) / n
    return u, p


def _grid(settings: ExperimentSettings) -> List[Tuple[str, str, float, object]]:
    """(benchmark, estimator, lambda, job) cells in deterministic order.

    Per benchmark, one baseline job plus one job per (estimator,
    lambda) -- the front-end does not see PL.
    """
    grid: List[Tuple[str, str, float, object]] = []
    for name in settings.benchmarks:
        grid.append((name, "base", 0.0, job_for(settings, name, ALWAYS_HIGH)))
        for lam in JRS_THRESHOLDS:
            grid.append(
                (name, "JRS", lam, job_for(
                    settings, name,
                    EstimatorSpec.of("jrs", threshold=lam),
                    policy=GATING_POLICY,
                ))
            )
        for lam in PERCEPTRON_THRESHOLDS:
            grid.append(
                (name, "perceptron", lam, job_for(
                    settings, name,
                    EstimatorSpec.of("perceptron", threshold=lam),
                    policy=GATING_POLICY,
                ))
            )
    return grid


def jobs(settings: ExperimentSettings = DEFAULT_SETTINGS) -> List:
    """Every :class:`SimJob` this experiment submits, in order."""
    return [job for _, _, _, job in _grid(settings)]


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
    grid = _grid(settings)
    outcomes = dict(
        zip(
            ((n, e, l) for n, e, l, _ in grid),
            run_jobs([job for _, _, _, job in grid]),
        )
    )

    # (estimator, lambda, PL) -> list over benchmarks of (U, P)
    samples: Dict[Tuple[str, float, int], List[Tuple[float, float]]] = {}
    per_benchmark: Dict[str, List[GatingCell]] = {}

    for name in settings.benchmarks:
        base = simulate_events(outcomes[(name, "base", 0.0)].events, config)
        bench_cells: List[GatingCell] = []

        def record(estimator: str, lam: float, pl: int, stats) -> None:
            u, p = stats.cost_vs(base)
            samples.setdefault((estimator, lam, pl), []).append((u, p))
            bench_cells.append(
                GatingCell(estimator, lam, pl, u, p)
            )

        for lam in JRS_THRESHOLDS:
            events = outcomes[(name, "JRS", lam)].events
            for pl in BRANCH_COUNTER_THRESHOLDS:
                stats = simulate_events(events, config.with_gating(pl))
                record("JRS", lam, pl, stats)

        for lam in PERCEPTRON_THRESHOLDS:
            events = outcomes[(name, "perceptron", lam)].events
            stats = simulate_events(events, config.with_gating(1))
            record("perceptron", lam, 1, stats)

        per_benchmark[name] = bench_cells

    cells: List[GatingCell] = []
    for lam in JRS_THRESHOLDS:
        for pl in BRANCH_COUNTER_THRESHOLDS:
            u, p = _average(samples[("JRS", lam, pl)])
            cells.append(
                GatingCell("JRS", lam, pl, u, p, paper=PAPER_JRS[(lam, pl)])
            )
    for lam in PERCEPTRON_THRESHOLDS:
        u, p = _average(samples[("perceptron", lam, 1)])
        cells.append(
            GatingCell(
                "perceptron", lam, 1, u, p, paper=PAPER_PERCEPTRON[(lam, 1)]
            )
        )
    return Table4Result(cells=cells, per_benchmark=per_benchmark)
