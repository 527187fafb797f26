"""Table 5: effect of a better baseline branch predictor (Section 5.2).

Pipeline gating with the perceptron confidence estimator is evaluated
on two baseline predictors: the bimodal-gshare hybrid of Table 1 and a
gshare-perceptron hybrid (Jimenez-Lin perceptron component trained on
direction).  Thresholds are chosen to land in the 0-3% performance-loss
band.

Paper shape: the better predictor lowers the misprediction rate (4.1 ->
3.6 per kuop), which makes low-confidence branches *harder* to find --
for the same performance loss the achievable uop reduction drops
(e.g. 11% -> 8% at P=1%) -- but significant reductions remain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.analysis.tables import format_table
from repro.engine import PredictorSpec
from repro.experiments.common import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
    gated_perceptrons,
    gating_jobs,
    run_gating,
)
from repro.pipeline.config import BASELINE_40X4, PipelineConfig

__all__ = ["Table5Row", "Table5Result", "jobs", "run"]

#: Threshold ladders as in Table 5.
BIMODAL_GSHARE_THRESHOLDS = (25, 0, -25, -50)
GSHARE_PERCEPTRON_THRESHOLDS = (0, -25, -50, -60)

PAPER = {
    ("bimodal-gshare", 25): (8, 0),
    ("bimodal-gshare", 0): (11, 1),
    ("bimodal-gshare", -25): (14, 2),
    ("bimodal-gshare", -50): (18, 3),
    ("gshare-perceptron", 0): (4, 0),
    ("gshare-perceptron", -25): (8, 1),
    ("gshare-perceptron", -50): (12, 2),
    ("gshare-perceptron", -60): (14, 3),
}


@dataclass
class Table5Row:
    """One (predictor, lambda) average U/P cell."""

    predictor: str
    threshold: float
    uop_reduction_pct: float
    performance_loss_pct: float
    mispredicts_per_kuop: float
    paper: Optional[Tuple[float, float]] = None

    def as_dict(self) -> dict:
        row = {
            "predictor": self.predictor,
            "lambda": self.threshold,
            "U %": round(self.uop_reduction_pct, 1),
            "P %": round(self.performance_loss_pct, 1),
            "mispr/kuop": round(self.mispredicts_per_kuop, 2),
        }
        if self.paper:
            row["paper U"], row["paper P"] = self.paper
        return row


@dataclass
class Table5Result:
    """Both predictor ladders."""

    rows: List[Table5Row]

    def rows_for(self, predictor: str) -> List[Table5Row]:
        return [r for r in self.rows if r.predictor == predictor]

    def format(self) -> str:
        return format_table(
            [r.as_dict() for r in self.rows],
            title="Table 5: effect of better baseline branch predictor",
        )


#: The two predictor ladders: (label, predictor factory name, thresholds).
LADDERS = (
    ("bimodal-gshare", "baseline_hybrid", BIMODAL_GSHARE_THRESHOLDS),
    ("gshare-perceptron", "gshare_perceptron_hybrid",
     GSHARE_PERCEPTRON_THRESHOLDS),
)


def jobs(settings: ExperimentSettings = DEFAULT_SETTINGS) -> List:
    """Every :class:`SimJob` this experiment submits, in order."""
    return [
        job
        for _, predictor_name, thresholds in LADDERS
        for job in gating_jobs(
            settings,
            gated_perceptrons(thresholds),
            PredictorSpec.of(predictor_name),
        )
    ]


def run(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    config: PipelineConfig = BASELINE_40X4,
) -> Table5Result:
    """Reproduce Table 5 (both baseline predictors, one batch each)."""
    rows: List[Table5Row] = []
    for label, predictor_name, thresholds in LADDERS:
        times = run_gating(
            settings,
            gated_perceptrons(thresholds),
            config,
            [[config.with_gating(1)]] * len(thresholds),
            predictor=PredictorSpec.of(predictor_name),
        )
        kuops = [base.mispredicts_per_kuop for base in times.bases]
        avg_kuop = sum(kuops) / len(kuops)
        for i, lam in enumerate(thresholds):
            u, p = times.cost(i)
            rows.append(
                Table5Row(label, lam, u, p, avg_kuop, PAPER.get((label, lam)))
            )
    return Table5Result(rows=rows)
