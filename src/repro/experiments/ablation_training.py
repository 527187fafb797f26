"""Ablation: the cic training threshold T.

The paper introduces T ("a parameter used to determine how long a
perceptron needs to be trained", Section 3) but never reports a value;
this reproduction defaults to 96, which places the correctly-predicted
output cluster near the paper's Figure 4 position (~-130).  This
ablation sweeps T and reports where the CB cluster lands, the
CB/MB separation, and the resulting Table 3 metrics -- documenting why
the default was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.analysis.tables import format_table
from repro.engine import EstimatorSpec
from repro.experiments.common import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
    job_for,
    run_jobs,
)

__all__ = ["TrainingThresholdRow", "TrainingAblationResult", "jobs", "run",
           "T_VALUES"]

T_VALUES: Tuple[int, ...] = (16, 32, 64, 96, 160)


@dataclass
class TrainingThresholdRow:
    """Metrics at one training threshold."""

    training_threshold: int
    cb_median: float
    mb_median: float
    pvn: float
    spec: float

    @property
    def separation(self) -> float:
        return self.mb_median - self.cb_median

    def as_dict(self) -> dict:
        return {
            "T": self.training_threshold,
            "CB median": round(self.cb_median, 0),
            "MB median": round(self.mb_median, 0),
            "separation": round(self.separation, 0),
            "PVN %": round(100 * self.pvn, 1),
            "Spec %": round(100 * self.spec, 1),
        }


@dataclass
class TrainingAblationResult:
    """The T ladder."""

    rows: List[TrainingThresholdRow]
    benchmark: str

    def row(self, t: int) -> TrainingThresholdRow:
        for r in self.rows:
            if r.training_threshold == t:
                return r
        raise KeyError(t)

    def format(self) -> str:
        return format_table(
            [r.as_dict() for r in self.rows],
            title=(
                f"Training threshold T ablation on {self.benchmark!r} "
                "(cic, lambda=0)"
            ),
        )


def jobs(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    benchmark: str = "gzip",
) -> List:
    """Every :class:`SimJob` this experiment submits (the T ladder)."""
    return [
        job_for(
            settings, benchmark,
            EstimatorSpec.of("perceptron", threshold=0, training_threshold=t),
            collect_outputs=True,
        )
        for t in T_VALUES
    ]


def run(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    benchmark: str = "gzip",
) -> TrainingAblationResult:
    """Sweep T on one benchmark, measuring density position and metrics."""
    outcomes = run_jobs(jobs(settings, benchmark=benchmark))
    rows: List[TrainingThresholdRow] = []
    for t_value, (_, frontend) in zip(T_VALUES, outcomes):
        cb = np.asarray(frontend.outputs_correct)
        mb = np.asarray(frontend.outputs_mispredicted)
        matrix = frontend.matrix
        rows.append(
            TrainingThresholdRow(
                training_threshold=t_value,
                cb_median=float(np.median(cb)) if cb.size else 0.0,
                mb_median=float(np.median(mb)) if mb.size else 0.0,
                pvn=matrix.pvn,
                spec=matrix.spec,
            )
        )
    return TrainingAblationResult(rows=rows, benchmark=benchmark)
