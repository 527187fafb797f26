"""Ablation: baseline-predictor history reach vs. a fixed estimator.

The paper's estimator works because its 32-branch history window sees
correlations the baseline predictor's shorter gshare history cannot
exploit.  This ablation sweeps the *baseline predictor's* history
length against a fixed 32-bit estimator and exposes the two competing
effects of table-predictor history:

- **reach**: longer history can capture more distant correlations (the
  in-principle argument for approaching the estimator's window);
- **dilution**: every extra history bit doubles the context count a
  counter table must warm, so at any finite training budget longer
  history raises the misprediction rate before reach pays off.

At the trace lengths feasible in this reproduction, dilution dominates:
the misprediction rate *rises* with gshare history while the
estimator's per-branch catch tracks it -- a quantitative illustration
of why the perceptron side (per-bit learning, sample-efficient) owns
the long-history regime, which is the deeper reason the paper's
*estimator* uses 32 bits of history while its *predictor* tables
cannot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.analysis.tables import format_table
from repro.core.metrics import ConfidenceMatrix
from repro.engine import EstimatorSpec, PredictorSpec
from repro.experiments.common import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
    job_for,
    run_jobs,
)

__all__ = ["HistoryReachRow", "HistoryAblationResult", "jobs", "run",
           "HISTORY_LENGTHS"]

HISTORY_LENGTHS: Tuple[int, ...] = (6, 10, 14, 18)


@dataclass
class HistoryReachRow:
    """Metrics at one baseline-predictor history length."""

    history_length: int
    misprediction_rate: float
    pvn: float
    spec: float

    @property
    def flagged_mispredicts_per_kbranch(self) -> float:
        """Absolute catch: flagged true positives per 1000 branches."""
        return 1000.0 * self.misprediction_rate * self.spec

    def as_dict(self) -> dict:
        return {
            "gshare history": self.history_length,
            "mispredict %": round(100 * self.misprediction_rate, 2),
            "PVN %": round(100 * self.pvn, 1),
            "Spec %": round(100 * self.spec, 1),
            "caught/kbranch": round(self.flagged_mispredicts_per_kbranch, 2),
        }


@dataclass
class HistoryAblationResult:
    """The history-length ladder."""

    rows: List[HistoryReachRow]

    def row(self, history_length: int) -> HistoryReachRow:
        for r in self.rows:
            if r.history_length == history_length:
                return r
        raise KeyError(history_length)

    def format(self) -> str:
        return format_table(
            [r.as_dict() for r in self.rows],
            title=(
                "History-reach ablation (extension): baseline gshare "
                "history vs fixed 32-bit estimator"
            ),
        )


def jobs(settings: ExperimentSettings = DEFAULT_SETTINGS) -> List:
    """Every :class:`SimJob` this experiment submits, in order."""
    estimator = EstimatorSpec.of("perceptron", threshold=0)
    return [
        job_for(
            settings, name, estimator,
            predictor=PredictorSpec.of(
                "baseline_hybrid", history_length=history
            ),
        )
        for history in HISTORY_LENGTHS
        for name in settings.benchmarks
    ]


def run(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
) -> HistoryAblationResult:
    """Sweep the baseline predictor's gshare history length."""
    outcomes = iter(run_jobs(jobs(settings)))
    rows: List[HistoryReachRow] = []
    for history in HISTORY_LENGTHS:
        total = ConfidenceMatrix()
        for _ in settings.benchmarks:
            total = total.merge(next(outcomes).result.matrix)
        rows.append(
            HistoryReachRow(
                history_length=history,
                misprediction_rate=total.misprediction_rate,
                pvn=total.pvn,
                spec=total.spec,
            )
        )
    return HistoryAblationResult(rows=rows)
