"""Table 3: enhanced JRS vs perceptron confidence-estimation metrics.

PVN and Spec at the paper's threshold ladders: JRS lambda in {3, 7, 11,
15} and perceptron lambda in {25, 0, -25, -50}, aggregated over all
benchmarks (the paper reports the cross-benchmark summary).

Paper shape: JRS trades *low* accuracy for *high* coverage (PVN 22-36%,
Spec 85-96%); the perceptron is the mirror image (PVN 61-77%, Spec
34-66%) and is at least ~2x more accurate at every operating point.
Both ladders are monotone: relaxing the threshold buys coverage and
costs accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.analysis.tables import format_table
from repro.core.metrics import ConfidenceMatrix
from repro.engine import EstimatorSpec
from repro.experiments.common import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
    job_for,
    run_jobs,
)

__all__ = ["Table3Point", "Table3Result", "jobs", "run", "JRS_THRESHOLDS",
           "PERCEPTRON_THRESHOLDS"]

#: Threshold ladders from Table 3.
JRS_THRESHOLDS = (3, 7, 11, 15)
PERCEPTRON_THRESHOLDS = (25, 0, -25, -50)

#: Paper-reported Table 3 values for side-by-side comparison.
PAPER_JRS = {3: (36, 85), 7: (28, 92), 11: (24, 94), 15: (22, 96)}
PAPER_PERCEPTRON = {25: (77, 34), 0: (74, 43), -25: (69, 54), -50: (61, 66)}


@dataclass
class Table3Point:
    """One (estimator, threshold) operating point, summed over benchmarks."""

    estimator: str
    threshold: float
    matrix: ConfidenceMatrix
    paper_pvn_pct: float
    paper_spec_pct: float

    @property
    def pvn_pct(self) -> float:
        return 100.0 * self.matrix.pvn

    @property
    def spec_pct(self) -> float:
        return 100.0 * self.matrix.spec

    def as_dict(self) -> dict:
        return {
            "estimator": self.estimator,
            "lambda": self.threshold,
            "PVN %": round(self.pvn_pct, 1),
            "Spec %": round(self.spec_pct, 1),
            "paper PVN": self.paper_pvn_pct,
            "paper Spec": self.paper_spec_pct,
        }


@dataclass
class Table3Result:
    """Both threshold ladders."""

    jrs: List[Table3Point]
    perceptron: List[Table3Point]

    def accuracy_ratio(self) -> float:
        """Perceptron/JRS PVN ratio at the paper's middle thresholds.

        The paper's headline claim is "twice as accurate as the current
        best-known method"; this compares perceptron lambda=0 against
        JRS lambda=7.
        """
        jrs_mid = next(p for p in self.jrs if p.threshold == 7)
        perc_mid = next(p for p in self.perceptron if p.threshold == 0)
        if jrs_mid.matrix.pvn == 0:
            return float("inf")
        return perc_mid.matrix.pvn / jrs_mid.matrix.pvn

    def format(self) -> str:
        rows = [p.as_dict() for p in self.jrs] + [
            p.as_dict() for p in self.perceptron
        ]
        table = format_table(
            rows,
            title="Table 3: Enhanced JRS vs Perceptron (confidence metrics)",
        )
        return table + (
            f"\nperceptron/JRS accuracy ratio (mid thresholds): "
            f"{self.accuracy_ratio():.1f}x (paper ~2.6x)"
        )


def _ladder_points(
    settings: ExperimentSettings,
    estimator_name: str,
    thresholds: Sequence[float],
    outcomes_by_threshold,
    paper: Dict[float, tuple],
) -> List[Table3Point]:
    points = []
    for threshold in thresholds:
        total = ConfidenceMatrix()
        for outcome in outcomes_by_threshold[threshold]:
            total = total.merge(outcome.result.matrix)
        pvn, spec = paper[threshold]
        points.append(
            Table3Point(
                estimator=estimator_name,
                threshold=threshold,
                matrix=total,
                paper_pvn_pct=pvn,
                paper_spec_pct=spec,
            )
        )
    return points


def _ladder(settings: ExperimentSettings):
    """(ladder id, threshold, job) triples in deterministic order."""
    ladder = []
    for t in JRS_THRESHOLDS:
        spec = EstimatorSpec.of("jrs", threshold=int(t))
        for name in settings.benchmarks:
            ladder.append(("jrs", t, job_for(settings, name, spec)))
    for t in PERCEPTRON_THRESHOLDS:
        spec = EstimatorSpec.of("perceptron", threshold=t)
        for name in settings.benchmarks:
            ladder.append(("perceptron", t, job_for(settings, name, spec)))
    return ladder


def jobs(settings: ExperimentSettings = DEFAULT_SETTINGS) -> List:
    """Every :class:`SimJob` this experiment submits, in order."""
    return [job for _, _, job in _ladder(settings)]


def run(settings: ExperimentSettings = DEFAULT_SETTINGS) -> Table3Result:
    """Reproduce Table 3 over the configured benchmarks.

    Both threshold ladders are described up front as one job batch --
    (estimator x threshold x benchmark) -- and executed in a single
    engine call.
    """
    ladder = _ladder(settings)
    outcomes = run_jobs([job for _, _, job in ladder])
    grouped: Dict[str, Dict[float, list]] = {"jrs": {}, "perceptron": {}}
    for (ladder_id, threshold, _), outcome in zip(ladder, outcomes):
        grouped[ladder_id].setdefault(threshold, []).append(outcome)

    return Table3Result(
        jrs=_ladder_points(
            settings, "enhanced JRS", JRS_THRESHOLDS, grouped["jrs"], PAPER_JRS
        ),
        perceptron=_ladder_points(
            settings,
            "perceptron",
            PERCEPTRON_THRESHOLDS,
            grouped["perceptron"],
            PAPER_PERCEPTRON,
        ),
    )
