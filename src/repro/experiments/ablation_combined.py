"""Ablation: fusing the perceptron and JRS estimators.

The Table 3 plane has JRS in the high-coverage corner and the
perceptron in the high-accuracy corner.  This extension measures where
boolean fusions and a cascade land:

- ``intersection``: flag only when both agree -> accuracy above either
  component (fewer, better flags);
- ``union``: flag when either flags -> coverage above either component;
- ``cascade``: perceptron decides unless its output is near the
  threshold, then JRS's flag is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.metrics import ConfidenceMatrix
from repro.analysis.tables import format_table
from repro.engine import EstimatorSpec
from repro.experiments.common import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
    job_for,
    run_jobs,
)

__all__ = ["FusionRow", "CombinedAblationResult", "jobs", "run"]

_PERCEPTRON = EstimatorSpec.of("perceptron", threshold=0)
_JRS = EstimatorSpec.of("jrs", threshold=7)


def _candidates() -> List[Tuple[str, EstimatorSpec]]:
    """(label, estimator spec) for every fusion point."""
    return [
        ("perceptron", _PERCEPTRON),
        ("enhanced JRS", _JRS),
        (
            "intersection",
            EstimatorSpec.of(
                "agreement", primary=_PERCEPTRON, secondary=_JRS,
                mode="intersection",
            ),
        ),
        (
            "union",
            EstimatorSpec.of(
                "agreement", primary=_PERCEPTRON, secondary=_JRS, mode="union"
            ),
        ),
        (
            "cascade",
            EstimatorSpec.of(
                "cascade", primary=_PERCEPTRON, secondary=_JRS,
                neutral_band=40.0,
            ),
        ),
    ]


@dataclass
class FusionRow:
    """One fusion's aggregate confidence metrics."""

    label: str
    matrix: ConfidenceMatrix

    def as_dict(self) -> dict:
        return {
            "estimator": self.label,
            "PVN %": round(100 * self.matrix.pvn, 1),
            "Spec %": round(100 * self.matrix.spec, 1),
            "flagged %": round(
                100 * self.matrix.flagged_low / max(self.matrix.total, 1), 2
            ),
        }


@dataclass
class CombinedAblationResult:
    """All fusion points on the accuracy/coverage plane."""

    rows: List[FusionRow]

    def row(self, label: str) -> FusionRow:
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(label)

    def format(self) -> str:
        return format_table(
            [r.as_dict() for r in self.rows],
            title="Estimator fusion ablation (extension)",
        )


def jobs(settings: ExperimentSettings = DEFAULT_SETTINGS) -> List:
    """Every :class:`SimJob` this experiment submits, in order."""
    return [
        job_for(settings, name, spec)
        for _, spec in _candidates()
        for name in settings.benchmarks
    ]


def run(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
) -> CombinedAblationResult:
    """Measure each fusion over the configured benchmarks."""
    candidates = _candidates()
    outcomes = iter(run_jobs(jobs(settings)))
    rows: List[FusionRow] = []
    for label, _ in candidates:
        total = ConfidenceMatrix()
        for _ in settings.benchmarks:
            total = total.merge(next(outcomes).result.matrix)
        rows.append(FusionRow(label=label, matrix=total))
    return CombinedAblationResult(rows=rows)
