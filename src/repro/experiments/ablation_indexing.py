"""Ablation: weight indexing -- row-per-branch vs path-hashed.

The paper's estimator selects one whole weight row by branch address
(Figure 3); Jimenez's later neural predictors hash each weight by the
*path*.  At the paper's 128-entry scale, row indexing suffers
destructive aliasing when hot branches collide; path hashing spreads
the pressure across per-position tables.  This ablation compares the
two at matched storage on the Table 3 metrics, plus a smaller
row-indexed array to expose the aliasing trend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.analysis.tables import format_table
from repro.core.metrics import ConfidenceMatrix
from repro.engine import EstimatorSpec
from repro.experiments.common import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
    job_for,
    run_jobs,
)

__all__ = ["IndexingRow", "IndexingAblationResult", "jobs", "run"]


def _candidates() -> List[Tuple[str, EstimatorSpec]]:
    # Row-indexed paper default: 128 x 32 x 8b ~ 4.1 KiB.
    # Path-hashed match: 8 positions x 512-entry tables x 8b ~ 4.5 KiB.
    return [
        (
            "row P128W8H32",
            EstimatorSpec.of("perceptron", threshold=0),
        ),
        (
            "row P32W8H32",
            EstimatorSpec.of("perceptron", threshold=0, entries=32),
        ),
        (
            "path T512H8",
            EstimatorSpec.of(
                "path_perceptron", table_entries=512, history_length=8,
                threshold=0,
            ),
        ),
        (
            "path T256H16",
            EstimatorSpec.of(
                "path_perceptron", table_entries=256, history_length=16,
                threshold=0,
            ),
        ),
    ]


@dataclass
class IndexingRow:
    """One indexing scheme's aggregate metrics."""

    label: str
    storage_kib: float
    matrix: ConfidenceMatrix

    def as_dict(self) -> dict:
        return {
            "scheme": self.label,
            "KiB": round(self.storage_kib, 1),
            "PVN %": round(100 * self.matrix.pvn, 1),
            "Spec %": round(100 * self.matrix.spec, 1),
            "flagged %": round(
                100 * self.matrix.flagged_low / max(self.matrix.total, 1), 2
            ),
        }


@dataclass
class IndexingAblationResult:
    """All indexing schemes."""

    rows: List[IndexingRow]

    def row(self, label: str) -> IndexingRow:
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(label)

    def format(self) -> str:
        return format_table(
            [r.as_dict() for r in self.rows],
            title="Weight-indexing ablation (extension): row vs path hashing",
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
) -> IndexingAblationResult:
    """Compare indexing schemes over the configured benchmarks."""
    candidates = _candidates()
    outcomes = iter(run_jobs(jobs(settings)))
    rows: List[IndexingRow] = []
    for label, spec in candidates:
        total = ConfidenceMatrix()
        storage = spec.build().storage_kib
        for _ in settings.benchmarks:
            total = total.merge(next(outcomes).result.matrix)
        rows.append(
            IndexingRow(label=label, storage_kib=storage, matrix=total)
        )
    return IndexingAblationResult(rows=rows)
