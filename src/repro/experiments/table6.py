"""Table 6: perceptron array size sensitivity (Section 5.4.1).

Pipeline gating (PL1, 40-cycle pipeline) with perceptron estimators of
4KB, 3KB and 2KB, shrunk along each of the three axes: number of
entries (P), bits per weight (W), and history length (H).

Paper shape: cutting **weight bits** hurts most (P128W4H32 loses 6%
performance); cutting **history** mostly costs uop reduction (11% ->
8%); cutting **entries** is nearly free (both effects small).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.analysis.tables import format_table
from repro.engine import GATING_POLICY, EstimatorSpec
from repro.experiments.common import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
    gating_jobs,
    run_gating,
)
from repro.pipeline.config import BASELINE_40X4, PipelineConfig

__all__ = ["SizeConfig", "Table6Row", "Table6Result", "jobs", "run",
           "CONFIGURATIONS"]


@dataclass(frozen=True)
class SizeConfig:
    """One PiWjHk configuration from Table 6."""

    entries: int
    weight_bits: int
    history_length: int

    @property
    def label(self) -> str:
        return f"P{self.entries}W{self.weight_bits}H{self.history_length}"

    @property
    def size_kib(self) -> float:
        return (
            self.entries * self.weight_bits * self.history_length / 8.0 / 1024.0
        )


#: The Table 6 configuration ladder (nominal size, config).
CONFIGURATIONS: Tuple[Tuple[str, SizeConfig], ...] = (
    ("4 KB", SizeConfig(128, 8, 32)),
    ("3 KB", SizeConfig(96, 8, 32)),
    ("3 KB", SizeConfig(128, 6, 32)),
    ("3 KB", SizeConfig(128, 8, 24)),
    ("2 KB", SizeConfig(64, 8, 32)),
    ("2 KB", SizeConfig(128, 4, 32)),
    ("2 KB", SizeConfig(128, 8, 16)),
)

#: Paper-reported (P, U) per configuration label.
PAPER = {
    "P128W8H32": (1, 11), "P96W8H32": (1, 11), "P128W6H32": (2, 10),
    "P128W8H24": (1, 10), "P64W8H32": (1, 10), "P128W4H32": (6, 8),
    "P128W8H16": (1, 8),
}


@dataclass
class Table6Row:
    """Average U/P for one size configuration."""

    size_label: str
    config: SizeConfig
    uop_reduction_pct: float
    performance_loss_pct: float
    paper: Optional[Tuple[float, float]] = None

    def as_dict(self) -> dict:
        row = {
            "size": self.size_label,
            "config": self.config.label,
            "U %": round(self.uop_reduction_pct, 1),
            "P %": round(self.performance_loss_pct, 1),
        }
        if self.paper:
            row["paper P"], row["paper U"] = self.paper
        return row


@dataclass
class Table6Result:
    """All size-sensitivity rows."""

    rows: List[Table6Row]

    def row(self, label: str) -> Table6Row:
        for r in self.rows:
            if r.config.label == label:
                return r
        raise KeyError(label)

    def format(self) -> str:
        return format_table(
            [r.as_dict() for r in self.rows],
            title="Table 6: perceptron size sensitivity (gating, PL1, 40c)",
        )


def _variants(threshold: float):
    """One gated perceptron variant per geometry, in table order."""
    return [
        (
            EstimatorSpec.of(
                "perceptron",
                entries=size.entries,
                history_length=size.history_length,
                weight_bits=size.weight_bits,
                threshold=threshold,
            ),
            GATING_POLICY,
        )
        for _, size in CONFIGURATIONS
    ]


def jobs(
    settings: ExperimentSettings = DEFAULT_SETTINGS, threshold: float = 0.0
) -> List:
    """Every :class:`SimJob` this experiment submits, in order."""
    return gating_jobs(settings, _variants(threshold))


def run(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    config: PipelineConfig = BASELINE_40X4,
    threshold: float = 0.0,
) -> Table6Result:
    """Reproduce Table 6.

    Every configuration uses the same gating setup (PL1) and estimator
    threshold; only the perceptron array geometry changes.  One engine
    batch covers the whole (benchmark x geometry) grid.
    """
    times = run_gating(
        settings,
        _variants(threshold),
        config,
        [[config.with_gating(1)]] * len(CONFIGURATIONS),
    )
    rows = [
        Table6Row(size_label, size, *times.cost(i), paper=PAPER.get(size.label))
        for i, (size_label, size) in enumerate(CONFIGURATIONS)
    ]
    return Table6Result(rows=rows)
