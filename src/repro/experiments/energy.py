"""Extension: energy and energy-delay accounting for gating designs.

Pipeline gating's original motivation is energy (Manne et al. [10]);
the paper uses uops executed as the proxy.  This experiment applies the
first-order energy model of :mod:`repro.pipeline.energy` to the
Table 4 perceptron design points, reporting total-energy and EDP
savings -- including the estimator's own lookup energy, so the 4KB
perceptron has to pay for itself.
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
from repro.pipeline.energy import EnergyModel

__all__ = ["EnergyRow", "EnergyResult", "jobs", "run", "THRESHOLDS"]

THRESHOLDS = (25, 0, -25, -50)


@dataclass
class EnergyRow:
    """Energy outcome of one gating design point (averages)."""

    threshold: float
    uop_reduction_pct: float
    energy_savings_pct: float
    edp_savings_pct: float

    def as_dict(self) -> dict:
        return {
            "lambda": self.threshold,
            "U %": round(self.uop_reduction_pct, 1),
            "energy saved %": round(self.energy_savings_pct, 1),
            "EDP saved %": round(self.edp_savings_pct, 1),
        }


@dataclass
class EnergyResult:
    """The energy ladder."""

    rows: List[EnergyRow]
    model: EnergyModel

    def row(self, threshold: float) -> EnergyRow:
        for r in self.rows:
            if r.threshold == threshold:
                return r
        raise KeyError(threshold)

    def format(self) -> str:
        table = format_table(
            [r.as_dict() for r in self.rows],
            title="Energy accounting for perceptron gating (extension; 40c, PL1)",
        )
        return table + (
            f"\nmodel: dynamic={self.model.dynamic_per_uop}/uop, "
            f"estimator={self.model.estimator_per_branch}/branch, "
            f"static={self.model.static_per_cycle}/cycle"
        )


def jobs(settings: ExperimentSettings = DEFAULT_SETTINGS) -> List:
    """Every :class:`SimJob` this experiment submits, in order."""
    return gating_jobs(settings, gated_perceptrons(THRESHOLDS))


def run(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    config: PipelineConfig = BASELINE_40X4,
    model: EnergyModel = EnergyModel(),
) -> EnergyResult:
    """Evaluate energy/EDP savings across the threshold ladder."""
    times = run_gating(
        settings,
        gated_perceptrons(THRESHOLDS),
        config,
        [[config.with_gating(1)]] * len(THRESHOLDS),
    )
    base_energy = [
        model.evaluate(base, estimator_active=False) for base in times.bases
    ]
    rows = []
    for i, lam in enumerate(THRESHOLDS):
        energy = [
            model.evaluate(stats, estimator_active=True)
            for stats in times.variant(i)
        ]
        pairs = list(zip(energy, base_energy))
        rows.append(
            EnergyRow(
                threshold=lam,
                uop_reduction_pct=times.cost(i)[0],
                energy_savings_pct=(
                    sum(e.savings_vs(b) for e, b in pairs) / len(pairs)
                ),
                edp_savings_pct=(
                    sum(e.edp_savings_vs(b) for e, b in pairs) / len(pairs)
                ),
            )
        )
    return EnergyResult(rows=rows, model=model)
