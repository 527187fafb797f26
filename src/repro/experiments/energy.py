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
from repro.engine import ALWAYS_HIGH, GATING_POLICY, EstimatorSpec
from repro.experiments.common import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
    job_for,
    run_jobs,
    simulate_events,
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


def _grid(settings: ExperimentSettings):
    """(keys, jobs) for the (benchmark x lambda) grid, in order."""
    batch = []
    keys = []
    for name in settings.benchmarks:
        keys.append((name, None))
        batch.append(job_for(settings, name, ALWAYS_HIGH))
        for lam in THRESHOLDS:
            keys.append((name, lam))
            batch.append(
                job_for(
                    settings, name,
                    EstimatorSpec.of("perceptron", threshold=lam),
                    policy=GATING_POLICY,
                )
            )
    return keys, batch


def jobs(settings: ExperimentSettings = DEFAULT_SETTINGS) -> List:
    """Every :class:`SimJob` this experiment submits, in order."""
    return _grid(settings)[1]


def run(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    config: PipelineConfig = BASELINE_40X4,
    model: EnergyModel = EnergyModel(),
) -> EnergyResult:
    """Evaluate energy/EDP savings across the threshold ladder."""
    keys, batch = _grid(settings)
    outcomes = dict(zip(keys, run_jobs(batch)))

    gated = config.with_gating(1)
    samples = {t: [] for t in THRESHOLDS}
    for name in settings.benchmarks:
        base_stats = simulate_events(outcomes[(name, None)].events, config)
        base_energy = model.evaluate(base_stats, estimator_active=False)
        for lam in THRESHOLDS:
            stats = simulate_events(outcomes[(name, lam)].events, gated)
            energy = model.evaluate(stats, estimator_active=True)
            u, _ = stats.cost_vs(base_stats)
            samples[lam].append(
                (
                    u,
                    energy.savings_vs(base_energy),
                    energy.edp_savings_vs(base_energy),
                )
            )
    rows = []
    for lam in THRESHOLDS:
        pts = samples[lam]
        rows.append(
            EnergyRow(
                threshold=lam,
                uop_reduction_pct=sum(p[0] for p in pts) / len(pts),
                energy_savings_pct=sum(p[1] for p in pts) / len(pts),
                edp_savings_pct=sum(p[2] for p in pts) / len(pts),
            )
        )
    return EnergyResult(rows=rows, model=model)
