"""Extension: the oracle upper bound for pipeline gating.

Not in the paper -- this ablation separates estimator quality from
mechanism capability.  A perfect-confidence oracle (Spec = PVN = 100%)
bounds what *any* estimator could achieve with the Figure 1 gating
mechanism on a given machine; degraded oracles sweep the accuracy axis
so the real estimators can be placed between "useless" and "perfect".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.analysis.tables import format_table
from repro.core.oracle import oracle_events
from repro.core.reversal import GatingOnlyPolicy
from repro.experiments.common import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
    gated_perceptrons,
    gating_jobs,
    mean_cost,
    run_jobs,
)
from repro.pipeline.config import BASELINE_40X4, PipelineConfig
from repro.pipeline.simulator import PipelineSimulator

__all__ = ["OracleRow", "OracleBoundResult", "jobs", "run"]

#: (coverage, accuracy) oracle operating points.
ORACLE_POINTS: Tuple[Tuple[float, float], ...] = (
    (1.0, 1.0),   # perfect
    (0.5, 1.0),   # perfect accuracy, half coverage
    (1.0, 0.5),   # full coverage, coin-flip accuracy
    (0.4, 0.75),  # roughly the paper's perceptron operating point
)


@dataclass
class OracleRow:
    """One confidence quality point's gating outcome."""

    label: str
    coverage: float
    accuracy: float
    uop_reduction_pct: float
    performance_loss_pct: float

    def as_dict(self) -> dict:
        return {
            "estimator": self.label,
            "Spec": f"{self.coverage:.0%}",
            "PVN": f"{self.accuracy:.0%}",
            "U %": round(self.uop_reduction_pct, 1),
            "P %": round(self.performance_loss_pct, 1),
        }


@dataclass
class OracleBoundResult:
    """Oracle ladder plus the real perceptron point."""

    rows: List[OracleRow]

    def row(self, label: str) -> OracleRow:
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(label)

    def format(self) -> str:
        return format_table(
            [r.as_dict() for r in self.rows],
            title="Oracle bound for pipeline gating (extension; 40c, PL1)",
        )


def jobs(settings: ExperimentSettings = DEFAULT_SETTINGS) -> List:
    """Every :class:`SimJob` this experiment submits, in order."""
    return gating_jobs(settings, gated_perceptrons([0]))


def run(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    config: PipelineConfig = BASELINE_40X4,
) -> OracleBoundResult:
    """Measure gating U/P for oracle ladders and the real estimator.

    The oracle streams are derived from each baseline's events, not
    replayed, so this experiment times its own streams; only its jobs
    come from :func:`~repro.experiments.common.gating_jobs`.
    """
    outcomes = iter(run_jobs(jobs(settings)))

    policy = GatingOnlyPolicy()
    ungated = PipelineSimulator(config)
    gated = PipelineSimulator(config.with_gating(1))
    bases = []
    oracle_stats = {point: [] for point in ORACLE_POINTS}
    perceptron_stats, matrices = [], []
    for _ in settings.benchmarks:
        base_events, _ = next(outcomes)
        bases.append(ungated.simulate(base_events))
        for cov, acc in ORACLE_POINTS:
            events = oracle_events(
                base_events, policy, coverage=cov, accuracy=acc,
                seed=settings.seed,
            )
            oracle_stats[(cov, acc)].append(gated.simulate(events))
        perc_events, frontend = next(outcomes)
        perceptron_stats.append(gated.simulate(perc_events))
        matrices.append(frontend.metrics.overall)

    rows = [
        OracleRow(
            f"oracle {cov:.0%}/{acc:.0%}",
            cov,
            acc,
            *mean_cost(bases, oracle_stats[(cov, acc)]),
        )
        for cov, acc in ORACLE_POINTS
    ]
    n = len(matrices)
    rows.append(
        OracleRow(
            "perceptron l=0",
            sum(m.spec for m in matrices) / n,
            sum(m.pvn for m in matrices) / n,
            *mean_cost(bases, perceptron_stats),
        )
    )
    return OracleBoundResult(rows=rows)
