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
from repro.engine import ALWAYS_HIGH, GATING_POLICY, EstimatorSpec
from repro.experiments.common import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
    job_for,
    run_jobs,
    simulate_events,
)
from repro.pipeline.config import BASELINE_40X4, PipelineConfig

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
    perceptron = EstimatorSpec.of("perceptron", threshold=0)
    batch = []
    for name in settings.benchmarks:
        batch.append(job_for(settings, name, ALWAYS_HIGH))
        batch.append(job_for(settings, name, perceptron, policy=GATING_POLICY))
    return batch


def run(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    config: PipelineConfig = BASELINE_40X4,
) -> OracleBoundResult:
    """Measure gating U/P for oracle ladders and the real estimator."""
    outcomes = run_jobs(jobs(settings))

    policy = GatingOnlyPolicy()
    gated = config.with_gating(1)
    samples = {}
    perceptron_samples = []  # (u, p, spec, pvn) per benchmark

    def record(label, cov, acc, u, p):
        samples.setdefault((label, cov, acc), []).append((u, p))

    for i, name in enumerate(settings.benchmarks):
        base_events, _ = outcomes[2 * i]
        base = simulate_events(base_events, config)

        def measure(events):
            return simulate_events(events, gated).cost_vs(base)

        for cov, acc in ORACLE_POINTS:
            events = oracle_events(
                base_events, policy, coverage=cov, accuracy=acc,
                seed=settings.seed,
            )
            u, p = measure(events)
            record("oracle", cov, acc, u, p)

        perc_events, frontend = outcomes[2 * i + 1]
        u, p = measure(perc_events)
        matrix = frontend.metrics.overall
        perceptron_samples.append((u, p, matrix.spec, matrix.pvn))

    rows: List[OracleRow] = []
    for (label, cov, acc), pts in samples.items():
        rows.append(
            OracleRow(
                label=f"oracle {cov:.0%}/{acc:.0%}",
                coverage=cov,
                accuracy=acc,
                uop_reduction_pct=sum(p[0] for p in pts) / len(pts),
                performance_loss_pct=sum(p[1] for p in pts) / len(pts),
            )
        )
    n = len(perceptron_samples)
    rows.append(
        OracleRow(
            label="perceptron l=0",
            coverage=sum(s[2] for s in perceptron_samples) / n,
            accuracy=sum(s[3] for s in perceptron_samples) / n,
            uop_reduction_pct=sum(s[0] for s in perceptron_samples) / n,
            performance_loss_pct=sum(s[1] for s in perceptron_samples) / n,
        )
    )
    return OracleBoundResult(rows=rows)
