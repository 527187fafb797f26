"""Figure 8: combining pipeline gating and branch reversal (40c/4w).

The Section 5.5 three-region policy: reverse branches with perceptron
output above 0, gate (PL2) branches with output in (-75, 0], treat the
rest as high confidence.  Reported per benchmark: speedup (negative
performance loss) and reduction in executed uops, plus the weighted
average.

Paper shape: ~10% average uop reduction at no average performance loss
-- better than the 8% attainable by gating alone at P=0 -- with
individual benchmarks gaining or losing a few percent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.tables import format_table
from repro.engine import THREE_REGION_POLICY, EstimatorSpec
from repro.experiments.common import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
    gating_jobs,
    run_gating,
)
from repro.pipeline.config import BASELINE_40X4, PipelineConfig

__all__ = ["Figure8Row", "Figure8Result", "jobs", "run", "REVERSE_THRESHOLD",
           "GATE_THRESHOLD", "BRANCH_COUNTER"]

#: Section 5.5 chooses thresholds empirically from the Figure 5 density
#: (the paper lands on 0 and -75 with a branch counter of 2 for its
#: traces).  Our synthetic traces shift the cic output distribution
#: lower (CB cluster near -140, MB crossover near +40..60) and our
#: estimator flags fewer branches at matched thresholds, so the
#: analogous empirical choice is a reversal threshold in the
#: MB-dominated tail, a gate band over the elevated-ratio region, and a
#: branch counter of 1 -- which lands the combined policy above the
#: gating-only U-vs-P frontier, the paper's Figure 8 claim.
REVERSE_THRESHOLD = 40.0
GATE_THRESHOLD = -60.0
BRANCH_COUNTER = 1


@dataclass
class Figure8Row:
    """One benchmark's bar pair from Figure 8/9."""

    benchmark: str
    speedup_pct: float
    uop_reduction_pct: float
    reversals: int
    reversals_correcting: int
    reversals_breaking: int

    def as_dict(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "speedup %": round(self.speedup_pct, 1),
            "uop reduction %": round(self.uop_reduction_pct, 1),
            "reversals": self.reversals,
            "fixed": self.reversals_correcting,
            "broken": self.reversals_breaking,
        }


@dataclass
class Figure8Result:
    """Per-benchmark bars plus weighted averages."""

    rows: List[Figure8Row]
    machine_label: str

    @property
    def average_speedup_pct(self) -> float:
        return sum(r.speedup_pct for r in self.rows) / len(self.rows)

    @property
    def average_uop_reduction_pct(self) -> float:
        return sum(r.uop_reduction_pct for r in self.rows) / len(self.rows)

    def format(self) -> str:
        rows = [r.as_dict() for r in self.rows]
        rows.append(
            {
                "benchmark": "weighted-av",
                "speedup %": round(self.average_speedup_pct, 1),
                "uop reduction %": round(self.average_uop_reduction_pct, 1),
            }
        )
        return format_table(
            rows,
            title=(
                f"Figure 8/9: gating + branch reversal on {self.machine_label} "
                f"(reverse y>{REVERSE_THRESHOLD:g}, gate "
                f"{GATE_THRESHOLD:g}<y<={REVERSE_THRESHOLD:g}, "
                f"PL{BRANCH_COUNTER})"
            ),
        )


#: The one gated variant: the three-region policy over the perceptron.
VARIANT = (
    EstimatorSpec.of(
        "perceptron",
        threshold=GATE_THRESHOLD,
        strong_threshold=REVERSE_THRESHOLD,
    ),
    THREE_REGION_POLICY,
)


def jobs(settings: ExperimentSettings = DEFAULT_SETTINGS) -> List:
    """Every :class:`SimJob` this experiment submits, in order.

    :mod:`figure9` shares these jobs exactly (it differs only in the
    pipeline configuration, which is post-processing).
    """
    return gating_jobs(settings, [VARIANT])


def run(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    config: PipelineConfig = BASELINE_40X4,
) -> Figure8Result:
    """Reproduce Figure 8 (or Figure 9 when given the wide config).

    The reversal counts come from the gated run's ``SimStats``, which
    counts them over the same post-warm-up events as the front end.
    """
    times = run_gating(
        settings, [VARIANT], config, [[config.with_gating(BRANCH_COUNTER)]]
    )
    rows: List[Figure8Row] = []
    for name, base, stats in zip(
        settings.benchmarks, times.bases, times.variant(0)
    ):
        u, p = stats.cost_vs(base)
        rows.append(
            Figure8Row(
                benchmark=name,
                speedup_pct=-p,
                uop_reduction_pct=u,
                reversals=stats.reversals,
                reversals_correcting=stats.reversals_correcting,
                reversals_breaking=stats.reversals_breaking,
            )
        )
    return Figure8Result(rows=rows, machine_label=config.label())
