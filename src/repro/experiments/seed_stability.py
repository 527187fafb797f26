"""Extension: seed stability of the headline metrics.

The paper reports single-trace numbers; our synthetic workloads make it
cheap to ask how stable the conclusions are across workload
realisations.  This experiment re-measures the Table 3 core metrics
(perceptron and JRS PVN/Spec at the middle thresholds) across seeds and
reports mean +- std, plus the accuracy *ratio* -- the headline claim --
per seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.analysis.stability import MetricSpread, sweep_seeds
from repro.analysis.tables import format_table
from repro.core.metrics import ConfidenceMatrix
from repro.engine import EstimatorSpec
from repro.experiments.common import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
    job_for,
    run_jobs,
)

__all__ = ["StabilityResult", "jobs", "run", "DEFAULT_SEEDS"]

DEFAULT_SEEDS: Tuple[int, ...] = (1, 2, 3, 5, 8)


@dataclass
class StabilityResult:
    """Spread of each headline metric across seeds."""

    spreads: List[MetricSpread]
    seeds: Tuple[int, ...]

    def spread(self, name: str) -> MetricSpread:
        for s in self.spreads:
            if s.name == name:
                return s
        raise KeyError(name)

    @property
    def ratio_always_above_one(self) -> bool:
        """The headline claim must hold at every seed, not on average."""
        return self.spread("accuracy_ratio").min > 1.0

    def format(self) -> str:
        table = format_table(
            [s.as_dict() for s in self.spreads],
            title=(
                f"Seed stability of the headline metrics "
                f"({len(self.seeds)} seeds)"
            ),
        )
        return table + (
            f"\nperceptron/JRS accuracy ratio > 1 at every seed: "
            f"{self.ratio_always_above_one}"
        )


def _seed_jobs(settings: ExperimentSettings, seed: int) -> List:
    """One seed's job batch (perceptron + JRS per benchmark)."""
    from dataclasses import replace

    seeded = replace(settings, seed=seed)
    batch = []
    for name in seeded.benchmarks:
        batch.append(
            job_for(seeded, name, EstimatorSpec.of("perceptron", threshold=0))
        )
        batch.append(
            job_for(seeded, name, EstimatorSpec.of("jrs", threshold=7))
        )
    return batch


def jobs(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    seeds: Sequence[int] = DEFAULT_SEEDS,
) -> List:
    """Every :class:`SimJob` this experiment submits, across seeds."""
    return [job for seed in seeds for job in _seed_jobs(settings, seed)]


def _measure_headline(
    settings: ExperimentSettings, seed: int
) -> dict:
    """Table 3 middle-threshold metrics for one seed."""
    outcomes = run_jobs(_seed_jobs(settings, seed))
    perc = ConfidenceMatrix()
    jrs = ConfidenceMatrix()
    for i in range(len(settings.benchmarks)):
        perc = perc.merge(outcomes[2 * i].result.matrix)
        jrs = jrs.merge(outcomes[2 * i + 1].result.matrix)
    ratio = perc.pvn / jrs.pvn if jrs.pvn else float("inf")
    return {
        "perceptron_pvn": perc.pvn,
        "perceptron_spec": perc.spec,
        "jrs_pvn": jrs.pvn,
        "jrs_spec": jrs.spec,
        "accuracy_ratio": ratio,
    }


def run(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    seeds: Sequence[int] = DEFAULT_SEEDS,
) -> StabilityResult:
    """Measure the headline metrics across seeds."""
    spreads = sweep_seeds(
        lambda seed: _measure_headline(settings, seed), seeds
    )
    return StabilityResult(spreads=spreads, seeds=tuple(seeds))
