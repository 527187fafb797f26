"""Table 2: benchmarks and their speculative-execution characteristics.

For every benchmark: branch mispredictions per 1000 uops, and the %
increase in uops executed due to branch mispredictions on the three
machines (20-cycle 4-wide, 20-cycle 8-wide, 40-cycle 4-wide).

Paper shape: deep (40c/4w) and wide (20c/8w) machines roughly double
the wasted execution of the 20c/4w machine (24% -> ~50% on average),
and waste tracks the misprediction rate (mcf worst, vortex/eon least).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.tables import format_table
from repro.engine import ALWAYS_HIGH
from repro.experiments.common import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
    job_for,
    run_jobs,
)
from repro.pipeline.config import PIPELINE_PRESETS
from repro.pipeline.simulator import PipelineSimulator
from repro.trace.benchmarks import TABLE2_MISPREDICTS_PER_KUOP

__all__ = ["Table2Row", "Table2Result", "jobs", "run"]

#: Paper's machine order (columns of Table 2).
MACHINES = ("20c4w", "20c8w", "40c4w")

#: Paper-reported averages for the uop-increase columns.
PAPER_AVERAGE_INCREASE = {"20c4w": 24.0, "20c8w": 48.0, "40c4w": 50.0}


@dataclass
class Table2Row:
    """One benchmark's row of Table 2."""

    benchmark: str
    mispredicts_per_kuop: float
    paper_mispredicts_per_kuop: float
    uop_increase_pct: Dict[str, float]

    def as_dict(self) -> dict:
        row = {
            "benchmark": self.benchmark,
            "mispr/kuop": round(self.mispredicts_per_kuop, 2),
            "paper": self.paper_mispredicts_per_kuop,
        }
        for machine in MACHINES:
            row[f"{machine} %"] = round(self.uop_increase_pct[machine], 1)
        return row


@dataclass
class Table2Result:
    """All rows plus averages."""

    rows: List[Table2Row]

    @property
    def average_mispredicts_per_kuop(self) -> float:
        return sum(r.mispredicts_per_kuop for r in self.rows) / len(self.rows)

    def average_increase(self, machine: str) -> float:
        return sum(r.uop_increase_pct[machine] for r in self.rows) / len(self.rows)

    def format(self) -> str:
        rows = [r.as_dict() for r in self.rows]
        avg = {
            "benchmark": "average",
            "mispr/kuop": round(self.average_mispredicts_per_kuop, 2),
            "paper": 4.1,
        }
        for machine in MACHINES:
            avg[f"{machine} %"] = round(self.average_increase(machine), 1)
        rows.append(avg)
        return format_table(
            rows,
            title=(
                "Table 2: mispredicts/1000 uops and % increase in uops "
                "executed due to mispredictions"
            ),
        )


def jobs(settings: ExperimentSettings = DEFAULT_SETTINGS) -> List:
    """Every :class:`SimJob` this experiment submits, in order."""
    return [job_for(settings, name, ALWAYS_HIGH) for name in settings.benchmarks]


def run(settings: ExperimentSettings = DEFAULT_SETTINGS) -> Table2Result:
    """Reproduce Table 2.

    Each benchmark is replayed once (no estimator influence -- the
    baseline machine has no speculation control), then the same event
    stream is timed on all three machines.  The whole benchmark batch
    goes through the engine in one call, so replays are cached for the
    other experiments and fan out under ``--jobs``.
    """
    outcomes = run_jobs(jobs(settings))
    rows: List[Table2Row] = []
    for name, (events, _) in zip(settings.benchmarks, outcomes):
        increases: Dict[str, float] = {}
        mispredicts_per_kuop = 0.0
        for machine in MACHINES:
            stats = PipelineSimulator(PIPELINE_PRESETS[machine]).simulate(events)
            increases[machine] = stats.wrong_path_increase
            mispredicts_per_kuop = stats.mispredicts_per_kuop
        rows.append(
            Table2Row(
                benchmark=name,
                mispredicts_per_kuop=mispredicts_per_kuop,
                paper_mispredicts_per_kuop=TABLE2_MISPREDICTS_PER_KUOP[name],
                uop_increase_pct=increases,
            )
        )
    return Table2Result(rows=rows)
