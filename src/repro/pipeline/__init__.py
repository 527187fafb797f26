"""Out-of-order pipeline timing model (the Table 1 substrate).

The paper measures two quantities for every speculation-control
configuration: the reduction in total uops executed (U) and the
performance loss (P), both relative to the same ungated baseline
machine.  This subpackage provides the parametric pipeline model that
produces them:

- :class:`~repro.pipeline.config.PipelineConfig` -- machine parameters
  (fetch width, depth, ROB, estimator latency) with the three paper
  configurations as presets;
- :class:`~repro.pipeline.simulator.PipelineSimulator` -- a
  branch-granularity cycle model with explicit wrong-path fetch
  accounting, pipeline gating stalls and reversal recovery;
- :meth:`~repro.pipeline.stats.SimStats.cost_vs` -- U and P of a run
  against its ungated baseline run.

See DESIGN.md substitution note 2 for the relationship to the authors'
cycle-accurate IA32 simulator.
"""

from repro.pipeline.config import (
    BASELINE_40X4,
    DEEP_40X4,
    PIPELINE_PRESETS,
    STANDARD_20X4,
    WIDE_20X8,
    PipelineConfig,
)
from repro.pipeline.energy import EnergyModel, EnergyReport
from repro.pipeline.smt import SmtSimulator, SmtStats
from repro.pipeline.simulator import PipelineSimulator
from repro.pipeline.stats import SimStats

__all__ = [
    "PipelineConfig",
    "PIPELINE_PRESETS",
    "BASELINE_40X4",
    "DEEP_40X4",
    "STANDARD_20X4",
    "WIDE_20X8",
    "PipelineSimulator",
    "SimStats",
    "EnergyModel",
    "EnergyReport",
    "SmtSimulator",
    "SmtStats",
]
