"""Analysis utilities: output densities, threshold sweeps, reports.

- :mod:`repro.analysis.density` -- the perceptron output density
  functions of Figures 4-7, split by prediction outcome, with the
  three-region decomposition of Section 5.3.
- :mod:`repro.analysis.branches` -- per-static-branch predictability
  profiles (direction entropy, accuracy) and the H2P taxonomy.
- :mod:`repro.analysis.sweep` -- threshold sweeps producing
  (Spec, PVN) points; :mod:`repro.analysis.curves` compares the
  curves they trace.
- :mod:`repro.analysis.stability` and :mod:`repro.analysis.timeline`
  -- spread across seeds and metrics per trace window.
- :mod:`repro.analysis.tables`, :mod:`repro.analysis.export` and
  :mod:`repro.analysis.report` -- the plain-text tables, result rows
  and Markdown report that experiments and examples print.
"""

from repro.analysis.branches import (
    TAXONOMY_CLASSES,
    BranchProfile,
    TraceBranchSummary,
    classify_taxonomy,
    direction_entropy,
    profile_events,
    profile_records,
)
from repro.analysis.curves import (
    ConfidenceCurve,
    area_under_curve,
    dominates,
)
from repro.analysis.density import OutputDensity, RegionSummary
from repro.analysis.export import rows_from_result
from repro.analysis.report import markdown_table, render_report
from repro.analysis.stability import MetricSpread, sweep_seeds
from repro.analysis.sweep import ThresholdPoint, sweep_estimator_thresholds
from repro.analysis.tables import format_table
from repro.analysis.timeline import MetricTimeline, WindowPoint

__all__ = [
    "TAXONOMY_CLASSES",
    "BranchProfile",
    "TraceBranchSummary",
    "classify_taxonomy",
    "direction_entropy",
    "profile_events",
    "profile_records",
    "ConfidenceCurve",
    "area_under_curve",
    "dominates",
    "OutputDensity",
    "RegionSummary",
    "markdown_table",
    "render_report",
    "MetricSpread",
    "sweep_seeds",
    "ThresholdPoint",
    "sweep_estimator_thresholds",
    "format_table",
    "rows_from_result",
    "MetricTimeline",
    "WindowPoint",
]
