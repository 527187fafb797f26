"""Extension: estimator quality vs training budget.

The paper trains on 20M warm-up instructions; this reproduction runs
roughly two orders of magnitude less.  This experiment measures the
perceptron estimator's PVN/Spec in successive trace windows to show (a)
the estimator is still improving at our trace lengths and (b) how much
of the absolute paper-vs-reproduction metric gap is simply training
budget -- the quantitative footnote behind EXPERIMENTS.md's
"absolute numbers differ" caveat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.tables import format_table
from repro.analysis.timeline import MetricTimeline, WindowPoint
from repro.core.frontend import FrontEnd
from repro.core.perceptron_estimator import PerceptronConfidenceEstimator
from repro.experiments.common import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
    get_trace,
)
from repro.predictors.hybrid import make_baseline_hybrid

__all__ = ["WarmupCurveResult", "jobs", "run"]


def jobs(settings: ExperimentSettings = DEFAULT_SETTINGS) -> List:
    """No engine jobs: the warm-up curve replays in-process.

    The warm-up *is* the object of study, so this experiment drives a
    bare :class:`FrontEnd` over the raw trace instead of submitting
    cacheable :class:`SimJob` s (a job's metrics exclude warm-up).
    """
    return []


@dataclass
class WarmupCurveResult:
    """Windowed metric evolution for one benchmark."""

    benchmark: str
    window_size: int
    points: List[WindowPoint]
    pvn_improvement: float
    spec_improvement: float

    def format(self) -> str:
        table = format_table(
            [p.as_dict() for p in self.points],
            title=(
                f"Warm-up curve on {self.benchmark!r} "
                f"(windows of {self.window_size} branches)"
            ),
        )
        return table + (
            f"\nPVN improvement first->last window: "
            f"{100 * self.pvn_improvement:+.1f} points; "
            f"Spec: {100 * self.spec_improvement:+.1f} points"
        )


def run(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    benchmark: str = "gzip",
    windows: int = 8,
) -> WarmupCurveResult:
    """Measure windowed PVN/Spec over one benchmark trace.

    No warm-up exclusion here -- the warm-up *is* the object of study.
    """
    if windows < 2:
        raise ValueError(f"windows must be >= 2, got {windows}")
    trace = get_trace(benchmark, settings.n_branches, settings.seed)
    window_size = max(1, settings.n_branches // windows)
    timeline = MetricTimeline(window_size=window_size)
    frontend = FrontEnd(
        make_baseline_hybrid(), PerceptronConfidenceEstimator(threshold=0)
    )
    for record in trace:
        event = frontend.process(record)
        timeline.record(
            event.signal.low_confidence, not event.predictor_correct
        )
    points = timeline.points()
    return WarmupCurveResult(
        benchmark=benchmark,
        window_size=window_size,
        points=points,
        pvn_improvement=timeline.improvement("pvn") or 0.0,
        spec_improvement=timeline.improvement("spec") or 0.0,
    )
