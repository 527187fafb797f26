"""Threshold sweeps over confidence estimators.

Table 3 reports (PVN, Spec) pairs for a ladder of thresholds on each
estimator.  :func:`sweep_estimator_thresholds` replays one trace per
threshold with freshly built structures, producing the full trade-off
curve; experiments slice out the paper's specific threshold values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

from repro.core.estimator import ConfidenceEstimator
from repro.core.frontend import FrontEnd
from repro.predictors.base import BranchPredictor
from repro.trace.record import Trace

__all__ = ["ThresholdPoint", "sweep_estimator_thresholds"]


@dataclass(frozen=True)
class ThresholdPoint:
    """One point on an estimator's accuracy/coverage curve."""

    threshold: float
    pvn: float
    spec: float
    flagged_low_fraction: float
    misprediction_rate: float


def sweep_estimator_thresholds(
    trace: Trace,
    make_predictor: Callable[[], BranchPredictor],
    make_estimator: Callable[[float], ConfidenceEstimator],
    thresholds: Sequence[float],
    warmup: int = 0,
) -> List[ThresholdPoint]:
    """Measure (PVN, Spec) at each threshold over one trace.

    Each threshold gets a fresh predictor and estimator so no learning
    state leaks across sweep points (the estimators' training rules
    depend on their classification, hence on the threshold).
    """
    points: List[ThresholdPoint] = []
    for threshold in thresholds:
        predictor = make_predictor()
        estimator = make_estimator(threshold)
        frontend = FrontEnd(predictor, estimator)
        result = frontend.replay(trace, warmup=warmup)
        matrix = result.matrix
        points.append(
            ThresholdPoint(
                threshold=float(threshold),
                pvn=matrix.pvn,
                spec=matrix.spec,
                flagged_low_fraction=(
                    matrix.flagged_low / matrix.total if matrix.total else 0.0
                ),
                misprediction_rate=matrix.misprediction_rate,
            )
        )
    return points
