"""Accuracy/coverage curve analysis.

Table 3 samples each estimator at four thresholds; these helpers treat
the full (Spec, PVN) trade-off as a curve so estimators can be compared
beyond individual operating points:

- :class:`ConfidenceCurve` holds threshold-ordered operating points and
  answers interpolation queries ("what PVN at Spec = 40%?");
- :func:`dominates` checks Pareto dominance between two curves;
- :func:`area_under_curve` summarises a curve as a single scalar
  (the probability-weighted accuracy across coverage levels).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.analysis.sweep import ThresholdPoint

__all__ = ["ConfidenceCurve", "dominates", "area_under_curve"]


@dataclass(frozen=True)
class CurvePoint:
    """One (coverage, accuracy) operating point."""

    spec: float
    pvn: float
    threshold: float

    def __post_init__(self):
        if not 0.0 <= self.spec <= 1.0:
            raise ValueError(f"spec must be in [0, 1], got {self.spec}")
        if not 0.0 <= self.pvn <= 1.0:
            raise ValueError(f"pvn must be in [0, 1], got {self.pvn}")


class ConfidenceCurve:
    """A threshold sweep viewed as a Spec-vs-PVN curve.

    Points are sorted by coverage.  Between sampled points the curve is
    linearly interpolated; outside the sampled range queries return
    ``None`` (extrapolating confidence trade-offs is misleading).
    """

    def __init__(self, points: Sequence[CurvePoint], name: str = "curve"):
        if not points:
            raise ValueError("a curve needs at least one point")
        self._points: List[CurvePoint] = sorted(points, key=lambda p: p.spec)
        self.name = name

    @classmethod
    def from_threshold_points(
        cls, points: Sequence[ThresholdPoint], name: str = "curve"
    ) -> "ConfidenceCurve":
        """Build from :func:`repro.analysis.sweep.sweep_estimator_thresholds`."""
        return cls(
            [
                CurvePoint(spec=p.spec, pvn=p.pvn, threshold=p.threshold)
                for p in points
            ],
            name=name,
        )

    @property
    def points(self) -> Tuple[CurvePoint, ...]:
        """Coverage-ordered operating points."""
        return tuple(self._points)

    @property
    def coverage_range(self) -> Tuple[float, float]:
        """(min, max) sampled coverage."""
        return (self._points[0].spec, self._points[-1].spec)

    def pvn_at(self, spec: float) -> Optional[float]:
        """Interpolated accuracy at a coverage level, or None outside
        the sampled range."""
        pts = self._points
        if spec < pts[0].spec or spec > pts[-1].spec:
            return None
        for left, right in zip(pts, pts[1:]):
            if left.spec <= spec <= right.spec:
                span = right.spec - left.spec
                if span == 0:
                    return max(left.pvn, right.pvn)
                frac = (spec - left.spec) / span
                return left.pvn + frac * (right.pvn - left.pvn)
        return pts[-1].pvn

    def __len__(self) -> int:
        return len(self._points)


def dominates(
    a: ConfidenceCurve, b: ConfidenceCurve, samples: int = 20
) -> bool:
    """True if curve ``a`` is at least as accurate as ``b`` at every
    mutually covered coverage level (and strictly better somewhere)."""
    lo = max(a.coverage_range[0], b.coverage_range[0])
    hi = min(a.coverage_range[1], b.coverage_range[1])
    if hi <= lo:
        return False
    strictly_better = False
    for i in range(samples):
        spec = lo + (hi - lo) * i / (samples - 1)
        pa, pb = a.pvn_at(spec), b.pvn_at(spec)
        if pa is None or pb is None:
            continue
        if pa < pb - 1e-12:
            return False
        if pa > pb + 1e-12:
            strictly_better = True
    return strictly_better


def area_under_curve(curve: ConfidenceCurve) -> float:
    """Trapezoidal area of PVN over the sampled coverage range.

    Normalised by the coverage span, so the value is the mean accuracy
    across the curve's coverage range (0..1); single-point curves return
    that point's accuracy.
    """
    pts = curve.points
    if len(pts) == 1:
        return pts[0].pvn
    area = 0.0
    for left, right in zip(pts, pts[1:]):
        area += (right.spec - left.spec) * (left.pvn + right.pvn) / 2.0
    span = pts[-1].spec - pts[0].spec
    return area / span if span > 0 else pts[0].pvn
