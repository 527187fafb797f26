"""Combined confidence estimation (an extension beyond the paper).

The paper shows JRS and the perceptron occupy opposite corners of the
accuracy/coverage plane.  A natural follow-up -- analogous to McFarling
combining branch predictors -- is to *fuse* them:

- :class:`AgreementEstimator` flags low confidence when **either**
  component does (union: maximum coverage) or when **both** do
  (intersection: maximum accuracy);
- :class:`CascadeEstimator` consults the accurate component first and
  falls back to the high-coverage one only for branches the first
  component has no opinion about (output inside a neutral band).

Both compose any two :class:`~repro.core.estimator.ConfidenceEstimator`
instances; the ablation experiment
(:mod:`repro.experiments.ablation_combined`) measures where the fused
points land on the Table 3 plane.
"""

from __future__ import annotations

from repro.core.estimator import ConfidenceEstimator
from repro.core.types import ConfidenceLevel, ConfidenceSignal

__all__ = ["AgreementEstimator", "CascadeEstimator"]

_MODES = ("union", "intersection")


class AgreementEstimator(ConfidenceEstimator):
    """Fuse two estimators by boolean combination of their flags.

    ``"union"`` mode is coverage-oriented (flag if either flags);
    ``"intersection"`` mode is accuracy-oriented (flag only if both
    flag).  The raw output and strong/weak level are taken from
    ``primary`` so reversal policies keep a multi-valued signal.
    """

    def __init__(
        self,
        primary: ConfidenceEstimator,
        secondary: ConfidenceEstimator,
        mode: str = "intersection",
    ):
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        self.primary = primary
        self.secondary = secondary
        self.mode = mode
        self.name = f"{mode}({primary.name},{secondary.name})"
        self._pending = None

    def estimate(self, pc: int, prediction: bool) -> ConfidenceSignal:
        first = self.primary.estimate(pc, prediction)
        second = self.secondary.estimate(pc, prediction)
        self._pending = (first, second)
        if self.mode == "union":
            low = first.low_confidence or second.low_confidence
        else:
            low = first.low_confidence and second.low_confidence
        if not low:
            return ConfidenceSignal.high(first.raw)
        if first.level is ConfidenceLevel.STRONG_LOW:
            return ConfidenceSignal.strong_low(first.raw)
        return ConfidenceSignal.weak_low(first.raw)

    def train(
        self, pc: int, prediction: bool, correct: bool, signal: ConfidenceSignal
    ) -> None:
        # Components train on their *own* front-end classification, not
        # the fused one -- each keeps its native learning rule.
        if self._pending is not None:
            first, second = self._pending
            self._pending = None
        else:  # direct use without a prior estimate (tests, replays)
            first = self.primary.estimate(pc, prediction)
            second = self.secondary.estimate(pc, prediction)
        self.primary.train(pc, prediction, correct, first)
        self.secondary.train(pc, prediction, correct, second)

    def shift_history(self, taken: bool) -> None:
        self.primary.shift_history(taken)
        self.secondary.shift_history(taken)

    @property
    def storage_bits(self) -> int:
        return self.primary.storage_bits + self.secondary.storage_bits

    def state_canonical(self) -> tuple:
        # _pending is per-branch scratch, not adaptive state.
        return (
            "agreement",
            self.mode,
            self.primary.state_canonical(),
            self.secondary.state_canonical(),
        )


class CascadeEstimator(ConfidenceEstimator):
    """Primary decides unless its output falls in a neutral band.

    The primary estimator's raw output within ``neutral_band`` of its
    threshold is treated as "no opinion" and the secondary's flag is
    used instead.  With a perceptron primary and a JRS secondary this
    recovers coverage on branches the perceptron has not separated yet
    while keeping its accuracy where it has.
    """

    def __init__(
        self,
        primary: ConfidenceEstimator,
        secondary: ConfidenceEstimator,
        neutral_band: float = 30.0,
        primary_threshold: float = 0.0,
    ):
        if neutral_band < 0:
            raise ValueError(f"neutral_band must be >= 0, got {neutral_band}")
        self.primary = primary
        self.secondary = secondary
        self.neutral_band = neutral_band
        self.primary_threshold = primary_threshold
        self.name = f"cascade({primary.name}->{secondary.name})"
        self._pending = None

    def estimate(self, pc: int, prediction: bool) -> ConfidenceSignal:
        first = self.primary.estimate(pc, prediction)
        second = self.secondary.estimate(pc, prediction)
        self._pending = (first, second)
        if abs(first.raw - self.primary_threshold) > self.neutral_band:
            return first
        # Neutral band: defer to the secondary's flag, keep the
        # primary's raw output for downstream policies.
        if second.low_confidence:
            return ConfidenceSignal.weak_low(first.raw)
        return ConfidenceSignal.high(first.raw)

    def train(
        self, pc: int, prediction: bool, correct: bool, signal: ConfidenceSignal
    ) -> None:
        if self._pending is not None:
            first, second = self._pending
            self._pending = None
        else:
            first = self.primary.estimate(pc, prediction)
            second = self.secondary.estimate(pc, prediction)
        self.primary.train(pc, prediction, correct, first)
        self.secondary.train(pc, prediction, correct, second)

    def shift_history(self, taken: bool) -> None:
        self.primary.shift_history(taken)
        self.secondary.shift_history(taken)

    @property
    def storage_bits(self) -> int:
        return self.primary.storage_bits + self.secondary.storage_bits

    def state_canonical(self) -> tuple:
        # _pending is per-branch scratch, not adaptive state.
        return (
            "cascade",
            self.primary.state_canonical(),
            self.secondary.state_canonical(),
        )
