"""Branch predictor interface and accuracy bookkeeping.

All predictors follow the two-phase protocol of a real front-end /
back-end split:

1. ``predict(pc)`` in the front-end -- reads tables only;
2. ``update(pc, taken, prediction)`` at retirement -- trains tables and
   shifts any internal history, exactly once per dynamic branch.

Hybrid predictors share one history register among their components;
only the owning (top-level) predictor shifts it.  That is arranged by
the ``shared_history`` constructor argument on history-based
predictors, mirroring the single physical GHR of the hardware.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional

__all__ = ["PredictorStats", "BranchPredictor"]


@dataclass
class PredictorStats:
    """Running accuracy counters for a predictor."""

    predictions: int = 0
    mispredictions: int = 0

    @property
    def correct(self) -> int:
        """Number of correct predictions recorded."""
        return self.predictions - self.mispredictions

    @property
    def accuracy(self) -> float:
        """Fraction of predictions that were correct."""
        if self.predictions == 0:
            return 0.0
        return self.correct / self.predictions

    @property
    def misprediction_rate(self) -> float:
        """Fraction of predictions that were wrong."""
        if self.predictions == 0:
            return 0.0
        return self.mispredictions / self.predictions

    def record(self, correct: bool) -> None:
        """Account one resolved branch."""
        self.predictions += 1
        if not correct:
            self.mispredictions += 1

    def reset(self) -> None:
        """Zero the counters."""
        self.predictions = 0
        self.mispredictions = 0


class BranchPredictor(ABC):
    """Abstract conditional-branch direction predictor."""

    #: Human-readable identifier used in reports and experiment tables.
    name: str = "predictor"

    def __init__(self):
        self.stats = PredictorStats()

    @abstractmethod
    def predict(self, pc: int) -> bool:
        """Predict the direction of the branch at ``pc`` (True = taken).

        Must not mutate any predictor state: prediction is a pure table
        read in the front-end.
        """

    @abstractmethod
    def train(self, pc: int, taken: bool, prediction: bool) -> None:
        """Update prediction tables for one resolved branch.

        Does *not* shift history; :meth:`update` orchestrates that so
        shared-history compositions update the register exactly once.
        """

    def update(self, pc: int, taken: bool, prediction: Optional[bool] = None) -> None:
        """Retire one branch: train tables, shift history, log accuracy.

        ``prediction`` should be the value returned by :meth:`predict`
        for this dynamic instance; if omitted it is re-derived (only
        safe for predictors whose tables were not trained in between).
        """
        if prediction is None:
            prediction = self.predict(pc)
        self.train(pc, taken, prediction)
        self._shift_history(taken)
        self.stats.record(prediction == taken)

    def _shift_history(self, taken: bool) -> None:
        """Shift internal history, if this predictor owns one."""

    def confidence_hint(self, pc: int) -> Optional[float]:
        """Normalised counter strength in [0, 1], if the predictor has one.

        Used by the Smith self-confidence estimator (Section 2.3): 1.0
        means the underlying counter is saturated (strong prediction),
        0.0 means it sits at the weak midpoint.  Predictors without a
        meaningful notion return ``None``.
        """
        return None

    @property
    @abstractmethod
    def storage_bits(self) -> int:
        """Total prediction-table storage in bits."""

    @property
    def storage_kib(self) -> float:
        """Storage in KiB, for Table 1 style reporting."""
        return self.storage_bits / 8.0 / 1024.0

    def reset(self) -> None:
        """Clear tables, history and statistics."""
        self.stats.reset()

    def state_canonical(self) -> tuple:
        """All adaptive state as a nested tuple of plain Python ints.

        The conformance hook for the differential-verification layer
        (see ``docs/testing.md``): a production structure and its
        reference oracle must lower to the *same* tuple after the same
        update stream, so a single digest comparison certifies whole
        tables at once.  Transient per-branch scratch state (pending
        signals, stats counters) is excluded.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not expose canonical state"
        )

    def state_digest(self) -> str:
        """SHA-256 of ``repr(self.state_canonical())``."""
        import hashlib

        return hashlib.sha256(
            repr(self.state_canonical()).encode("utf-8")
        ).hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
