"""Confidence estimator interface.

All estimators follow the paper's front-end / back-end protocol
(Section 3): confidence is *estimated* in the front-end when the branch
is predicted, and the estimator is *trained* non-speculatively at
retirement, after the branch and all earlier branches have resolved.
In this trace-driven reproduction branches are processed in program
order, so the history observed at estimate time is identical to the
history available at train time; estimators keep their own history
register and the front-end shifts it exactly once per branch, after
training.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.core.types import ConfidenceSignal

__all__ = ["ConfidenceEstimator", "AlwaysHighEstimator"]


class ConfidenceEstimator(ABC):
    """Abstract branch confidence estimator.

    The per-branch call sequence (enforced by
    :class:`repro.core.frontend.FrontEnd`) is::

        signal = estimator.estimate(pc, prediction)   # front-end
        ...branch resolves...
        estimator.train(pc, prediction, correct, signal)  # retirement
        estimator.shift_history(taken)                # retirement

    ``estimate`` must be a pure read; all state changes happen in
    ``train``/``shift_history``.
    """

    #: Human-readable identifier used in experiment tables.
    name: str = "estimator"

    @abstractmethod
    def estimate(self, pc: int, prediction: bool) -> ConfidenceSignal:
        """Classify the confidence of a prediction for the branch at ``pc``.

        ``prediction`` is the direction the baseline predictor chose;
        enhanced JRS folds it into its table index.
        """

    @abstractmethod
    def train(
        self, pc: int, prediction: bool, correct: bool, signal: ConfidenceSignal
    ) -> None:
        """Train on one resolved branch.

        Args:
            pc: Branch address.
            prediction: The front-end prediction for this instance.
            correct: Whether that prediction matched the resolved
                direction (before any reversal).
            signal: The signal returned by :meth:`estimate` for this
                instance (the perceptron's training rule depends on the
                front-end classification ``c``).
        """

    def shift_history(self, taken: bool) -> None:
        """Shift the estimator's history register, if it has one."""

    @property
    @abstractmethod
    def storage_bits(self) -> int:
        """Total estimator storage in bits (for equal-budget comparisons)."""

    @property
    def storage_kib(self) -> float:
        """Storage in KiB, as quoted in Section 4 (both estimators 4KB)."""
        return self.storage_bits / 8.0 / 1024.0

    def reset(self) -> None:
        """Clear all adaptive state."""

    def state_canonical(self) -> tuple:
        """All adaptive state as a nested tuple of plain Python ints.

        The conformance hook for the differential-verification layer
        (see ``docs/testing.md``): production estimators and their
        reference oracles must lower to the same tuple after the same
        train/shift stream.  Transient scratch state (e.g. the fusion
        estimators' pending component signals) is excluded.
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


class AlwaysHighEstimator(ConfidenceEstimator):
    """Degenerate estimator: every branch is high confidence.

    Used for the ungated baseline machines (no speculation control can
    ever trigger) and as a sanity anchor in tests: with this estimator,
    Spec = 0 and gating never engages.
    """

    name = "always-high"

    def estimate(self, pc: int, prediction: bool) -> ConfidenceSignal:
        return ConfidenceSignal.high(0.0)

    def train(
        self, pc: int, prediction: bool, correct: bool, signal: ConfidenceSignal
    ) -> None:
        pass

    @property
    def storage_bits(self) -> int:
        return 0

    def state_canonical(self) -> tuple:
        return ("always_high",)
