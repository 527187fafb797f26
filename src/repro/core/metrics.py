"""Confidence estimation quality metrics (Section 2.2).

The paper evaluates estimators with the diagnostic-test vocabulary of
Grunwald et al. [4].  Treating "low confidence" as a *positive* test
for misprediction gives the standard 2x2 confusion matrix:

====================  =======================  =======================
..                    mispredicted             correctly predicted
====================  =======================  =======================
low confidence        true positive  (tp)      false positive (fp)
high confidence       false negative (fn)      true negative  (tn)
====================  =======================  =======================

- **Spec** (specificity, the paper's *coverage*): tp / (tp + fn) --
  the fraction of all mispredicted branches flagged low confidence.
- **PVN** (predictive value of a negative test, the paper's
  *accuracy*): tp / (tp + fp) -- the probability that a low-confidence
  flag is right.

(The paper inherits [4]'s naming, where branch *prediction* is the
primary test and confidence the negative test, which is why "Spec"
lands on what information-retrieval calls recall and "PVN" on
precision.)  SENS and PVP, the mirror-image metrics for the
high-confidence class, are also provided.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ConfidenceMatrix"]


@dataclass
class ConfidenceMatrix:
    """2x2 confusion matrix over (confidence flag, prediction outcome)."""

    low_mispredicted: int = 0  # tp: flagged low, actually mispredicted
    low_correct: int = 0  # fp: flagged low, actually correct
    high_mispredicted: int = 0  # fn: flagged high, actually mispredicted
    high_correct: int = 0  # tn: flagged high, actually correct

    def record(self, low_confidence: bool, mispredicted: bool) -> None:
        """Account one resolved branch."""
        if low_confidence:
            if mispredicted:
                self.low_mispredicted += 1
            else:
                self.low_correct += 1
        else:
            if mispredicted:
                self.high_mispredicted += 1
            else:
                self.high_correct += 1

    @property
    def total(self) -> int:
        """All branches recorded."""
        return (
            self.low_mispredicted
            + self.low_correct
            + self.high_mispredicted
            + self.high_correct
        )

    @property
    def mispredicted(self) -> int:
        """All mispredicted branches."""
        return self.low_mispredicted + self.high_mispredicted

    @property
    def correct(self) -> int:
        """All correctly predicted branches."""
        return self.low_correct + self.high_correct

    @property
    def flagged_low(self) -> int:
        """All branches classified low confidence."""
        return self.low_mispredicted + self.low_correct

    @property
    def flagged_high(self) -> int:
        """All branches classified high confidence."""
        return self.high_mispredicted + self.high_correct

    @property
    def spec(self) -> float:
        """Coverage: fraction of mispredicted branches flagged low."""
        return self.low_mispredicted / self.mispredicted if self.mispredicted else 0.0

    @property
    def pvn(self) -> float:
        """Accuracy: probability a low-confidence flag is correct."""
        return self.low_mispredicted / self.flagged_low if self.flagged_low else 0.0

    @property
    def sens(self) -> float:
        """Sensitivity: fraction of correct predictions flagged high."""
        return self.high_correct / self.correct if self.correct else 0.0

    @property
    def pvp(self) -> float:
        """Predictive value of a positive (high-confidence) test."""
        return self.high_correct / self.flagged_high if self.flagged_high else 0.0

    @property
    def misprediction_rate(self) -> float:
        """Baseline predictor misprediction rate over the recorded stream."""
        return self.mispredicted / self.total if self.total else 0.0

    def merge(self, other: "ConfidenceMatrix") -> "ConfidenceMatrix":
        """Return a new matrix summing ``self`` and ``other``."""
        return ConfidenceMatrix(
            self.low_mispredicted + other.low_mispredicted,
            self.low_correct + other.low_correct,
            self.high_mispredicted + other.high_mispredicted,
            self.high_correct + other.high_correct,
        )

    def as_dict(self) -> dict:
        """Summary dictionary for reports."""
        return {
            "total": self.total,
            "mispredicted": self.mispredicted,
            "flagged_low": self.flagged_low,
            "spec": self.spec,
            "pvn": self.pvn,
            "sens": self.sens,
            "pvp": self.pvp,
        }

