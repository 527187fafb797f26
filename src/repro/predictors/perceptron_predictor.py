"""Jimenez-Lin perceptron branch predictor.

Predicts taken when the perceptron output is non-negative and trains
the weights toward the branch *direction* (taken/not-taken) whenever
the prediction was wrong or the output magnitude is below the training
threshold ``theta = 1.93 * h + 14``.  Section 5.2 of the paper uses
this predictor inside a gshare-perceptron hybrid; Section 5.3 contrasts
its direction training with the paper's correct/incorrect training.
"""

from __future__ import annotations

from typing import Optional

from repro.common.history import GlobalHistoryRegister
from repro.common.perceptron import PerceptronArray
from repro.predictors.base import BranchPredictor

__all__ = ["PerceptronPredictor", "jimenez_lin_theta"]


def jimenez_lin_theta(history_length: int) -> int:
    """The empirically optimal training threshold from Jimenez & Lin."""
    return int(1.93 * history_length + 14)


class PerceptronPredictor(BranchPredictor):
    """Single-layer perceptron predictor trained on branch direction."""

    def __init__(
        self,
        entries: int = 512,
        history_length: int = 24,
        weight_bits: int = 8,
        theta: Optional[int] = None,
        shared_history: Optional[GlobalHistoryRegister] = None,
    ):
        self.name = f"perceptron-{entries}-h{history_length}"
        self._array = PerceptronArray(entries, history_length, weight_bits)
        self._theta = jimenez_lin_theta(history_length) if theta is None else theta
        if shared_history is not None:
            if shared_history.length < history_length:
                raise ValueError(
                    "shared history register shorter than history_length "
                    f"({shared_history.length} < {history_length})"
                )
            self._history = shared_history
            self._owns_history = False
        else:
            self._history = GlobalHistoryRegister(history_length)
            self._owns_history = True

    @property
    def theta(self) -> int:
        """Training threshold."""
        return self._theta

    @property
    def history(self) -> GlobalHistoryRegister:
        """The history register consulted by this predictor."""
        return self._history

    @property
    def array(self) -> PerceptronArray:
        """Underlying weight array (exposed for the tnt estimator)."""
        return self._array

    def output(self, pc: int) -> int:
        """Raw multi-valued perceptron output for the current history."""
        return self._array.output(pc, self._history.vector)

    def predict(self, pc: int) -> bool:
        return self.output(pc) >= 0

    def train(self, pc: int, taken: bool, prediction: bool) -> None:
        y = self.output(pc)
        if prediction != taken or abs(y) <= self._theta:
            target = 1 if taken else -1
            self._array.train(pc, self._history.vector, target)

    def _shift_history(self, taken: bool) -> None:
        if self._owns_history:
            self._history.push(taken)

    def confidence_hint(self, pc: int) -> Optional[float]:
        # Output magnitude relative to theta, clipped to [0, 1]; the
        # "distance from zero" confidence notion of Jimenez & Lin.
        return min(1.0, abs(self.output(pc)) / float(self._theta))

    @property
    def storage_bits(self) -> int:
        return self._array.storage_bits

    def state_canonical(self) -> tuple:
        return (
            "perceptron_predictor",
            tuple(
                tuple(int(w) for w in row) for row in self._array.snapshot()
            ),
            self._history.bits,
        )
