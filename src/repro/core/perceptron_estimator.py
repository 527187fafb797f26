"""Perceptron-based branch confidence estimation (Section 3).

The estimator is an array of single-layer perceptrons indexed by branch
address, fed the global branch history as a +/-1 vector (Figure 3).
The output is multi-valued; a branch whose output exceeds the threshold
``lambda`` is classified low confidence.

Two training schemes are implemented:

- ``"cic"`` (correct/incorrect) -- **the paper's scheme.**  At
  retirement, let ``p = +1`` if the branch was mispredicted and ``-1``
  if it was correctly predicted, and ``c = +1``/``-1`` for the
  front-end low/high classification.  The weights are trained with
  target ``p`` whenever the classification was wrong or the output
  magnitude is within the training threshold ``T``::

      if sign(c) != sign(p) or abs(y) <= T:
          w[i] += p * x[i]

  A positive output therefore *means* "history context in which this
  branch tends to be mispredicted", which is what makes the
  strongly/weakly-low sub-classification and branch reversal possible
  (Section 5.5).

- ``"tnt"`` (taken/not-taken) -- the Jimenez-Lin alternative evaluated
  in Section 5.3: the perceptron is trained as a direction predictor
  and confidence is inferred from the output's proximity to zero
  (``abs(y) <= lambda`` is low confidence).  The paper shows this never
  separates mispredicted from correct branches well (Figures 6-7).
"""

from __future__ import annotations

from typing import Optional

from repro.common.history import GlobalHistoryRegister
from repro.common.perceptron import PerceptronArray
from repro.core.estimator import ConfidenceEstimator
from repro.core.types import ConfidenceSignal
from repro.predictors.perceptron_predictor import jimenez_lin_theta

__all__ = ["PerceptronConfidenceEstimator"]

_MODES = ("cic", "tnt")

#: Default training threshold T for cic mode.  The paper leaves T
#: unspecified; 96 reproduces the Figure 4 output-density shape (the
#: correctly-predicted cluster settles just past -T).
DEFAULT_TRAINING_THRESHOLD = 96


class PerceptronConfidenceEstimator(ConfidenceEstimator):
    """The paper's confidence estimator (Figure 3).

    Args:
        entries: Perceptron array rows (paper default 128).
        history_length: Global-history inputs per perceptron (paper 32).
        weight_bits: Stored weight width (paper 8) -- Table 6 shows this
            is the most performance-critical size parameter.
        threshold: ``lambda``.  In cic mode, output **greater than**
            ``lambda`` is low confidence (Table 3 sweeps 25, 0, -25,
            -50).  In tnt mode, output **magnitude at most**
            ``lambda`` is low confidence.
        training_threshold: ``T`` for the cic rule (ignored in tnt mode,
            which uses the Jimenez-Lin theta).
        strong_threshold: Optional second threshold enabling the
            Section 5.5 three-region classification in cic mode:
            output > ``strong_threshold`` is *strongly* low confident
            (reversal candidate), output in (``threshold``,
            ``strong_threshold``] weakly low confident (gating
            candidate).  Must be >= ``threshold``.
        mode: ``"cic"`` or ``"tnt"``.
    """

    def __init__(
        self,
        entries: int = 128,
        history_length: int = 32,
        weight_bits: int = 8,
        threshold: float = 0.0,
        training_threshold: int = DEFAULT_TRAINING_THRESHOLD,
        strong_threshold: Optional[float] = None,
        mode: str = "cic",
    ):
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        if mode == "tnt":
            if strong_threshold is not None:
                raise ValueError(
                    "strong/weak sub-classification requires cic training; "
                    "tnt outputs encode direction, not outcome (Section 5.3)"
                )
            if threshold < 0:
                raise ValueError(
                    f"tnt threshold is an output magnitude and must be >= 0, "
                    f"got {threshold}"
                )
        if strong_threshold is not None and strong_threshold < threshold:
            raise ValueError(
                f"strong_threshold ({strong_threshold}) must be >= "
                f"threshold ({threshold})"
            )
        if training_threshold < 0:
            raise ValueError(
                f"training_threshold must be non-negative, got {training_threshold}"
            )
        self.mode = mode
        self.threshold = threshold
        self.strong_threshold = strong_threshold
        self.training_threshold = training_threshold
        self._array = PerceptronArray(entries, history_length, weight_bits)
        self._history = GlobalHistoryRegister(history_length)
        self._tnt_theta = jimenez_lin_theta(history_length)
        self.name = (
            f"perceptron_{mode}-P{entries}W{weight_bits}H{history_length}"
            f"-l{threshold:g}"
        )

    @property
    def array(self) -> PerceptronArray:
        """Underlying weight array (exposed for analysis and tests)."""
        return self._array

    @property
    def history(self) -> GlobalHistoryRegister:
        """The estimator's private 32-bit (by default) history register."""
        return self._history

    @property
    def entries(self) -> int:
        """Perceptron array rows."""
        return self._array.entries

    @property
    def history_length(self) -> int:
        """History inputs per perceptron."""
        return self._array.history_length

    @property
    def weight_bits(self) -> int:
        """Stored weight width."""
        return self._array.weight_bits

    def output(self, pc: int) -> int:
        """Raw multi-valued perceptron output for the current history."""
        return self._array.output(pc, self._history.vector)

    def _classify(self, y: float) -> ConfidenceSignal:
        if self.mode == "cic":
            if y <= self.threshold:
                return ConfidenceSignal.high(y)
            if self.strong_threshold is not None and y > self.strong_threshold:
                return ConfidenceSignal.strong_low(y)
            return ConfidenceSignal.weak_low(y)
        # tnt: low confidence when the direction output is near zero.
        if abs(y) <= self.threshold:
            return ConfidenceSignal.weak_low(y)
        return ConfidenceSignal.high(y)

    def estimate(self, pc: int, prediction: bool) -> ConfidenceSignal:
        return self._classify(self.output(pc))

    def train(
        self, pc: int, prediction: bool, correct: bool, signal: ConfidenceSignal
    ) -> None:
        y = signal.raw
        if self.mode == "cic":
            # p: +1 = mispredicted; c: +1 = classified low confidence.
            p = -1 if correct else 1
            c = 1 if signal.low_confidence else -1
            if c != p or abs(y) <= self.training_threshold:
                self._array.train(pc, self._history.vector, p)
        else:
            # Direction training, as in the Jimenez-Lin predictor.
            taken = prediction if correct else not prediction
            predicted_taken = y >= 0
            if predicted_taken != taken or abs(y) <= self._tnt_theta:
                self._array.train(pc, self._history.vector, 1 if taken else -1)

    def shift_history(self, taken: bool) -> None:
        self._history.push(taken)

    @property
    def storage_bits(self) -> int:
        return self._array.storage_bits

    def state_canonical(self) -> tuple:
        return (
            "perceptron_estimator",
            self.mode,
            tuple(
                tuple(int(w) for w in row) for row in self._array.snapshot()
            ),
            self._history.bits,
        )
