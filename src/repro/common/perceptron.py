"""Hardware-style perceptron array.

The storage structure of Figure 3: a table of single-layer perceptrons
indexed by branch address.  Each row holds ``history_length`` signed
weights plus a bias weight, stored in ``weight_bits``-wide fields that
saturate exactly as the hardware registers would.  The same array
implements both the Jimenez-Lin branch *predictor* (trained on
taken/not-taken) and the paper's confidence *estimator* (trained on
correct/incorrect); only the training target differs, which is the
paper's central point.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PerceptronArray"]


class PerceptronArray:
    """An array of fixed-point single-layer perceptrons.

    Inputs are +/-1 vectors (the global-history encoding of Section 3);
    the output is the integer dot product ``w[0] + sum_i w[i+1]*x[i]``.
    Weights saturate at the two's-complement rails of ``weight_bits``.
    """

    def __init__(
        self,
        entries: int,
        history_length: int,
        weight_bits: int = 8,
    ):
        if entries <= 0:
            raise ValueError(f"entries must be positive, got {entries}")
        if history_length <= 0 or history_length > 64:
            raise ValueError(
                f"history_length must be in [1, 64], got {history_length}"
            )
        if weight_bits < 2 or weight_bits > 16:
            raise ValueError(f"weight_bits must be in [2, 16], got {weight_bits}")
        self._entries = entries
        self._history_length = history_length
        self._weight_bits = weight_bits
        self._w_max = (1 << (weight_bits - 1)) - 1
        self._w_min = -(1 << (weight_bits - 1))
        # Column 0 is the bias weight; columns 1..h are history weights.
        self._weights = np.zeros((entries, history_length + 1), dtype=np.int32)

    @property
    def entries(self) -> int:
        """Number of perceptron rows."""
        return self._entries

    @property
    def history_length(self) -> int:
        """Number of history inputs per perceptron (excluding bias)."""
        return self._history_length

    @property
    def weight_bits(self) -> int:
        """Bit width of each stored weight."""
        return self._weight_bits

    @property
    def storage_bits(self) -> int:
        """Total array storage in bits (bias weights included)."""
        return self._entries * (self._history_length + 1) * self._weight_bits

    def index(self, pc: int) -> int:
        """Row selected by a branch address (simple modulo, as in Fig. 3).

        The two byte-offset bits are dropped first: instructions are
        4-aligned, so indexing with the raw address would leave three
        quarters of the rows unused.
        """
        return (pc >> 2) % self._entries

    def _check_inputs(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs)
        if inputs.shape[0] < self._history_length:
            raise ValueError(
                f"need {self._history_length} history inputs, got {inputs.shape[0]}"
            )
        return inputs[: self._history_length]

    def output(self, pc: int, inputs: np.ndarray) -> int:
        """Dot product of the selected row with a +/-1 input vector.

        ``inputs`` may be longer than the history length; only the first
        ``history_length`` elements (most recent branches) are used, so
        callers can pass a wider shared history vector directly.
        """
        x = self._check_inputs(inputs)
        row = self._weights[self.index(pc)]
        return int(row[0] + np.dot(row[1:], x))

    def train(self, pc: int, inputs: np.ndarray, target: int) -> None:
        """One training step: ``w += target * x`` with saturation.

        ``target`` is +1 or -1.  For the predictor it encodes the branch
        direction; for the confidence estimator it encodes the
        prediction outcome (+1 = mispredicted, Section 3).
        """
        if target not in (1, -1):
            raise ValueError(f"training target must be +/-1, got {target}")
        x = self._check_inputs(inputs)
        row = self._weights[self.index(pc)]
        row[0] += target
        if target == 1:
            row[1:] += x
        else:
            row[1:] -= x
        # In-place minimum/maximum: np.clip's Python-level wrapper costs
        # more than the two ufunc calls.
        np.minimum(row, self._w_max, out=row)
        np.maximum(row, self._w_min, out=row)

    def snapshot(self) -> np.ndarray:
        """Copy of the full weight matrix (rows x (1 + history))."""
        return self._weights.copy()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PerceptronArray(entries={self._entries}, "
            f"history_length={self._history_length}, "
            f"weight_bits={self._weight_bits})"
        )
