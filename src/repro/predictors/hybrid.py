"""McFarling combined predictors.

A chooser ("meta") table of 2-bit counters picks, per branch context,
between two component predictors.  The chooser trains toward whichever
component was correct when they disagree.  Two paper configurations are
provided: the baseline bimodal/gshare hybrid of Table 1 and the
gshare-perceptron hybrid of Section 5.2.
"""

from __future__ import annotations

from typing import Optional

from repro.common.counters import CounterTable
from repro.common.history import GlobalHistoryRegister
from repro.predictors.base import BranchPredictor
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gshare import GSharePredictor
from repro.predictors.perceptron_predictor import PerceptronPredictor

__all__ = [
    "CombinedPredictor",
    "make_baseline_hybrid",
    "make_gshare_perceptron_hybrid",
]


class CombinedPredictor(BranchPredictor):
    """Two component predictors arbitrated by a meta chooser.

    The chooser counter's MSB selects component B; it is updated only
    when the components disagree, toward the one that was right.  The
    hybrid owns the shared global history register and shifts it
    exactly once per retired branch; components must be constructed
    with ``shared_history`` pointing at :attr:`history`.
    """

    def __init__(
        self,
        component_a: BranchPredictor,
        component_b: BranchPredictor,
        history: GlobalHistoryRegister,
        meta_entries: int = 65536,
        name: Optional[str] = None,
    ):
        self.component_a = component_a
        self.component_b = component_b
        self._history = history
        self._meta = CounterTable(meta_entries, bits=2, mode="saturating", initial=2)
        self.name = name or f"hybrid({component_a.name}+{component_b.name})"

    @property
    def history(self) -> GlobalHistoryRegister:
        """The shared global history register."""
        return self._history

    def _meta_index(self, pc: int) -> int:
        return (pc >> 2) % self._meta.entries

    def chosen_component(self, pc: int) -> BranchPredictor:
        """The component the chooser currently selects for ``pc``."""
        use_b = self._meta.msb(self._meta_index(pc))
        return self.component_b if use_b else self.component_a

    def predict(self, pc: int) -> bool:
        return self.chosen_component(pc).predict(pc)

    def train(self, pc: int, taken: bool, prediction: bool) -> None:
        pred_a = self.component_a.predict(pc)
        pred_b = self.component_b.predict(pc)
        # Chooser trains toward the correct component on disagreement.
        if pred_a != pred_b:
            self._meta.update(self._meta_index(pc), pred_b == taken)
        self.component_a.train(pc, taken, pred_a)
        self.component_b.train(pc, taken, pred_b)

    def _shift_history(self, taken: bool) -> None:
        self._history.push(taken)

    def confidence_hint(self, pc: int) -> Optional[float]:
        return self.chosen_component(pc).confidence_hint(pc)

    @property
    def storage_bits(self) -> int:
        return (
            self.component_a.storage_bits
            + self.component_b.storage_bits
            + self._meta.storage_bits
        )

    def state_canonical(self) -> tuple:
        return (
            "combined",
            self.component_a.state_canonical(),
            self.component_b.state_canonical(),
            tuple(int(v) for v in self._meta.snapshot()),
            self._history.bits,
        )


def make_baseline_hybrid(
    bimodal_entries: int = 16384,
    gshare_entries: int = 65536,
    meta_entries: int = 65536,
    history_length: int = 10,
) -> CombinedPredictor:
    """The Table 1 baseline: combined bimodal/gshare with meta chooser.

    Sizes default to the paper's "16K bimodal, 64K gshare, 64K meta"
    (entry counts).  ``history_length`` is the gshare history reach --
    deliberately shorter than the 32-bit confidence-estimator history,
    which is what gives the estimator contexts the predictor cannot
    exploit.
    """
    history = GlobalHistoryRegister(max(history_length, 1))
    bimodal = BimodalPredictor(entries=bimodal_entries)
    gshare = GSharePredictor(
        entries=gshare_entries,
        history_length=history_length,
        shared_history=history,
    )
    return CombinedPredictor(
        bimodal,
        gshare,
        history,
        meta_entries=meta_entries,
        name="bimodal-gshare-hybrid",
    )


def make_gshare_perceptron_hybrid(
    gshare_entries: int = 65536,
    gshare_history: int = 14,
    perceptron_entries: int = 512,
    perceptron_history: int = 24,
    meta_entries: int = 65536,
) -> CombinedPredictor:
    """The Section 5.2 predictor: gshare + Jimenez-Lin perceptron.

    The perceptron component is trained on taken/not-taken direction,
    exactly as in [7]; its longer history makes the overall predictor
    more accurate, which the paper shows *reduces* the reductions
    attainable by gating (Table 5).
    """
    history = GlobalHistoryRegister(max(gshare_history, perceptron_history))
    gshare = GSharePredictor(
        entries=gshare_entries,
        history_length=gshare_history,
        shared_history=history,
    )
    perceptron = PerceptronPredictor(
        entries=perceptron_entries,
        history_length=perceptron_history,
        shared_history=history,
    )
    return CombinedPredictor(
        gshare,
        perceptron,
        history,
        meta_entries=meta_entries,
        name="gshare-perceptron-hybrid",
    )
