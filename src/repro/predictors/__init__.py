"""Baseline branch predictors (the Table 1 substrate).

The paper's baseline processor uses a combined 16K-bimodal /
64K-gshare / 64K-meta hybrid; Section 5.2 swaps in a gshare-perceptron
hybrid.  This subpackage implements the whole family from scratch:

- :class:`~repro.predictors.bimodal.BimodalPredictor`
- :class:`~repro.predictors.gshare.GSharePredictor`
- :class:`~repro.predictors.local.LocalPredictor` (PAs two-level, used
  by the Tyson pattern confidence estimator)
- :class:`~repro.predictors.perceptron_predictor.PerceptronPredictor`
  (Jimenez-Lin, trained on taken/not-taken)
- :class:`~repro.predictors.hybrid.CombinedPredictor` (McFarling
  chooser over any two components) plus the two paper configurations,
  :func:`~repro.predictors.hybrid.make_baseline_hybrid` and
  :func:`~repro.predictors.hybrid.make_gshare_perceptron_hybrid`.
- :mod:`~repro.predictors.static` -- trivial predictors for tests and
  worked examples.
"""

from repro.predictors.base import BranchPredictor
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gshare import GSharePredictor
from repro.predictors.hybrid import (
    CombinedPredictor,
    make_baseline_hybrid,
    make_gshare_perceptron_hybrid,
)
from repro.predictors.local import LocalPredictor
from repro.predictors.perceptron_predictor import PerceptronPredictor
from repro.predictors.static import AlwaysTakenPredictor, AlwaysNotTakenPredictor
from repro.predictors.tage import TagePredictor

__all__ = [
    "BranchPredictor",
    "BimodalPredictor",
    "GSharePredictor",
    "LocalPredictor",
    "PerceptronPredictor",
    "CombinedPredictor",
    "make_baseline_hybrid",
    "make_gshare_perceptron_hybrid",
    "AlwaysTakenPredictor",
    "AlwaysNotTakenPredictor",
    "TagePredictor",
]
