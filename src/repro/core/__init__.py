"""Branch confidence estimation -- the paper's contribution.

This subpackage implements the paper's estimator, the estimators it is
measured against and the machinery that consumes their output:

- :class:`~repro.core.perceptron_estimator.PerceptronConfidenceEstimator`
  -- the paper's estimator, trainable in ``"cic"`` (correct/incorrect,
  Section 3) or ``"tnt"`` (taken/not-taken, the Jimenez-Lin baseline of
  Section 5.3) mode.
- :class:`~repro.core.jrs.JRSEstimator` -- original and enhanced JRS
  miss-distance-counter estimators (Section 2.3).
- :class:`~repro.core.smith.SmithEstimator` -- self-confidence from the
  predictor's own saturating counters.
- :class:`~repro.core.pattern.PatternEstimator` -- Tyson's
  pattern-history classifier.
- :mod:`~repro.core.path_perceptron` and
  :mod:`~repro.core.combined_estimator` -- the path-based perceptron
  and the perceptron+JRS fusions of the extension experiments.
- :mod:`~repro.core.reversal` -- branch reversal and the combined
  three-region policy of Section 5.5.
- :mod:`~repro.core.metrics` -- Spec/PVN and friends (Section 2.2).
- :class:`~repro.core.frontend.FrontEnd` -- couples a predictor, an
  estimator and a policy over a trace.
"""

from repro.core.combined_estimator import AgreementEstimator, CascadeEstimator
from repro.core.estimator import AlwaysHighEstimator, ConfidenceEstimator
from repro.core.frontend import (
    FrontEnd,
    FrontEndEvent,
    FrontEndEvents,
    FrontEndResult,
)
from repro.core.jrs import JRSEstimator
from repro.core.metrics import ConfidenceMatrix
from repro.core.oracle import oracle_events
from repro.core.path_perceptron import PathPerceptronConfidenceEstimator
from repro.core.pattern import PatternEstimator
from repro.core.perceptron_estimator import PerceptronConfidenceEstimator
from repro.core.reversal import (
    BranchAction,
    GatingOnlyPolicy,
    NoSpeculationControl,
    PolicyDecision,
    SpeculationPolicy,
    ThreeRegionPolicy,
)
from repro.core.smith import SmithEstimator
from repro.core.types import ConfidenceLevel, ConfidenceSignal

__all__ = [
    "AgreementEstimator",
    "AlwaysHighEstimator",
    "CascadeEstimator",
    "ConfidenceEstimator",
    "oracle_events",
    "FrontEnd",
    "FrontEndEvent",
    "FrontEndEvents",
    "FrontEndResult",
    "JRSEstimator",
    "ConfidenceMatrix",
    "PathPerceptronConfidenceEstimator",
    "PatternEstimator",
    "PerceptronConfidenceEstimator",
    "BranchAction",
    "GatingOnlyPolicy",
    "NoSpeculationControl",
    "PolicyDecision",
    "SpeculationPolicy",
    "ThreeRegionPolicy",
    "SmithEstimator",
    "ConfidenceLevel",
    "ConfidenceSignal",
]
