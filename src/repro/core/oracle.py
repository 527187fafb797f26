"""Oracle confidence: the upper bound for speculation control.

A real estimator must infer confidence from history; the *oracle* knows
each branch's outcome and classifies it perfectly (optionally degraded
to a target coverage/accuracy, to ask "how good would an estimator with
Spec=X, PVN=Y be?").  The paper does not evaluate an oracle, but it is
the natural calibration point for Table 4: it separates what the
estimator loses from what the gating *mechanism* itself can ever
achieve on a given pipeline.

Oracles operate on replayed event streams rather than inside the
front-end (they need the outcome at estimate time, which no hardware
estimator has), mirroring :func:`repro.core.frontend.apply_policy`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.frontend import FrontEndEvent, FrontEndEvents
from repro.core.reversal import SpeculationPolicy
from repro.core.types import ConfidenceSignal

__all__ = ["oracle_events"]


def oracle_events(
    events: Sequence[FrontEndEvent],
    policy: SpeculationPolicy,
    coverage: float = 1.0,
    accuracy: float = 1.0,
    seed: int = 0,
) -> FrontEndEvents:
    """Re-derive signals and decisions with oracle confidence.

    Args:
        events: A replayed event stream (signals are replaced).
        policy: Speculation policy applied to the oracle signals.
        coverage: Probability a mispredicted branch is flagged low
            confidence (the oracle's Spec).
        accuracy: Target PVN of the flag stream: false flags are
            injected on correct branches until low-confidence flags are
            right with roughly this probability (1.0 = no false flags).
        seed: Seed for the degradation draws.

    Returns a new event sequence; the originals are untouched.  It
    reads and shares the input's ``pc``, ``taken``, ``prediction`` and
    ``uops_before`` columns, so no event object is built.
    """
    if not 0.0 <= coverage <= 1.0:
        raise ValueError(f"coverage must be in [0, 1], got {coverage}")
    if not 0.0 < accuracy <= 1.0:
        raise ValueError(f"accuracy must be in (0, 1], got {accuracy}")
    rng = np.random.default_rng(seed)
    columns = FrontEndEvents.of(events)
    predictions = columns.prediction
    takens = columns.taken

    # False-flag probability on correct branches solving for the target
    # PVN given the stream's misprediction rate and coverage.
    total = len(columns)
    mispredicted = sum(1 for p, t in zip(predictions, takens) if p != t)
    correct = total - mispredicted
    false_flag_p = 0.0
    if accuracy < 1.0 and correct > 0:
        true_flags = coverage * mispredicted
        want_false = true_flags * (1.0 - accuracy) / accuracy
        false_flag_p = min(1.0, want_false / correct)

    # Mispredicted flags are "strong" (the oracle is sure), giving
    # reversal policies their upper bound too.
    strong = ConfidenceSignal.strong_low(float("inf"))
    weak = ConfidenceSignal.weak_low(1.0)
    high = ConfidenceSignal.high(-float("inf"))
    final, action, level, raw = [], [], [], []
    for prediction, taken in zip(predictions, takens):
        wrong = prediction != taken
        if wrong:
            low = coverage >= 1.0 or rng.random() < coverage
        else:
            low = false_flag_p > 0.0 and rng.random() < false_flag_p
        if low and wrong:
            signal = strong
        elif low:
            signal = weak
        else:
            signal = high
        decision = policy.decide(signal, prediction)
        final.append(decision.final_prediction)
        action.append(decision.action)
        level.append(signal.level)
        raw.append(signal.raw)
    return FrontEndEvents(
        pc=columns.pc,
        taken=takens,
        prediction=predictions,
        final_prediction=final,
        action=action,
        level=level,
        raw=raw,
        uops_before=columns.uops_before,
    )
