"""Checkpoint/restore round-trips: resume must be invisible.

For every verify-matrix configuration, a front end trained on a trace
prefix is checkpointed, a *fresh* front end restores the snapshot, and
both replay the suffix in lockstep -- events and final state digests
must be identical.
"""

import pytest

from repro.core.frontend import FrontEnd
from repro.verify.matrix import CASES

CUT = 900


def _build(case):
    return FrontEnd(
        case.predictor.build(), case.estimator.build(), case.policy.build()
    )


@pytest.mark.parametrize("case", CASES, ids=[c.label for c in CASES])
def test_frontend_checkpoint_resume_is_invisible(case, simple_trace):
    trace = simple_trace.slice(0, 2000)
    continued = _build(case)
    for record in trace.slice(0, CUT):
        continued.process(record)
    predictor_snapshot = continued.predictor.checkpoint()
    estimator_snapshot = continued.estimator.checkpoint()

    resumed = _build(case)
    resumed.predictor.restore(predictor_snapshot)
    resumed.estimator.restore(estimator_snapshot)

    for record in trace.slice(CUT, 2000):
        assert continued.process(record) == resumed.process(record)
    assert (
        continued.predictor.state_digest() == resumed.predictor.state_digest()
    )
    assert (
        continued.estimator.state_digest() == resumed.estimator.state_digest()
    )


@pytest.mark.parametrize("case", CASES, ids=[c.label for c in CASES])
def test_checkpoint_is_a_pure_snapshot(case, simple_trace):
    """Taking a checkpoint must not perturb the component it snapshots."""
    frontend = _build(case)
    for record in simple_trace.slice(0, 300):
        frontend.process(record)
    before_p = frontend.predictor.state_digest()
    before_e = frontend.estimator.state_digest()
    frontend.predictor.checkpoint()
    frontend.estimator.checkpoint()
    assert frontend.predictor.state_digest() == before_p
    assert frontend.estimator.state_digest() == before_e


def test_restore_rejects_foreign_snapshot():
    case = CASES[0]
    frontend = _build(case)
    with pytest.raises(ValueError):
        frontend.predictor.restore(("not", "a", "checkpoint"))
    with pytest.raises(ValueError):
        frontend.estimator.restore(("bogus",))
