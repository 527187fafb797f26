"""Mutation smoke tests: prove the gate can actually fail.

A regression gate that never fires is indistinguishable from one that
works.  Each named mutation perturbs one algorithmic constant in the
production code (in process, reversibly) so the verification layers can
be run against a deliberately-wrong build; CI asserts the golden gate
reports a drift naming the affected configuration (a front-end case,
or a ``timing/`` entry for ``sim-window`` and ``sim-jitter``).

Mutations monkey-patch live objects, so the mutated run must execute
in-process (``--jobs 1``): worker processes re-import the pristine
modules and would silently un-mutate the code.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator

__all__ = ["MUTATIONS", "apply_mutation"]


@contextlib.contextmanager
def _mutate_perceptron_update() -> Iterator[None]:
    """Double the perceptron bias update step.

    Equivalent to training the bias weight with a learning constant of
    2 instead of 1 -- a one-token bug in the weight-update rule.  Every
    perceptron-based case in the matrix (estimator and predictor alike)
    must drift.
    """
    from repro.common.perceptron import PerceptronArray

    original = PerceptronArray.train

    def doubled(self, pc, inputs, target):
        original(self, pc, inputs, target)
        row = self._weights[self.index(pc)]
        row[0] = min(max(int(row[0]) + target, self._w_min), self._w_max)

    PerceptronArray.train = doubled
    try:
        yield
    finally:
        PerceptronArray.train = original


@contextlib.contextmanager
def _mutate_jrs_reset() -> Iterator[None]:
    """Make JRS counters saturate down instead of resetting to zero."""
    from repro.core.jrs import JRSEstimator

    original = JRSEstimator.train

    def saturating(self, pc, prediction, correct, signal):
        if correct:
            original(self, pc, prediction, correct, signal)
        else:
            index = self._index(pc, prediction)
            value = self._table.read(index)
            if value > 0:
                self._table.write(index, value - 1)

    JRSEstimator.train = saturating
    try:
        yield
    finally:
        JRSEstimator.train = original


@contextlib.contextmanager
def _mutate_tage_useful() -> Iterator[None]:
    """Decay TAGE useful counters on every tag hit.

    Drops the increment arm of the useful-update rule -- counters can
    only fall, so no tagged entry is ever protected and every
    mispredict's allocation overwrites a live slot.  A one-line
    polarity bug in the update rule; the ``tage-perceptron-cic`` case
    must drift.
    """
    from repro.predictors.tage import TagePredictor

    original = TagePredictor.train

    def never_useful(self, pc, taken, prediction):
        matches = self._matches(pc)
        original(self, pc, taken, prediction)
        for table, slot in matches:
            self._useful[table].update(slot, False)

    TagePredictor.train = never_useful
    try:
        yield
    finally:
        TagePredictor.train = original


@contextlib.contextmanager
def _mutate_sim_window() -> Iterator[None]:
    """Make the pipeline's instruction window one entry smaller.

    An off-by-one in the ROB capacity: window back-pressure and the
    wrong-path cap both bind one uop early, so every ``timing/`` entry
    whose machine fills the window must drift while the front-end
    entries stay put.  The timing loop keeps its state in locals, so
    the mutation patches the constructor, where the machine is taken.
    """
    from dataclasses import replace

    from repro.pipeline.simulator import PipelineSimulator

    original = PipelineSimulator.__init__

    def smaller_window(self, config):
        original(self, replace(config, rob_size=config.rob_size - 1))

    PipelineSimulator.__init__ = smaller_window
    try:
        yield
    finally:
        PipelineSimulator.__init__ = original


@contextlib.contextmanager
def _mutate_sim_jitter() -> Iterator[None]:
    """Put the resolve-delay column one sequence number off.

    Every branch gets the resolution jitter of the sequence number after
    its own: a delay column misaligned with the stream it was computed
    for.  Every ``timing/`` entry (all three paper machines have jitter)
    must drift while the front-end entries stay put.
    """
    from repro.pipeline.config import PipelineConfig

    original = PipelineConfig.resolve_delays

    def shifted(self, pcs, first_seq=0):
        return original(self, pcs, first_seq + 1)

    PipelineConfig.resolve_delays = shifted
    try:
        yield
    finally:
        PipelineConfig.resolve_delays = original


MUTATIONS: Dict[str, contextlib.AbstractContextManager] = {
    "perceptron-update": _mutate_perceptron_update,
    "jrs-reset": _mutate_jrs_reset,
    "tage-useful": _mutate_tage_useful,
    "sim-window": _mutate_sim_window,
    "sim-jitter": _mutate_sim_jitter,
}


def apply_mutation(name: str):
    """Context manager activating one named mutation."""
    try:
        return MUTATIONS[name]()
    except KeyError:
        raise KeyError(
            f"unknown mutation {name!r}; available: {sorted(MUTATIONS)}"
        ) from None
