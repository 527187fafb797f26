"""Stateful property tests (hypothesis RuleBasedStateMachine).

Where :mod:`tests.test_properties` checks single operations, these
machines drive the hardware-model data structures through *arbitrary
interleaved operation sequences* against naive pure-Python models, so
ordering bugs (saturation applied before the update, a write that
lands in the wrong slot) cannot hide.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.common.counters import CounterTable
from repro.common.perceptron import PerceptronArray

_PCS = st.integers(min_value=0, max_value=(1 << 32) - 1)


class PerceptronArrayMachine(RuleBasedStateMachine):
    """PerceptronArray vs a dict-of-lists model with explicit clamping."""

    ENTRIES = 8
    HISTORY = 6
    WEIGHT_BITS = 6

    def __init__(self):
        super().__init__()
        self.array = PerceptronArray(
            self.ENTRIES, self.HISTORY, weight_bits=self.WEIGHT_BITS
        )
        self.w_min = -(1 << (self.WEIGHT_BITS - 1))
        self.w_max = (1 << (self.WEIGHT_BITS - 1)) - 1
        self.model = [[0] * (self.HISTORY + 1) for _ in range(self.ENTRIES)]

    def _row(self, pc):
        return (pc >> 2) % self.ENTRIES

    @rule(
        pc=_PCS,
        inputs=st.lists(
            st.sampled_from([-1, 1]), min_size=HISTORY, max_size=HISTORY
        ),
        step=st.sampled_from([-1, 1]),
    )
    def train(self, pc, inputs, step):
        self.array.train(pc, np.array(inputs, dtype=np.int8), step)
        row = self.model[self._row(pc)]
        row[0] = min(max(row[0] + step, self.w_min), self.w_max)
        for i, x in enumerate(inputs):
            row[i + 1] = min(
                max(row[i + 1] + step * x, self.w_min), self.w_max
            )

    @rule(
        pc=_PCS,
        inputs=st.lists(
            st.sampled_from([-1, 1]), min_size=HISTORY, max_size=HISTORY
        ),
    )
    def output_matches(self, pc, inputs):
        x = np.array(inputs, dtype=np.int8)
        row = self.model[self._row(pc)]
        expected = row[0] + sum(w * v for w, v in zip(row[1:], inputs))
        assert self.array.output(pc, x) == expected

    @invariant()
    def weights_match_and_stay_clamped(self):
        snapshot = self.array.snapshot()
        assert snapshot.min() >= self.w_min
        assert snapshot.max() <= self.w_max
        assert [list(map(int, row)) for row in snapshot] == self.model


class CounterTableMachine(RuleBasedStateMachine):
    """CounterTable (both modes) vs a list-of-ints model."""

    ENTRIES = 8
    BITS = 4

    def __init__(self):
        super().__init__()
        self.max = (1 << self.BITS) - 1
        self.tables = {
            "saturating": CounterTable(self.ENTRIES, bits=self.BITS),
            "resetting": CounterTable(
                self.ENTRIES, bits=self.BITS, mode="resetting"
            ),
        }
        self.models = {
            "saturating": [0] * self.ENTRIES,
            "resetting": [0] * self.ENTRIES,
        }

    @rule(index=st.integers(min_value=0, max_value=1 << 16), up=st.booleans())
    def update(self, index, up):
        for mode, table in self.tables.items():
            table.update(index, up)
            model = self.models[mode]
            slot = index % self.ENTRIES
            if up:
                model[slot] = min(model[slot] + 1, self.max)
            elif mode == "saturating":
                model[slot] = max(model[slot] - 1, 0)
            else:
                model[slot] = 0

    @rule(
        index=st.integers(min_value=0, max_value=1 << 16),
        value=st.integers(min_value=0, max_value=(1 << BITS) - 1),
    )
    def write(self, index, value):
        for mode, table in self.tables.items():
            table.write(index, value)
            self.models[mode][index % self.ENTRIES] = value

    @invariant()
    def tables_match_models(self):
        for mode, table in self.tables.items():
            assert list(map(int, table.snapshot())) == self.models[mode]
            for slot in range(self.ENTRIES):
                assert table.read(slot) == self.models[mode][slot]
                assert table.msb(slot) == bool(
                    self.models[mode][slot] >> (self.BITS - 1)
                )


_SETTINGS = settings(max_examples=40, stateful_step_count=30, deadline=None)

TestPerceptronArrayStateful = PerceptronArrayMachine.TestCase
TestPerceptronArrayStateful.settings = _SETTINGS
TestCounterTableStateful = CounterTableMachine.TestCase
TestCounterTableStateful.settings = _SETTINGS
