"""Property-based tests (hypothesis) for core data structures."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.bits import bits_to_pm1, fold_bits, mask, pm1_to_bits
from repro.common.counters import CounterTable
from repro.common.history import GlobalHistoryRegister
from repro.common.perceptron import PerceptronArray
from repro.core.metrics import ConfidenceMatrix


class TestBitsProperties:
    @given(st.integers(min_value=0, max_value=(1 << 62) - 1),
           st.integers(min_value=1, max_value=32))
    def test_fold_fits_width(self, value, width):
        assert 0 <= fold_bits(value, width) <= mask(width)

    @given(st.integers(min_value=0, max_value=(1 << 30) - 1),
           st.integers(min_value=1, max_value=30))
    def test_fold_idempotent_when_fits(self, value, width):
        if value <= mask(width):
            assert fold_bits(value, width) == value

    @given(st.integers(min_value=0, max_value=(1 << 20) - 1))
    def test_pm1_roundtrip(self, bits):
        assert pm1_to_bits(bits_to_pm1(bits, 20)) == bits


class TestCounterProperties:
    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=1000), st.booleans()),
            max_size=200,
        )
    )
    def test_counter_table_in_range(self, updates):
        t = CounterTable(entries=16, bits=3, mode="saturating", initial=4)
        for index, up in updates:
            value = t.update(index, up)
            assert 0 <= value <= 7


class TestHistoryProperties:
    @given(st.lists(st.booleans(), min_size=1, max_size=100))
    def test_bits_match_recent_outcomes(self, outcomes):
        ghr = GlobalHistoryRegister(16)
        for taken in outcomes:
            ghr.push(taken)
        recent = outcomes[::-1][:16]
        for i, taken in enumerate(recent):
            assert ((ghr.bits >> i) & 1) == int(taken)

    @given(st.lists(st.booleans(), max_size=100))
    def test_vector_and_bits_consistent(self, outcomes):
        ghr = GlobalHistoryRegister(12)
        for taken in outcomes:
            ghr.push(taken)
        for i in range(12):
            expected = 1 if (ghr.bits >> i) & 1 else -1
            assert ghr.vector[i] == expected


class TestPerceptronProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=255),
                st.sampled_from([1, -1]),
            ),
            max_size=150,
        )
    )
    @settings(max_examples=40)
    def test_weights_always_in_range(self, steps):
        arr = PerceptronArray(entries=4, history_length=8, weight_bits=5)
        lo, hi = -16, 15  # the 5-bit two's-complement rails
        for bits, target in steps:
            x = np.array(bits_to_pm1(bits, 8), dtype=np.int8)
            arr.train(0, x, target)
            w = arr.snapshot()[arr.index(0)]
            assert w.min() >= lo and w.max() <= hi

    @given(st.integers(min_value=0, max_value=255))
    def test_output_bounded(self, bits):
        arr = PerceptronArray(entries=1, history_length=8, weight_bits=4)
        x = np.array(bits_to_pm1(bits, 8), dtype=np.int8)
        for _ in range(50):
            arr.train(0, x, 1)
        # Nine weights (bias + 8 inputs), each at most 8 in magnitude.
        assert abs(arr.output(0, x)) <= 9 * 8

    @given(st.integers(min_value=0, max_value=255), st.sampled_from([1, -1]))
    def test_training_never_moves_away(self, bits, target):
        arr = PerceptronArray(entries=1, history_length=8, weight_bits=8)
        x = np.array(bits_to_pm1(bits, 8), dtype=np.int8)
        before = arr.output(0, x)
        arr.train(0, x, target)
        after = arr.output(0, x)
        if target == 1:
            assert after >= before
        else:
            assert after <= before


class TestMetricsProperties:
    @given(st.lists(st.tuples(st.booleans(), st.booleans()), max_size=300))
    def test_matrix_identities(self, events):
        m = ConfidenceMatrix()
        for low, mis in events:
            m.record(low, mis)
        assert m.total == len(events)
        assert m.mispredicted + m.correct == m.total
        assert m.flagged_low + m.flagged_high == m.total
        assert 0.0 <= m.spec <= 1.0
        assert 0.0 <= m.pvn <= 1.0
        # True positives counted consistently from both directions.  The
        # products are rounded: 15 / 22 * 22 is 14.999999999999998.
        assert round(m.spec * m.mispredicted) == m.low_mispredicted
        assert round(m.pvn * m.flagged_low) == m.low_mispredicted


class TestTraceProperties:
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=10, deadline=None)
    def test_generator_deterministic(self, seed):
        from repro.trace.behaviors import BiasedBehavior, RandomBehavior
        from repro.trace.generator import StaticBranch, TraceGenerator, WorkloadSpec

        def build():
            spec = WorkloadSpec(
                name="p",
                branches=[
                    StaticBranch(pc=0x100, behavior=BiasedBehavior(0.9)),
                    StaticBranch(pc=0x200, behavior=RandomBehavior()),
                ],
            )
            return TraceGenerator(spec, seed=seed).generate(300)

        a, b = build(), build()
        assert [(r.pc, r.taken, r.uops_before) for r in a] == [
            (r.pc, r.taken, r.uops_before) for r in b
        ]
