"""Property-based tests for the vectorized fast-path kernels.

Each kernel claims sequential equivalence with a scalar reference
structure from :mod:`repro.common` / :mod:`repro.core`; hypothesis
hunts for counterexamples with adversarial index collisions, rail
saturation and degenerate sizes that the benchmark-driven equivalence
suite would hit only by luck.  Weight widths are kept tiny here on
purpose: a 2-bit weight hits its rails within a handful of updates,
which forces the SWAR passes through their exact slow path constantly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.bits import fold_bits
from repro.common.counters import CounterTable
from repro.common.history import GlobalHistoryRegister
from repro.common.perceptron import PerceptronArray
from repro.core.perceptron_estimator import PerceptronConfidenceEstimator
from repro.fastpath.kernels import (
    conflict_free_chunks,
    counter_batch_update,
    final_history_bits,
    fold_u64,
    history_bits,
    perceptron_batch_outputs,
    perceptron_batch_train,
    prev_occurrence,
    swar_cic_pass,
    swar_direction_pass,
    swar_supported,
)
from repro.predictors.perceptron_predictor import jimenez_lin_theta

# Update streams against small tables: collisions are the common case.
_COUNTER_EVENTS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=15), st.booleans()),
    max_size=200,
)

# (row, taken, correct) streams for the perceptron kernels.
_PERCEPTRON_EVENTS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3), st.booleans(), st.booleans()
    ),
    max_size=150,
)


class TestHashAndHistoryKernels:
    @given(
        st.lists(st.integers(min_value=0, max_value=(1 << 62) - 1), max_size=50),
        st.integers(min_value=1, max_value=32),
    )
    def test_fold_matches_scalar(self, values, width):
        arr = np.array(values, dtype=np.uint64)
        expected = [fold_bits(v, width) for v in values]
        assert fold_u64(arr, width).tolist() == expected

    @given(
        st.lists(st.booleans(), min_size=1, max_size=120),
        st.integers(min_value=1, max_value=24),
    )
    def test_history_bits_match_ghr(self, outcomes, length):
        ghr = GlobalHistoryRegister(length)
        expected = []
        for taken in outcomes:
            expected.append(ghr.bits)  # pre-branch view, as the kernels use
            ghr.push(taken)
        takens = np.array(outcomes, dtype=np.uint8)
        assert history_bits(takens, length).tolist() == expected
        assert final_history_bits(takens, length) == ghr.bits


class TestChunkKernels:
    @given(st.lists(st.integers(min_value=0, max_value=7), max_size=100))
    def test_prev_occurrence_definition(self, indices):
        arr = np.array(indices, dtype=np.int64)
        prev = prev_occurrence(arr).tolist()
        for i, value in enumerate(indices):
            earlier = [j for j in range(i) if indices[j] == value]
            assert prev[i] == (earlier[-1] if earlier else -1)

    @given(st.lists(st.integers(min_value=0, max_value=7), max_size=100))
    def test_chunks_partition_and_are_conflict_free(self, indices):
        arr = np.array(indices, dtype=np.int64)
        chunks = conflict_free_chunks(arr)
        flattened = [i for start, end in chunks for i in range(start, end)]
        assert flattened == list(range(len(indices)))
        for start, end in chunks:
            chunk = indices[start:end]
            assert len(set(chunk)) == len(chunk)

    @given(_COUNTER_EVENTS, st.integers(min_value=1, max_value=4))
    def test_saturating_updates_match_counter_table(self, events, bits):
        self._check_mode(events, bits, "saturating")

    @given(_COUNTER_EVENTS, st.integers(min_value=1, max_value=4))
    def test_resetting_updates_match_counter_table(self, events, bits):
        self._check_mode(events, bits, "resetting")

    def _check_mode(self, events, bits, mode):
        reference = CounterTable(entries=16, bits=bits, mode=mode, initial=0)
        for index, up in events:
            reference.update(index, up)
        table = np.zeros(16, dtype=np.int32)
        indices = np.array([i for i, _ in events], dtype=np.int64)
        ups = np.array([up for _, up in events], dtype=bool)
        counter_batch_update(
            table, indices, ups, mode=mode, max_value=(1 << bits) - 1
        )
        assert table.tolist() == reference.snapshot().tolist()
        assert int(table.min(initial=0)) >= 0
        assert int(table.max(initial=0)) <= (1 << bits) - 1

    @given(_PERCEPTRON_EVENTS, st.integers(min_value=1, max_value=6))
    def test_batch_train_matches_sequential_array(self, events, length):
        reference = PerceptronArray(
            entries=4, history_length=length, weight_bits=2
        )
        w_min, w_max = -2, 1  # the 2-bit two's-complement rails
        rng = np.random.default_rng(7)
        xs = rng.choice(
            np.array([-1, 1], dtype=np.int8), size=(len(events), length)
        )
        for (row, taken, _), x in zip(events, xs):
            reference.train(row * 4, x, 1 if taken else -1)
        weights = np.zeros((4, length + 1), dtype=np.int32)
        rows = np.array([row for row, _, _ in events], dtype=np.int64)
        targets = np.array(
            [1 if taken else -1 for _, taken, _ in events], dtype=np.int32
        )
        perceptron_batch_train(weights, rows, xs, targets, w_min, w_max)
        assert np.array_equal(weights, reference.snapshot())
        assert int(weights.min(initial=0)) >= w_min
        assert int(weights.max(initial=0)) <= w_max
        outputs = perceptron_batch_outputs(weights, rows[:4], xs[:4])
        for out, row, x in zip(outputs.tolist(), rows[:4], xs[:4]):
            assert out == reference.output(int(row) * 4, x)


class TestSwarPasses:
    """The big-int SWAR passes against the real estimator, step by step.

    ``pc = row * 4`` makes ``PerceptronArray.index`` return ``row``
    exactly, so both sides train the same rows.
    """

    @given(
        _PERCEPTRON_EVENTS,
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=6),
    )
    @settings(deadline=None)
    def test_cic_pass_matches_estimator(self, events, length, training):
        assert swar_supported(length, 2)
        reference = PerceptronConfidenceEstimator(
            entries=4,
            history_length=length,
            weight_bits=2,
            threshold=0,
            training_threshold=training,
        )
        expected = []
        pops = []
        history = 0
        for row, taken, correct in events:
            pops.append(bin(history).count("1"))
            signal = reference.estimate(row * 4, prediction=True)
            expected.append(int(signal.raw))
            reference.train(row * 4, True, correct, signal)
            reference.shift_history(taken)
            history = ((history << 1) | int(taken)) & ((1 << length) - 1)
        w_min, w_max = -2, 1  # the 2-bit two's-complement rails
        ys, weights = swar_cic_pass(
            rows=[row for row, _, _ in events],
            correct=[correct for _, _, correct in events],
            takens=[int(taken) for _, taken, _ in events],
            pops=pops,
            n_rows=4,
            history_length=length,
            threshold=0,
            training_threshold=training,
            w_min=w_min,
            w_max=w_max,
        )
        assert ys == expected
        assert np.array_equal(weights, reference.array.snapshot())

    @given(
        _PERCEPTRON_EVENTS,
        st.integers(min_value=1, max_value=8),
    )
    @settings(deadline=None)
    def test_direction_pass_matches_tnt_estimator(self, events, length):
        reference = PerceptronConfidenceEstimator(
            entries=4,
            history_length=length,
            weight_bits=2,
            threshold=0,
            mode="tnt",
        )
        expected = []
        pops = []
        history = 0
        for row, taken, correct in events:
            pops.append(bin(history).count("1"))
            # tnt trains toward ``prediction if correct else not
            # prediction``; choosing the prediction accordingly makes
            # the effective direction the resolved outcome, exactly as
            # the front end produces it.
            prediction = taken if correct else not taken
            signal = reference.estimate(row * 4, prediction)
            expected.append(int(signal.raw))
            reference.train(row * 4, prediction, correct, signal)
            reference.shift_history(taken)
            history = ((history << 1) | int(taken)) & ((1 << length) - 1)
        w_min, w_max = -2, 1  # the 2-bit two's-complement rails
        ys, weights = swar_direction_pass(
            rows=[row for row, _, _ in events],
            takens=[int(taken) for _, taken, _ in events],
            pops=pops,
            n_rows=4,
            history_length=length,
            theta=jimenez_lin_theta(length),
            w_min=w_min,
            w_max=w_max,
        )
        assert ys == expected
        assert np.array_equal(weights, reference.array.snapshot())

    def test_swar_support_boundary(self):
        # Exact iff every 16-bit lane sum stays below 2**16, within the
        # 64-bit history register and 16-bit stored-weight limits.
        assert swar_supported(32, 8)
        assert swar_supported(64, 8)
        assert not swar_supported(65, 8)
        assert not swar_supported(40, 12)
        assert not swar_supported(0, 8)
        assert not swar_supported(32, 1)
        assert not swar_supported(32, 17)
