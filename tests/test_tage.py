"""TAGE-class baseline predictor: unit, property and backend tests."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.specs import PredictorSpec
from repro.predictors.tage import TagePredictor, geometric_history_lengths
from repro.trace.benchmarks import generate_benchmark_trace
from repro.verify.matrix import specs_for_predictor_kind


def small_tage() -> TagePredictor:
    return TagePredictor(
        base_entries=64,
        tagged_entries=32,
        n_tables=3,
        tag_bits=7,
        min_history=4,
        max_history=20,
    )


class TestGeometry:
    def test_lengths_strictly_increasing(self):
        lengths = geometric_history_lengths(6, 5, 80)
        assert lengths == tuple(sorted(set(lengths)))
        assert lengths[0] == 5
        assert lengths[-1] == 80

    def test_single_table(self):
        assert geometric_history_lengths(1, 5, 40) == (5,)

    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=2, max_value=10),
        st.integers(min_value=20, max_value=120),
    )
    def test_lengths_bounded_and_distinct(self, n, lo, hi):
        lengths = geometric_history_lengths(n, lo, hi)
        assert len(lengths) == n
        assert len(set(lengths)) == n
        assert lengths[0] == lo
        assert all(a < b for a, b in zip(lengths, lengths[1:]))

    def test_registered_kind_builds(self):
        predictor = PredictorSpec.of("tage").build()
        assert isinstance(predictor, TagePredictor)
        assert predictor.storage_bits > 0


class TestPredictContract:
    def test_predict_is_pure(self):
        p = small_tage()
        for pc in (0x400000, 0x400040, 0x400080):
            before = p.state_canonical()
            p.predict(pc)
            p.predict(pc)
            assert p.state_canonical() == before

    def test_update_trains_toward_outcome(self):
        p = small_tage()
        pc = 0x400100
        for _ in range(64):
            p.update(pc, True, p.predict(pc))
        assert p.predict(pc) is True

    def test_confidence_hint_bounded(self):
        p = small_tage()
        pcs = [0x400000 + 4 * i for i in range(16)]
        for step in range(200):
            pc = pcs[step % len(pcs)]
            taken = (step // 3) % 2 == 0
            assert 0.0 <= p.confidence_hint(pc) <= 1.0
            p.update(pc, taken, p.predict(pc))


class TestCanonicalState:
    def test_state_canonical_is_nested_ints(self):
        p = small_tage()
        trace = generate_benchmark_trace("gzip", n_branches=200, seed=3)
        for r in trace:
            p.update(r.pc, r.taken, p.predict(r.pc))

        def only_ints(node):
            if isinstance(node, tuple):
                return all(only_ints(x) for x in node)
            return isinstance(node, (int, str))

        assert only_ints(p.state_canonical())


class TestVerificationCoverage:
    def test_matrix_covers_tage(self):
        hits = specs_for_predictor_kind("tage")
        assert any(label == "tage-perceptron-cic" for label, _ in hits)

    def test_fastpath_supports_default_tage(self):
        from repro.engine.specs import GATING_POLICY, EstimatorSpec
        from repro.experiments.common import ExperimentSettings, job_for
        from repro.fastpath.driver import unsupported_reason

        def reason(predictor):
            job = job_for(
                ExperimentSettings(n_branches=2000, warmup=500),
                "gzip",
                EstimatorSpec.of("perceptron", threshold=0),
                policy=GATING_POLICY,
                predictor=predictor,
            )
            return unsupported_reason(job)

        assert reason(PredictorSpec.of("tage")) is None
        # Histories past the 64-bit history kernels must fall back.
        assert (
            reason(PredictorSpec.of("tage", max_history=80))
            == "predictor:tage"
        )
        # Non-power-of-two tagged tables break the fold-based indexing.
        assert (
            reason(PredictorSpec.of("tage", tagged_entries=1000))
            == "predictor:tage"
        )

    def test_backends_agree_on_metrics(self):
        # The fast tage pass must be bit-identical to the reference, so
        # both backends must produce byte-identical metrics.
        from repro.engine import Engine
        from repro.engine.specs import GATING_POLICY, EstimatorSpec
        from repro.experiments.common import ExperimentSettings, job_for

        def metrics(backend):
            settings = ExperimentSettings(
                n_branches=3000, warmup=1000, backend=backend
            )
            job = job_for(
                settings,
                "mcf",
                EstimatorSpec.of("perceptron", threshold=0),
                policy=GATING_POLICY,
                predictor=PredictorSpec.of("tage"),
            )
            matrix = Engine().replay(job).result.matrix
            return (matrix.total, matrix.flagged_low, matrix.pvn, matrix.spec,
                    matrix.misprediction_rate)

        assert metrics("reference") == metrics("fast")
