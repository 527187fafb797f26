"""Segmented streaming execution at the engine layer.

Covers the segment chain (:func:`repro.engine.replay.replay_segmented`),
its integration with :class:`repro.engine.Engine` (``segment_size`` jobs,
:meth:`Engine.stream`), the segment cache's prefix-reuse behaviour
(observed through telemetry counters), the peak-memory
contract of streaming and its fast path, and recorded segment
directories (orphan sweeps, ``segtrace:`` job sources).

``SimJob.fingerprint`` deliberately excludes ``segment_size`` (it is an
execution knob, not an outcome input), so tests that re-run the same
logical job with different segmentation must clear the engine's
job-level replay cache first -- otherwise the cached monolithic outcome
is served and segmentation is never exercised.
"""

import os
import tracemalloc

import pytest

from repro import telemetry
from repro.core.frontend import FrontEnd, FrontEndResult
from repro.engine import (
    Engine,
    ReplayCheckpoint,
    SimJob,
    canonical_metrics,
    replay_segmented,
    segment_fingerprint,
)
from repro.engine.cache import SegmentCache
from repro.engine.replay import CHECKPOINT_WINDOW
from repro.trace.benchmarks import generate_benchmark_trace
from repro.trace.segments import (
    SegmentedTrace,
    save_segmented,
    sweep_orphan_segments,
)
from repro.verify.matrix import CASES

N_BRANCHES = 2_000
SEGMENT_SIZE = 500  # 4 segments over the 2k-branch trace


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


def _job(case, **overrides):
    base = dict(
        benchmark="gzip",
        n_branches=4000,
        warmup=1000,
        seed=5,
        predictor=case.predictor,
        estimator=case.estimator,
        policy=case.policy,
    )
    base.update(overrides)
    return SimJob(**base)


@pytest.fixture(scope="module")
def trace():
    return generate_benchmark_trace("gzip", n_branches=N_BRANCHES, seed=11)


def _trace_job(**overrides):
    """A job over the ``trace`` fixture's benchmark, length and seed."""
    case = CASES[0]
    base = dict(
        benchmark="gzip",
        n_branches=N_BRANCHES,
        warmup=0,
        seed=11,
        predictor=case.predictor,
        estimator=case.estimator,
        policy=case.policy,
        collect_outputs=True,
    )
    base.update(overrides)
    return SimJob(**base)


class TestReplayCheckpoint:
    def test_initial(self):
        cp = ReplayCheckpoint.initial()
        assert cp.position == 0
        assert cp.predictor_state is None
        assert cp.estimator_state is None
        assert cp.history_bits == 0
        assert cp.path == ()

    def test_digest_distinguishes_state(self):
        a = ReplayCheckpoint.initial()
        b = ReplayCheckpoint(1, None, None, 1, (0x40,))
        assert a.digest != b.digest
        assert a.digest == ReplayCheckpoint.initial().digest

    def test_segment_fingerprint_chains_on_incoming_digest(self):
        job = _job(CASES[0])
        d0 = ReplayCheckpoint.initial().digest
        fp_a = segment_fingerprint(job, 0, 1000, d0)
        fp_b = segment_fingerprint(job, 0, 1000, "different")
        assert fp_a != fp_b
        # n_branches/warmup are execution-window knobs, not segment
        # content: a longer job shares the prefix segment addresses.
        longer = _job(CASES[0], n_branches=8000, warmup=0)
        assert segment_fingerprint(longer, 0, 1000, d0) == fp_a


class TestSegmentedEquivalence:
    def test_job_validates_segment_size(self):
        with pytest.raises(ValueError):
            _job(CASES[0], segment_size=0)

    @pytest.mark.parametrize("segment_size", [997, 1000, 4096])
    def test_reference_backend_matches_monolithic(self, segment_size):
        engine = Engine()
        job = _job(CASES[1])  # jrs-l7 with gating
        mono = engine.replay(job)
        engine._replays.clear()  # same fingerprint: force real execution
        seg = engine.replay(job.with_(segment_size=segment_size))
        assert seg.events == mono.events
        assert canonical_metrics(seg.result) == canonical_metrics(mono.result)
        assert seg.backend == "reference"

    def test_fast_backend_matches_monolithic(self):
        engine = Engine()
        job = _job(CASES[3], backend="fast")  # perceptron-cic-l0
        mono = engine.replay(job)
        engine._replays.clear()
        seg = engine.replay(job.with_(segment_size=997))
        assert seg.events == mono.events
        assert canonical_metrics(seg.result) == canonical_metrics(mono.result)
        assert seg.backend == "fast"

    def test_final_checkpoint_matches_live_frontend(self):
        case = CASES[1]
        engine = Engine()
        trace = engine.trace("gzip", 4000, seed=5)
        job = _job(case, segment_size=1000)
        _, checkpoint = replay_segmented(job, trace, cache=SegmentCache())

        frontend = FrontEnd(
            case.predictor.build(), case.estimator.build(), case.policy.build()
        )
        for record in trace:
            frontend.process(record)
        assert checkpoint.position == 4000
        assert checkpoint.predictor_state == frontend.predictor.checkpoint()
        assert checkpoint.estimator_state == frontend.estimator.checkpoint()

    def test_final_checkpoint_is_backend_independent(self):
        """Both backends end a chain on one checkpoint, windows included.

        The last segment (20 branches) is shorter than the window, so
        the history/path window spans a segment cut.
        """
        pytest.importorskip("numpy")
        engine = Engine()
        trace = engine.trace("gzip", 4000, seed=5)
        job = _job(CASES[3], segment_size=1990)  # perceptron-cic-l0
        _, ref = replay_segmented(job, trace, cache=SegmentCache())
        _, fast = replay_segmented(
            job.with_(backend="fast"), trace, cache=SegmentCache()
        )
        assert fast == ref
        tail = trace[-CHECKPOINT_WINDOW:]
        assert ref.path == tuple(record.pc for record in tail)
        assert ref.history_bits == int(
            "".join("1" if record.taken else "0" for record in tail), 2
        )


class TestPrefixReuse:
    def test_extending_a_trace_replays_only_dirty_segments(self):
        """The headline incremental-replay property, seen via telemetry.

        A 4000-branch job is replayed segmented (4 misses), then the
        *same configuration* is re-run for 5000 branches: the four
        prefix segments hit the cache and only the new fifth segment
        executes.
        """
        telemetry.enable()
        tel = telemetry.get_registry()
        engine = Engine()

        job = _job(CASES[1], segment_size=1000)
        engine.replay(job)
        assert tel.counter("cache_segment_misses_total").value == 4
        assert tel.counter("cache_segment_hits_total", tier="memory").value == 0

        engine._replays.clear()
        engine.replay(job.with_(n_branches=5000))
        assert tel.counter("cache_segment_misses_total").value == 5
        assert tel.counter("cache_segment_hits_total", tier="memory").value == 4
        # Exactly five distinct segments were ever executed.
        assert (
            tel.counter("engine_segments_total", backend="reference").value == 5
        )

    def test_late_config_change_reuses_shared_prefix_nothing_more(self):
        """Different estimator => different chain from segment 0."""
        telemetry.enable()
        tel = telemetry.get_registry()
        engine = Engine()

        engine.replay(_job(CASES[1], segment_size=1000))
        misses_before = tel.counter("cache_segment_misses_total").value
        engine.replay(_job(CASES[2], segment_size=1000))  # enhanced jrs
        assert (
            tel.counter("cache_segment_misses_total").value
            == misses_before + 4
        )
        assert tel.counter("cache_segment_hits_total", tier="memory").value == 0

    def test_warmup_change_is_fully_cached(self):
        """Warm-up applies at merge time: no segment re-executes."""
        telemetry.enable()
        tel = telemetry.get_registry()
        engine = Engine()

        job = _job(CASES[1], segment_size=1000)
        full = engine.replay(job)
        engine._replays.clear()
        rewarmed = engine.replay(job.with_(warmup=2000))
        assert tel.counter("cache_segment_misses_total").value == 4
        assert tel.counter("cache_segment_hits_total", tier="memory").value == 4
        assert rewarmed.events == full.events[1000:]


class TestEngineStream:
    def test_stream_matches_monolithic_metrics(self):
        engine = Engine()
        job = _job(CASES[1])
        mono = engine.replay(job)
        tel = telemetry.enable()
        tel.reset()
        streamed = engine.stream(job, segment_size=700)
        assert isinstance(streamed, FrontEndResult)
        assert canonical_metrics(streamed) == canonical_metrics(mono.result)
        assert tel.snapshot().counter_series("engine_replays_total") == {
            "engine_replays_total{backend=reference}": 1
        }
        # Only ``None`` selects the default pull granularity.
        for bad in (0, -1):
            with pytest.raises(ValueError, match="segment_size"):
                engine.stream(job, segment_size=bad)

    def test_stream_peak_memory_stays_bounded(self):
        """tracemalloc guard: streaming must not scale with trace length.

        The monolithic path materializes the whole trace and its event
        list; the stream path holds one segment of records plus
        accumulators.  Requiring a 3x gap keeps the guard robust while
        still failing loudly if someone materializes the stream.
        """
        engine = Engine()
        job = _job(CASES[0], n_branches=30_000, warmup=0)

        tracemalloc.start()
        engine.replay(job)
        _, replay_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        streaming_engine = Engine()  # fresh caches: no shared trace
        tracemalloc.start()
        streaming_engine.stream(job, segment_size=1000)
        _, stream_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        assert stream_peak * 3 < replay_peak, (
            f"stream peak {stream_peak} vs monolithic {replay_peak}"
        )


class TestOrphanSweep:
    def test_sweep_removes_unindexed_payloads(self, trace, tmp_path):
        pytest.importorskip("numpy")
        directory = str(tmp_path / "seg")
        save_segmented(trace, directory, segment_size=SEGMENT_SIZE)
        stray = os.path.join(directory, "segment-9999.npz")
        with open(stray, "wb") as handle:
            handle.write(b"orphan")

        tel = telemetry.enable()
        tel.reset()
        removed = sweep_orphan_segments(directory)
        assert removed == 1
        assert not os.path.exists(stray)
        assert tel.counter("trace_segment_orphans_removed_total").value == 1
        # Indexed payloads are untouched and the trace still reads.
        assert len(SegmentedTrace(directory)) == N_BRANCHES

    def test_save_sweeps_crashed_writer_leftovers(self, trace, tmp_path):
        pytest.importorskip("numpy")
        directory = str(tmp_path / "seg")
        os.makedirs(directory)
        stray = os.path.join(directory, "segment-0042.npz")
        with open(stray, "wb") as handle:
            handle.write(b"crashed writer leftovers")
        save_segmented(trace, directory, segment_size=SEGMENT_SIZE)
        assert not os.path.exists(stray)


class TestSegtraceJobSource:
    @pytest.fixture()
    def recorded(self, trace, tmp_path):
        pytest.importorskip("numpy")
        return save_segmented(
            trace, str(tmp_path / "seg"), segment_size=SEGMENT_SIZE
        )

    def test_job_token_pins_content(self, recorded):
        token = recorded.job_token()
        assert token.startswith("segtrace:")
        assert recorded.content_digest[:16] in token

    def test_engine_replays_from_token(self, recorded):
        token = recorded.job_token()
        engine = Engine(max_workers=1)
        from_token = engine.replay(
            _trace_job(benchmark=token, segment_size=None)
        )
        generated = engine.replay(_trace_job(segment_size=None))
        assert from_token.events == generated.events
        assert canonical_metrics(from_token.result) == canonical_metrics(
            generated.result
        )

    def test_prefix_view_bounds_job_window(self, recorded):
        token = recorded.job_token()
        engine = Engine(max_workers=1)
        short = engine.replay(
            _trace_job(benchmark=token, n_branches=700, segment_size=None)
        )
        full = engine.replay(_trace_job(segment_size=None))
        assert short.events == full.events[:700]

    def test_digest_mismatch_rejected(self, recorded):
        bad = "segtrace:" + "0" * 16 + ":" + recorded.directory
        with pytest.raises(ValueError, match="digest"):
            Engine(max_workers=1).replay(
                _trace_job(benchmark=bad, segment_size=None)
            )

    def test_oversized_window_rejected(self, recorded):
        with pytest.raises(ValueError):
            Engine(max_workers=1).replay(
                _trace_job(
                    benchmark=recorded.job_token(),
                    n_branches=N_BRANCHES + 1,
                    segment_size=None,
                )
            )


class TestFastStream:
    def test_fast_stream_matches_reference(self):
        pytest.importorskip("numpy")
        engine = Engine(max_workers=1)
        ref = engine.stream(_trace_job(segment_size=None), segment_size=600)
        tel = telemetry.enable()
        tel.reset()
        fast = engine.stream(
            _trace_job(backend="fast", segment_size=None), segment_size=600
        )
        assert canonical_metrics(fast) == canonical_metrics(ref)
        assert tel.counter("engine_stream_segments_total").value == 4
        assert tel.counter("fastpath_fallbacks_total").value == 0
        assert tel.snapshot().counter_series("engine_replays_total") == {
            "engine_replays_total{backend=fast}": 1
        }

    @pytest.mark.parametrize("driver", ["monolithic", "chain", "stream"])
    def test_midstream_fallback_is_bit_identical(self, monkeypatch, driver):
        """A runtime rejection re-runs the failing step on the reference loop.

        The injection rejects a monolithic replay's only fast step, and
        the third step of a chain or a stream, after two fast steps have
        rolled the state forward.
        """
        pytest.importorskip("numpy")
        from repro import fastpath
        from repro.fastpath import driver as fast_driver

        real = fast_driver.replay_segment
        fast_steps = 0 if driver == "monolithic" else 2
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > fast_steps:
                raise fastpath.FastPathUnsupported("injected mid-stream")
            return real(*args, **kwargs)

        def replay(backend):
            """``(outcome or None, result)`` of the driver under test."""
            engine = Engine(max_workers=1)
            if driver == "stream":
                job = _trace_job(backend=backend, segment_size=None)
                return None, engine.stream(job, segment_size=600)
            size = 600 if driver == "chain" else None
            outcome = engine.replay(_trace_job(backend=backend, segment_size=size))
            return outcome, outcome.result

        monkeypatch.setattr(fast_driver, "replay_segment", flaky)
        tel = telemetry.enable()
        tel.reset()
        fast, fast_result = replay("fast")
        fallbacks = tel.counter(
            "fastpath_fallbacks_total", reason="runtime"
        ).value
        telemetry.disable()
        ref, ref_result = replay("reference")
        assert canonical_metrics(fast_result) == canonical_metrics(ref_result)
        assert calls["n"] == fast_steps + 1
        assert fallbacks == 1
        if fast is not None:
            assert fast.events == ref.events
            assert fast.backend == "reference"
