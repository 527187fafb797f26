"""Segment iteration, the on-disk segment format, and recorded traces
as engine job sources (orphan sweeps, ``segtrace:`` tokens)."""

import os

import pytest

from repro import telemetry
from repro.engine import Engine, SimJob, canonical_metrics
from repro.engine.cache import TraceCache
from repro.trace.benchmarks import generate_benchmark_trace
from repro.trace.generator import TraceGenerator
from repro.trace.record import BranchRecord
from repro.trace.segments import (
    SegmentedTrace,
    iter_record_segments,
    save_segmented,
    sweep_orphan_segments,
)
from repro.verify.matrix import CASES
from tests.conftest import make_simple_workload

N_BRANCHES = 2_000
SEGMENT_SIZE = 500  # 4 segments over the 2k-branch trace


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


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


class TestIterRecordSegments:
    def test_covers_stream_in_order(self, simple_trace):
        segments = list(iter_record_segments(simple_trace, 1000))
        assert [len(s) for s in segments] == [1000, 1000, 1000, 1000]
        flat = [r for seg in segments for r in seg]
        assert flat == list(simple_trace)

    def test_lazy_on_unbounded_stream(self):
        def endless():
            pc = 0x1000
            while True:
                yield BranchRecord(pc=pc, taken=True, uops_before=1)

        it = iter_record_segments(endless(), 7)
        first = next(it)
        assert len(first) == 7  # pulled exactly one segment, no hang

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            next(iter_record_segments([], 0))


class TestSegmentedTraceFormat:
    def test_roundtrip(self, tmp_path, simple_trace):
        directory = str(tmp_path / "seg")
        seg = save_segmented(simple_trace, directory, segment_size=1500)
        assert seg.n_branches == len(simple_trace)
        assert seg.n_segments == 3
        assert seg.bounds(0) == (0, 1500)
        assert seg.bounds(2) == (3000, 4000)
        assert list(seg.iter_records()) == list(simple_trace)
        loaded = seg.load()
        assert loaded.name == simple_trace.name
        assert loaded.seed == simple_trace.seed

    def test_reopen_reads_only_index(self, tmp_path, simple_trace):
        directory = str(tmp_path / "seg")
        save_segmented(simple_trace, directory, segment_size=1000)
        reopened = SegmentedTrace(directory)
        assert len(reopened) == len(simple_trace)
        assert reopened.segment(1)[0] == simple_trace[1000]

    def test_n_branches_bounds_unbounded_stream(self, tmp_path):
        spec = make_simple_workload()
        stream = TraceGenerator(spec, seed=9).iter_records()
        seg = save_segmented(
            stream, str(tmp_path / "seg"), segment_size=64, n_branches=200
        )
        assert seg.n_branches == 200
        assert [seg.bounds(i) for i in range(seg.n_segments)] == [
            (0, 64), (64, 128), (128, 192), (192, 200),
        ]

    def test_missing_index_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            SegmentedTrace(str(tmp_path))


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
        from_token = engine.replay(_trace_job(benchmark=token))
        generated = engine.replay(_trace_job())
        assert from_token.events == generated.events
        assert canonical_metrics(from_token.result) == canonical_metrics(
            generated.result
        )

    def test_prefix_view_bounds_job_window(self, recorded):
        token = recorded.job_token()
        engine = Engine(max_workers=1)
        short = engine.replay(_trace_job(benchmark=token, n_branches=700))
        full = engine.replay(_trace_job())
        assert short.events == full.events[:700]

    def test_digest_mismatch_rejected(self, recorded):
        bad = "segtrace:" + "0" * 16 + ":" + recorded.directory
        with pytest.raises(ValueError, match="digest"):
            Engine(max_workers=1).replay(_trace_job(benchmark=bad))

    @pytest.mark.parametrize("digest", ["", "a"], ids=["empty", "one-char"])
    def test_unpinned_token_rejected(self, recorded, digest):
        """A token must pin the content: the replay cache is looked up
        before the trace is opened, so a job on an unpinned token would
        be served the outcome of whatever the directory held before."""
        token = f"segtrace:{digest}:{recorded.directory}"
        with pytest.raises(ValueError, match="segtrace"):
            _trace_job(benchmark=token)
        with pytest.raises(ValueError, match="digest"):
            TraceCache().get(token, N_BRANCHES, 0)

    def test_oversized_window_rejected(self, recorded):
        with pytest.raises(ValueError):
            Engine(max_workers=1).replay(
                _trace_job(
                    benchmark=recorded.job_token(),
                    n_branches=N_BRANCHES + 1,
                )
            )


class TestIngestedEdgeCases:
    """Regressions for externally-produced (non-generated) record lists.

    Ingested traces reach :func:`save_segmented` without a generator's
    invariants, so the format must round-trip inputs a generator never
    emits: pcs wider than 64 bits and empty record lists.
    """

    def test_oversized_pc_round_trips(self, tmp_path):
        wide = (1 << 70) + 5
        records = [
            BranchRecord(pc=0x400000, taken=True),
            BranchRecord(pc=wide, taken=False),
            BranchRecord(pc=wide + 4, taken=True),
        ]
        trace = save_segmented(records, str(tmp_path / "seg"), segment_size=2)
        assert [(r.pc, r.taken) for r in trace.iter_records()] == [
            (r.pc, r.taken) for r in records
        ]
        reopened = SegmentedTrace(str(tmp_path / "seg"))
        assert [r.pc for r in reopened.load()] == [r.pc for r in records]
        assert reopened.job_token() == trace.job_token()

    def test_zero_length_trace_round_trips(self, tmp_path):
        trace = save_segmented([], str(tmp_path / "seg"), segment_size=8)
        assert len(trace) == 0
        assert trace.n_segments == 0
        assert list(trace.iter_records()) == []
        reopened = SegmentedTrace(str(tmp_path / "seg"))
        assert len(reopened) == 0
        assert len(reopened.load()) == 0
        assert reopened.job_token() == trace.job_token()
