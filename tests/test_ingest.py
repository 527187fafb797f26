"""External branch-trace ingestion: wire format, robustness, round-trip."""

import os
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.core.frontend import FrontEnd
from repro.engine.specs import EstimatorSpec, PredictorSpec
from repro.trace.ingest import (
    EXTERNAL_MAGIC,
    EXTERNAL_RECORD_SIZE,
    TraceFormatError,
    ingest_external_trace,
    iter_external_records,
    write_external_trace,
)
from repro.trace.io import job_token, load_trace
from repro.trace.record import BranchRecord


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


def _records(pairs):
    return [BranchRecord(pc=pc, taken=taken) for pc, taken in pairs]


PAIRS = st.lists(
    st.tuples(st.integers(0, 2**64 - 1), st.booleans()), max_size=200
)


class TestWireFormat:
    def test_record_size_is_pinned(self):
        # 8-byte LE pc + 1-byte taken; a drift here is a format break.
        assert EXTERNAL_RECORD_SIZE == 9
        assert len(EXTERNAL_MAGIC) == 8

    @given(pairs=PAIRS)
    @settings(max_examples=40, deadline=None)
    def test_write_then_read_round_trips(self, tmp_path_factory, pairs):
        path = str(tmp_path_factory.mktemp("ext") / "t.cbpbt")
        assert write_external_trace(_records(pairs), path) == len(pairs)
        back = [(r.pc, r.taken) for r in iter_external_records(path)]
        assert back == pairs

    def test_write_rejects_oversized_pc(self, tmp_path):
        path = str(tmp_path / "wide.cbpbt")
        with pytest.raises(TraceFormatError, match="64-bit"):
            write_external_trace(
                _records([(1 << 70, True)]), path
            )


class TestMalformedFiles:
    """Satellite: malformed input must fail structured, not raw."""

    def test_short_header_rejected(self, tmp_path):
        path = tmp_path / "short.cbpbt"
        path.write_bytes(EXTERNAL_MAGIC[:3])
        with pytest.raises(TraceFormatError, match="too short"):
            list(iter_external_records(str(path)))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.cbpbt"
        path.write_bytes(b"")
        with pytest.raises(TraceFormatError):
            list(iter_external_records(str(path)))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "magic.cbpbt"
        path.write_bytes(b"NOTATRC\n" + struct.pack("<QB", 0x400000, 1))
        with pytest.raises(TraceFormatError, match="bad magic"):
            list(iter_external_records(str(path)))

    def test_invalid_taken_byte_rejected_with_index(self, tmp_path):
        path = tmp_path / "taken.cbpbt"
        body = struct.pack("<QB", 0x400000, 1) + struct.pack("<QB", 0x400004, 7)
        path.write_bytes(EXTERNAL_MAGIC + body)
        with pytest.raises(TraceFormatError, match="record 1"):
            list(iter_external_records(str(path)))

    def test_malformed_counter_increments(self, tmp_path):
        telemetry.enable()
        path = tmp_path / "magic.cbpbt"
        path.write_bytes(b"XXXXXXXX")
        with pytest.raises(TraceFormatError):
            list(iter_external_records(str(path)))
        snap = telemetry.get_registry().snapshot()
        assert snap.counter("trace_ingest_malformed_total") == 1

    def test_no_raw_struct_or_index_errors_leak(self, tmp_path):
        for i, payload in enumerate(
            (b"", EXTERNAL_MAGIC[:5], b"12345678" + b"\x00" * 9)
        ):
            path = tmp_path / f"bad{i}.cbpbt"
            path.write_bytes(payload)
            try:
                list(iter_external_records(str(path)))
            except TraceFormatError:
                continue
            except (struct.error, IndexError) as exc:  # pragma: no cover
                pytest.fail(f"raw {type(exc).__name__} leaked for {payload!r}")


class TestTruncatedTail:
    """Satellite: a torn trailing write keeps the valid prefix."""

    def test_prefix_survives_with_warning_counter(self, tmp_path):
        telemetry.enable()
        pairs = [(0x400000 + 4 * i, i % 3 == 0) for i in range(50)]
        path = str(tmp_path / "torn.cbpbt")
        write_external_trace(_records(pairs), path)
        with open(path, "ab") as fh:
            fh.write(b"\x01\x02\x03")  # partial 4th-byte of a record
        back = [(r.pc, r.taken) for r in iter_external_records(path)]
        assert back == pairs
        snap = telemetry.get_registry().snapshot()
        assert snap.counter("trace_ingest_truncated_total") == 1
        assert snap.counter("trace_ingest_malformed_total") == 0

    def test_mid_record_cut(self, tmp_path):
        pairs = [(0x500000 + 8 * i, bool(i % 2)) for i in range(20)]
        path = tmp_path / "cut.cbpbt"
        write_external_trace(_records(pairs), str(path))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(EXTERNAL_MAGIC) + 7 * EXTERNAL_RECORD_SIZE + 4])
        back = [(r.pc, r.taken) for r in iter_external_records(str(path))]
        assert back == pairs[:7]


class TestIngestToFile:
    def test_ingest_lands_in_one_file(self, tmp_path):
        telemetry.enable()
        pairs = [(0x600000 + 4 * (i % 9), i % 4 != 0) for i in range(1_000)]
        src = str(tmp_path / "capture.cbpbt")
        out = str(tmp_path / "capture.npz")
        write_external_trace(_records(pairs), src)
        trace = ingest_external_trace(src, out)
        assert len(trace) == 1_000
        assert trace.name == "capture"
        assert [(r.pc, r.taken) for r in trace] == pairs
        assert sorted(os.listdir(tmp_path)) == ["capture.cbpbt", "capture.npz"]
        assert job_token(trace, out).startswith("recorded:")
        snap = telemetry.get_registry().snapshot()
        assert snap.counter("trace_ingest_records_total") == 1_000
        assert snap.counter("trace_ingest_files_total") == 1

    def test_reopen_from_disk(self, tmp_path):
        pairs = [(0x700000, True)] * 10
        src = str(tmp_path / "x.cbpbt")
        out = str(tmp_path / "x.npz")
        write_external_trace(_records(pairs), src)
        ingested = ingest_external_trace(src, out)
        reopened = load_trace(out)
        assert len(reopened) == 10
        assert job_token(reopened, out) == job_token(ingested, out)

    def test_malformed_source_writes_nothing(self, tmp_path):
        src = tmp_path / "bad.cbpbt"
        src.write_bytes(b"NOTATRC\n")
        with pytest.raises(TraceFormatError):
            ingest_external_trace(str(src), str(tmp_path / "bad.npz"))
        assert os.listdir(tmp_path) == ["bad.cbpbt"]

    @given(pairs=PAIRS, seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_round_trip_replay_equals_direct_replay(
        self, tmp_path_factory, pairs, seed
    ):
        """Satellite: write -> ingest -> replay == direct replay."""
        base = tmp_path_factory.mktemp("rt")
        records = _records(pairs)
        src = str(base / "t.cbpbt")
        out = str(base / "t.npz")
        write_external_trace(records, src)
        ingest_external_trace(src, out)

        def replay(stream):
            frontend = FrontEnd(
                PredictorSpec.of("tage", base_entries=64, tagged_entries=32,
                                 n_tables=3, max_history=20).build(),
                EstimatorSpec.of("perceptron", threshold=0).build(),
            )
            events = [
                (e.pc, e.taken, e.prediction, e.signal.raw)
                for e in map(frontend.process, stream)
            ]
            return events, frontend.predictor.state_digest()

        direct_events, direct_digest = replay(iter(records))
        ingested_events, ingested_digest = replay(iter(load_trace(out)))
        assert ingested_events == direct_events
        assert ingested_digest == direct_digest
