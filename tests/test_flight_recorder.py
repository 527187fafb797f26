"""Tests for the flight-recorder layer added on top of telemetry.

Covers the cross-process span contract (pid-namespaced span ids, the
worker capture/replay handoff, the Chrome-trace timeline export),
histogram quantiles and the Markdown percentile columns, and the
event-schema error paths.
"""

import json
import os

import pytest

from repro import telemetry
from repro.engine import Engine, EstimatorSpec, SimJob
from repro.telemetry import spans as spans_mod
from repro.telemetry.registry import (
    SECONDS_BUCKETS,
    MetricsRegistry,
    histogram_quantile,
)
from repro.telemetry.schema import EVENT_SCHEMA, validate_event
from repro.telemetry.timeline import chrome_trace, load_trace, write_chrome_trace

JOB = SimJob(
    benchmark="gzip",
    n_branches=2_000,
    warmup=500,
    seed=1,
    estimator=EstimatorSpec.of("perceptron", threshold=0),
)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.close_trace()
    telemetry.disable()
    telemetry.reset()
    telemetry.drain_span_capture()
    yield
    telemetry.close_trace()
    telemetry.disable()
    telemetry.reset()
    telemetry.drain_span_capture()


def _trace_lines(path):
    return [
        json.loads(line)
        for line in open(path, encoding="utf-8")
        if line.strip()
    ]


class TestSpanIdAllocation:
    def test_ids_are_pid_namespaced(self, monkeypatch):
        """Regression: a forked worker inheriting the parent's counter
        must re-seed into its own namespace, not keep allocating the
        parent's ids."""
        parent_id = spans_mod._alloc_id()
        # Simulate the post-fork world: same module globals, new pid.
        fake_pid = os.getpid() + 1
        monkeypatch.setattr(spans_mod.os, "getpid", lambda: fake_pid)
        worker_id = spans_mod._alloc_id()
        assert worker_id != parent_id
        assert worker_id >> spans_mod._ID_BITS == fake_pid & spans_mod._PID_MASK
        # And back in the parent, allocation resumes in its namespace.
        monkeypatch.undo()
        resumed = spans_mod._alloc_id()
        assert resumed >> spans_mod._ID_BITS == (
            os.getpid() & spans_mod._PID_MASK
        )
        assert resumed != worker_id

    def test_events_carry_pid_and_monotonic_ts(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        telemetry.set_trace_path(path)
        with telemetry.trace_span("x"):
            telemetry.log_event("mark", message="m")
        telemetry.close_trace()
        meta, log, span = _trace_lines(path)
        assert meta == {
            "event": "meta", "schema": EVENT_SCHEMA, "pid": os.getpid(),
        }
        for event in (span, log):
            assert event["pid"] == os.getpid()
            assert isinstance(event["ts"], float)
        assert validate_event(span) == []
        assert validate_event(log) == []


class TestCaptureReplay:
    def test_capture_buffers_and_clears_stack(self):
        telemetry.begin_span_capture()
        assert telemetry.tracing_active()
        with telemetry.trace_span("root"):
            with telemetry.trace_span("child"):
                pass
        events = telemetry.drain_span_capture()
        assert not telemetry.tracing_active()
        by_name = {e["name"]: e for e in events}
        assert by_name["root"]["parent_id"] is None
        assert by_name["child"]["parent_id"] == by_name["root"]["span_id"]
        # Draining again yields nothing (buffer disarmed).
        assert telemetry.drain_span_capture() == []

    def test_replay_reparents_roots_under_open_span(self, tmp_path):
        telemetry.begin_span_capture()
        with telemetry.trace_span("worker.task"):
            telemetry.log_event("worker.note", message="n")
        captured = telemetry.drain_span_capture()

        path = str(tmp_path / "t.jsonl")
        telemetry.set_trace_path(path)
        with telemetry.trace_span("dispatch") as parent:
            telemetry.replay_captured(captured)
        telemetry.close_trace()
        lines = _trace_lines(path)
        by_name = {e["name"]: e for e in lines[1:]}
        # The worker's root span re-parents under the dispatching span;
        # linkage *inside* the captured batch is preserved untouched.
        assert by_name["worker.task"]["parent_id"] == parent.span_id
        assert (
            by_name["worker.note"]["parent_id"]
            == by_name["worker.task"]["span_id"]
        )

    def test_replay_without_sink_is_a_noop(self):
        telemetry.replay_captured(
            [{"event": "span", "name": "x", "parent_id": None}]
        )  # no sink, no buffer: must not raise


class TestQuantilesAndMax:
    def _hist(self, values):
        reg = MetricsRegistry(enabled=True)
        h = reg.histogram("h", buckets=(0.1, 1.0, 10.0))
        for v in values:
            h.observe(v)
        return reg.snapshot().histograms["h"]

    def test_max_tracked_and_merged(self):
        hist = self._hist([0.05, 5.0, 0.5])
        assert hist["max"] == 5.0
        parent = MetricsRegistry(enabled=True)
        parent.histogram("h", buckets=(0.1, 1.0, 10.0)).observe(0.2)
        from repro.telemetry.registry import MetricsSnapshot

        parent.merge(MetricsSnapshot(histograms={"h": hist}))
        assert parent.snapshot().histograms["h"]["max"] == 5.0

    def test_quantiles_interpolate_within_buckets(self):
        hist = self._hist([0.5] * 10)  # all in the (0.1, 1.0] bucket
        # Interpolation runs from the bucket's lower bound toward its
        # upper bound clamped at the tracked max (0.5 here): the p50
        # estimate must land strictly inside (0.1, 0.5].
        p50 = histogram_quantile(hist, 0.5)
        assert 0.1 < p50 <= 0.5
        # p100 clamps to the tracked max, not the bucket bound.
        assert histogram_quantile(hist, 1.0) == pytest.approx(0.5)

    def test_quantile_edge_cases(self):
        assert histogram_quantile(
            {"buckets": [1.0], "counts": [0, 0], "count": 0,
             "sum": 0.0, "max": 0.0},
            0.5,
        ) == 0.0
        overflow = self._hist([100.0])  # lands past the last bound
        assert histogram_quantile(overflow, 0.99) == pytest.approx(100.0)

    def test_markdown_report_has_percentile_columns(self):
        reg = MetricsRegistry(enabled=True)
        for v in (0.2, 0.4, 1.8):
            reg.histogram(
                "span_seconds", buckets=SECONDS_BUCKETS, span="phase"
            ).observe(v)
        text = telemetry.render_markdown(telemetry.metrics_doc(reg.snapshot()))
        assert "p50" in text and "p95" in text and "max" in text
        assert "1.8" in text  # the max value is reported


class TestSchemaErrorPaths:
    def test_unknown_event_kind(self):
        assert any(
            "must be one of" in p
            for p in validate_event({"event": "metric", "name": "x"})
        )

    def test_meta_requires_pid_and_schema(self):
        assert any(
            "pid" in p
            for p in validate_event({"event": "meta", "schema": EVENT_SCHEMA})
        )
        assert any(
            "schema" in p
            for p in validate_event({"event": "meta", "schema": 1, "pid": 1})
        )

    def test_span_field_errors(self):
        base = {
            "event": "span", "name": "x", "span_id": 1, "parent_id": None,
            "pid": 1, "ts": 0.0, "duration_s": 0.1, "ok": True,
        }
        assert validate_event(base) == []
        for field, bad, needle in [
            ("name", 7, "name"),
            ("span_id", "a", "span_id"),
            ("parent_id", "a", "parent_id"),
            ("pid", None, "pid"),
            ("ts", "now", "ts"),
            ("duration_s", None, "duration_s"),
            ("ok", 1, "ok"),
            ("fields", [1], "fields"),
        ]:
            problems = validate_event({**base, field: bad})
            assert any(needle in p for p in problems), (field, problems)

    def test_log_field_errors(self):
        base = {
            "event": "log", "name": "x", "level": "WARNING", "message": "m",
            "parent_id": None, "pid": 1, "ts": 0.0, "fields": {},
        }
        assert validate_event(base) == []
        assert any(
            "level" in p for p in validate_event({**base, "level": 30})
        )
        assert any(
            "fields" in p for p in validate_event({**base, "fields": None})
        )

    def test_trace_file_with_truncated_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps(
                {"event": "meta", "schema": EVENT_SCHEMA, "pid": 1}
            )
            + "\n"
            + '{"event": "span", "name": "x", "span_i'  # truncated write
        )
        problems = telemetry.validate_trace_file(str(path))
        assert any("not valid JSON" in p for p in problems)

    def test_histogram_missing_max_rejected(self):
        doc = telemetry.metrics_doc()
        doc["histograms"] = {
            "h": {"buckets": [1.0], "counts": [1, 0], "sum": 0.5, "count": 1}
        }
        assert any("max" in p for p in telemetry.validate_metrics_doc(doc))


def _synthetic_trace(path, pid_a=100, pid_b=200, collide=False):
    """Two-process trace: a parent span with a worker span beside it."""
    events = [
        {"event": "meta", "schema": EVENT_SCHEMA, "pid": pid_a},
        {
            "event": "span", "name": "parent.work", "span_id": 11,
            "parent_id": None, "pid": pid_a, "ts": 1.0,
            "duration_s": 2.0, "ok": True, "fields": {"k": "v"},
        },
        {
            "event": "span", "name": "worker.segment",
            "span_id": 11 if collide else 21, "parent_id": 11,
            "pid": pid_b, "ts": 1.5, "duration_s": 0.5, "ok": True,
        },
        {
            "event": "log", "name": "speculation.guess", "level": "DEBUG",
            "message": "guessed", "parent_id": 11, "pid": pid_a,
            "ts": 1.2, "fields": {"position": 4},
        },
    ]
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(event) + "\n")


class TestTimelineExport:
    def test_chrome_trace_shape(self, tmp_path):
        src = str(tmp_path / "t.jsonl")
        _synthetic_trace(src)
        events, summary = load_trace(src)
        assert summary["meta_pid"] == 100 and summary["skipped"] == 0
        doc = chrome_trace(events, meta_pid=100)
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {s["name"] for s in spans} == {"parent.work", "worker.segment"}
        # Timestamps rebase to the earliest event, in microseconds.
        parent = next(s for s in spans if s["name"] == "parent.work")
        worker = next(s for s in spans if s["name"] == "worker.segment")
        assert parent["ts"] == 0.0 and worker["ts"] == pytest.approx(5e5)
        assert parent["args"]["k"] == "v"
        assert instants[0]["name"] == "speculation.guess"
        labels = {m["pid"]: m["args"]["name"] for m in metas}
        assert labels[100] == "repro parent"
        assert labels[200] == "repro worker 200"

    def test_write_chrome_trace_summary_and_collisions(self, tmp_path):
        src, out = str(tmp_path / "t.jsonl"), str(tmp_path / "t.json")
        _synthetic_trace(src)
        summary = write_chrome_trace(src, out)
        assert summary["spans"] == 2
        assert summary["pids"] == [100, 200]
        assert summary["span_id_collisions"] == 0
        assert json.load(open(out, encoding="utf-8"))["traceEvents"]

        _synthetic_trace(src, collide=True)
        assert write_chrome_trace(src, out)["span_id_collisions"] == 1

    def test_load_trace_rejects_old_schema(self, tmp_path):
        path = tmp_path / "old.jsonl"
        path.write_text('{"event": "meta", "schema": 1}\n')
        with pytest.raises(ValueError, match="schema"):
            load_trace(str(path))
        path.write_text('{"event": "span", "name": "x"}\n')
        with pytest.raises(ValueError, match="meta"):
            load_trace(str(path))

    def test_invalid_lines_are_skipped_not_fatal(self, tmp_path):
        src = str(tmp_path / "t.jsonl")
        _synthetic_trace(src)
        with open(src, "a", encoding="utf-8") as fh:
            fh.write('{"event": "span", "name": "no-pid"}\n')
            fh.write("{truncated\n")
        events, summary = load_trace(src)
        assert len(events) == 3
        assert summary["skipped"] == 2

    def test_timeline_cli(self, tmp_path, capsys):
        from repro.telemetry.cli import main

        src, out = str(tmp_path / "t.jsonl"), str(tmp_path / "t.json")
        _synthetic_trace(src)
        assert main(["timeline", src, "-o", out]) == 0
        assert "2 spans across 2 process(es)" in capsys.readouterr().out
        _synthetic_trace(src, collide=True)
        assert main(["timeline", src, "-o", out]) == 1  # collision => fail
        assert main(["timeline", str(tmp_path / "nope.jsonl"), "-o", out]) == 2


class TestCrossProcessTrace:
    def test_jobs_trace_merges_worker_spans(self, tmp_path):
        """The acceptance path: a --jobs 2 run yields one coherent trace
        with spans from multiple pids and zero span-id collisions."""
        path = str(tmp_path / "t.jsonl")
        telemetry.enable()
        telemetry.set_trace_path(path)
        engine = Engine(max_workers=2)
        with telemetry.trace_span("driver"):
            engine.run([JOB.with_(seed=s) for s in (21, 22, 23)])
        telemetry.close_trace()

        assert telemetry.validate_trace_file(path) == []
        out = str(tmp_path / "t.json")
        summary = write_chrome_trace(path, out)
        assert summary["span_id_collisions"] == 0
        assert len(summary["pids"]) >= 2, summary
        lines = _trace_lines(path)
        driver = next(e for e in lines if e.get("name") == "driver")
        workers = [e for e in lines if e.get("name") == "worker.replay"]
        assert len(workers) == 3
        # Worker roots hang off the parent's span tree.
        engine_run = next(e for e in lines if e.get("name") == "engine.run")
        assert engine_run["parent_id"] == driver["span_id"]
        for span in workers:
            assert span["pid"] != os.getpid()
            assert span["parent_id"] == engine_run["span_id"]
            assert span["fields"]["backend"] == "reference"
