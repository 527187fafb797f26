"""Tests for the flight-recorder layer added on top of telemetry.

Covers the cross-process span contract (pid-namespaced span ids, the
worker capture/replay handoff, the Chrome-trace timeline export), the
opt-in profiling attribution (per-span CPU/alloc, cProfile hotspot
accumulator and its worker merge), histogram quantiles and the new
Markdown percentile columns, the persisted telemetry history in the
result store, and the telemetry diff and its CLI.
"""

import json
import os

import pytest

from repro import telemetry
from repro.engine import Engine, EstimatorSpec, SimJob
from repro.results import ResultStore
from repro.telemetry import spans as spans_mod
from repro.telemetry.diff import diff_runs, load_run_document
from repro.telemetry.profile import (
    PROFILE_KIND,
    PROFILE_SCHEMA,
    profile_block,
    validate_profile_doc,
)
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
    telemetry.disable_profiling()
    telemetry.reset_profile()
    telemetry.drain_span_capture()
    yield
    telemetry.close_trace()
    telemetry.disable()
    telemetry.reset()
    telemetry.disable_profiling()
    telemetry.reset_profile()
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
            ("cpu_ns", 1.5, "cpu_ns"),
            ("alloc_bytes", "x", "alloc_bytes"),
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


class TestProfiling:
    def test_profile_block_accumulates_hotspots(self):
        telemetry.enable_profiling()

        def busy():
            return sum(i * i for i in range(20_000))

        with profile_block():
            busy()
        doc = telemetry.profile_document()
        assert validate_profile_doc(doc) == []
        assert doc["schema"] == PROFILE_SCHEMA and doc["kind"] == PROFILE_KIND
        assert any("busy" in h["func"] for h in doc["hotspots"])

    def test_profile_block_noop_when_disabled_or_nested(self):
        with profile_block():  # profiling off: plain passthrough
            pass
        assert telemetry.profile_document()["hotspots"] == []
        telemetry.enable_profiling()
        with profile_block():
            with profile_block():  # nested: inner must not re-enter cProfile
                sum(range(1000))
        assert telemetry.profile_document()["total_functions"] > 0

    def test_drain_and_merge_roundtrip(self):
        telemetry.enable_profiling()
        with profile_block():
            sorted(range(1000), reverse=True)
        drained = telemetry.drain_profile()
        assert drained and telemetry.profile_document()["hotspots"] == []
        telemetry.merge_profile(drained)
        telemetry.merge_profile(drained)  # additive
        doc = telemetry.profile_document()
        key = next(iter(drained))
        merged = next(h for h in doc["hotspots"] if h["func"] == key)
        assert merged["calls"] == 2 * drained[key][0]

    def test_spans_record_cpu_and_alloc_when_profiling(self, tmp_path):
        telemetry.enable_profiling()
        path = str(tmp_path / "t.jsonl")
        telemetry.set_trace_path(path)
        telemetry.enable()
        with telemetry.trace_span("work"):
            blob = list(range(50_000))
            del blob
        telemetry.close_trace()
        span = _trace_lines(path)[1]
        assert isinstance(span["cpu_ns"], int)
        assert isinstance(span["alloc_bytes"], int)
        snap = telemetry.get_registry().snapshot()
        assert snap.histograms["span_cpu_seconds{span=work}"]["count"] == 1

    def test_spans_skip_profiling_fields_when_off(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        telemetry.set_trace_path(path)
        with telemetry.trace_span("work"):
            pass
        telemetry.close_trace()
        span = _trace_lines(path)[1]
        assert "cpu_ns" not in span and "alloc_bytes" not in span

    def test_validate_profile_doc_errors(self):
        assert validate_profile_doc([]) != []
        assert any(
            "schema" in p
            for p in validate_profile_doc(
                {"schema": 99, "kind": PROFILE_KIND,
                 "total_functions": 0, "hotspots": []}
            )
        )
        bad_spot = {
            "schema": PROFILE_SCHEMA, "kind": PROFILE_KIND,
            "total_functions": 1,
            "hotspots": [{"func": 3, "calls": "x", "prim_calls": 1,
                          "self_s": "y", "cum_s": 0.1}],
        }
        problems = validate_profile_doc(bad_spot)
        assert any("func" in p for p in problems)
        assert any("calls" in p for p in problems)
        assert any("self_s" in p for p in problems)


def _metrics_with_spans(spans):
    """A metrics document with one span_seconds series per (name, secs)."""
    reg = MetricsRegistry(enabled=True)
    for name, seconds in spans:
        reg.histogram(
            "span_seconds", buckets=SECONDS_BUCKETS, span=name
        ).observe(seconds)
    return telemetry.metrics_doc(reg.snapshot())


def _profile_doc(hotspots):
    return {
        "schema": PROFILE_SCHEMA,
        "kind": PROFILE_KIND,
        "total_functions": len(hotspots),
        "hotspots": [
            {"func": func, "calls": 1, "prim_calls": 1,
             "self_s": cum, "cum_s": cum}
            for func, cum in hotspots
        ],
    }


class TestDiff:
    def test_rank_orders_by_added_seconds(self):
        a = _metrics_with_spans([("replay", 1.0), ("tracegen", 0.5)])
        b = _metrics_with_spans([("replay", 4.0), ("tracegen", 0.4)])
        diff = diff_runs(a, b)
        suspects = diff.rank()
        assert suspects[0] == {
            "kind": "span", "name": "replay", "delta_s": pytest.approx(3.0),
        }
        # Spans that got *faster* are never suspects.
        assert all(s["name"] != "tracegen" for s in suspects)

    def test_hotspots_merge_into_suspects(self):
        a = _metrics_with_spans([("replay", 1.0)])
        b = _metrics_with_spans([("replay", 1.2)])
        diff = diff_runs(
            a, b,
            _profile_doc([("mod.py:1:slow", 0.1)]),
            _profile_doc([("mod.py:1:slow", 2.5)]),
        )
        top = diff.rank()[0]
        assert top["kind"] == "hotspot" and top["name"] == "mod.py:1:slow"

    def test_counter_deltas_and_markdown(self):
        a = _metrics_with_spans([("replay", 1.0)])
        b = _metrics_with_spans([("replay", 2.0)])
        a["counters"] = {"engine_replays_total": 3}
        b["counters"] = {"engine_replays_total": 9}
        diff = diff_runs(a, b, labels=("base", "new"))
        assert diff.counters[0]["delta"] == 6
        text = diff.render_markdown()
        assert "# Telemetry diff: base -> new" in text
        assert "## Spans (by added seconds)" in text
        assert "## Counters (by |Δ|)" in text
        assert "## Top suspects" in text
        payload = diff.as_dict()
        assert payload["suspects"][0]["name"] == "replay"

    def test_load_run_document_kinds(self, tmp_path):
        metrics = _metrics_with_spans([("x", 1.0)])
        profile = _profile_doc([("f.py:1:f", 1.0)])
        run = tmp_path / "run.json"
        run.write_text(json.dumps(
            {"kind": "repro-telemetry-run", "metrics": metrics,
             "profile": profile, "meta": {}}
        ))
        m, p = load_run_document(str(run))
        assert m == metrics and p == profile
        bare = tmp_path / "m.json"
        bare.write_text(json.dumps(metrics))
        assert load_run_document(str(bare)) == (metrics, None)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "nope"}))
        with pytest.raises(ValueError, match="kind"):
            load_run_document(str(bad))

    def test_diff_cli_on_files_and_store(self, tmp_path, capsys):
        from repro.telemetry.cli import main

        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        with open(a, "w") as fh:
            json.dump(_metrics_with_spans([("replay", 1.0)]), fh)
        with open(b, "w") as fh:
            json.dump(_metrics_with_spans([("replay", 3.0)]), fh)
        assert main(["diff", a, b, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["suspects"][0]["name"] == "replay"

        store_path = str(tmp_path / "s.sqlite")
        with ResultStore(store_path) as store:
            ra = store.put_telemetry(
                "bench", "fp", _metrics_with_spans([("replay", 1.0)])
            )
            rb = store.put_telemetry(
                "bench", "fp", _metrics_with_spans([("replay", 3.0)])
            )
        assert main(
            ["diff", str(ra), str(rb), "--store", store_path]
        ) == 0
        assert "replay" in capsys.readouterr().out
        assert main(["diff", "98", "99", "--store", store_path]) == 2


class TestStoreTelemetry:
    def test_round_trip_and_listing(self):
        metrics = _metrics_with_spans([("x", 1.0)])
        profile = _profile_doc([("f.py:1:f", 1.0)])
        with ResultStore(":memory:") as store:
            r1 = store.put_telemetry("sweep-q", "fp1", metrics)
            r2 = store.put_telemetry(
                "sweep-q", "fp1", metrics, profile=profile, meta={"w": 2}
            )
            run = store.get_telemetry(r2)
            assert run.metrics == metrics and run.profile == profile
            assert run.meta == {"w": 2}
            assert store.get_telemetry(r1).profile is None
            assert store.telemetry_runs() == [
                (r1, "sweep-q", "fp1", False), (r2, "sweep-q", "fp1", True),
            ]
            assert store.telemetry_runs(name="other") == []
            assert store.summary()["telemetry"] == 2

    def test_corrupt_run_is_rejected(self):
        with ResultStore(":memory:") as store:
            run_id = store.put_telemetry(
                "b", "fp", _metrics_with_spans([("x", 1.0)])
            )
            store._db.execute(
                "UPDATE telemetry SET metrics = '{}' WHERE run_id = ?",
                (run_id,),
            )
            store._db.commit()
            assert store.get_telemetry(run_id) is None


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

    def test_jobs_profile_merges_worker_hotspots(self):
        telemetry.enable()
        telemetry.enable_profiling()
        engine = Engine(max_workers=2)
        engine.run([JOB.with_(seed=s) for s in (31, 32, 33)])
        doc = telemetry.profile_document()
        assert validate_profile_doc(doc) == []
        assert any("_replay_trace_impl" in h["func"] for h in doc["hotspots"])
