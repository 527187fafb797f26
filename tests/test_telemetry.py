"""Tests for the unified telemetry layer.

Covers the metrics registry (instruments, labels, snapshots, worker
merge), span tracing (nesting, the JSONL event stream, schema
validation), the metrics document and its Markdown report, the report
CLI, and the two contracts the package advertises:

- cost: disabled telemetry hands back shared no-op instruments;
- determinism: replay outcomes are bit-identical with telemetry on or
  off (telemetry is observational only).
"""

import json
import logging

import pytest

from repro import telemetry
from repro.engine import Engine, EstimatorSpec, SimJob
from repro.telemetry.registry import _NOOP, MetricsRegistry, MetricsSnapshot
from repro.telemetry.schema import (
    validate_metrics_doc,
    validate_trace_file,
)

JOB = SimJob(
    benchmark="gzip",
    n_branches=2_000,
    warmup=500,
    seed=1,
    estimator=EstimatorSpec.of("perceptron", threshold=0),
)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Each test starts and ends with telemetry off, empty, sinkless."""
    telemetry.close_trace()
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.close_trace()
    telemetry.disable()
    telemetry.reset()


class TestRegistry:
    def test_counter_labels_and_keys(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("hits", tier="memory").inc()
        reg.counter("hits", tier="memory").inc(2)
        reg.counter("hits", tier="disk").inc()
        snap = reg.snapshot()
        assert snap.counter("hits", tier="memory") == 3
        assert snap.counter("hits", tier="disk") == 1
        assert snap.counter("hits") == 0  # unlabeled is a different series
        assert snap.counter_series("hits") == {
            "hits{tier=disk}": 1,
            "hits{tier=memory}": 3,
        }

    def test_label_order_is_canonical(self):
        assert telemetry.instrument_key(
            "m", {"b": 1, "a": 2}
        ) == telemetry.instrument_key("m", {"a": 2, "b": 1})
        name, labels = telemetry.parse_key("m{a=2,b=1}")
        assert name == "m"
        assert labels == {"a": "2", "b": "1"}

    def test_histogram_buckets_and_overflow(self):
        reg = MetricsRegistry(enabled=True)
        hist = reg.histogram("sizes", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 5, 5, 50, 5_000):
            hist.observe(value)
        snap = reg.snapshot().histograms["sizes"]
        assert snap["counts"] == [1, 2, 1, 1]  # last slot = overflow
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(5060.5)

    def test_histogram_rejects_unsorted_buckets(self):
        reg = MetricsRegistry(enabled=True)
        with pytest.raises(ValueError):
            reg.histogram("bad", buckets=(2.0, 1.0))

    def test_disabled_registry_hands_back_shared_noop(self):
        reg = MetricsRegistry(enabled=False)
        assert reg.counter("x") is _NOOP
        assert reg.histogram("x") is _NOOP
        _NOOP.inc()
        _NOOP.observe(1)
        assert reg.snapshot().empty

    def test_snapshot_since_delta(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("n").inc(5)
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        before = reg.snapshot()
        reg.counter("n").inc(2)
        reg.histogram("h", buckets=(1.0,)).observe(2.0)
        delta = reg.snapshot().since(before)
        assert delta.counters == {"n": 2}
        assert delta.histograms["h"]["counts"] == [0, 1]
        assert delta.histograms["h"]["count"] == 1
        # Unchanged series drop out of the delta entirely.
        assert reg.snapshot().since(reg.snapshot()).empty

    def test_merge_is_additive_and_picklable(self):
        import pickle

        worker = MetricsRegistry(enabled=True)
        worker.counter("n", k="a").inc(3)
        worker.histogram("h", buckets=(1.0, 10.0)).observe(5)
        snap = pickle.loads(pickle.dumps(worker.drain()))
        assert worker.snapshot().empty  # drain resets the worker

        parent = MetricsRegistry(enabled=True)
        parent.counter("n", k="a").inc(1)
        parent.histogram("h", buckets=(1.0, 10.0)).observe(0.5)
        parent.merge(snap)
        merged = parent.snapshot()
        assert merged.counter("n", k="a") == 4
        assert merged.histograms["h"]["counts"] == [1, 1, 0]
        assert merged.histograms["h"]["count"] == 2

    def test_merge_respects_prior_enabled_state(self):
        parent = MetricsRegistry(enabled=False)
        parent.merge(MetricsSnapshot(counters={"n": 2}))
        assert parent.snapshot().counter("n") == 2
        assert parent.enabled is False

    def test_module_singleton_identity_is_stable(self):
        reg = telemetry.get_registry()
        telemetry.enable()
        assert telemetry.get_registry() is reg
        assert reg.enabled
        telemetry.disable()
        assert not reg.enabled


class TestSpans:
    def test_fully_disabled_spans_are_shared_noop(self):
        a = telemetry.trace_span("x")
        b = telemetry.trace_span("y", field=1)
        assert a is b  # the shared no-op context

    def test_spans_feed_metrics_without_a_sink(self):
        telemetry.enable()
        with telemetry.trace_span("phase"):
            pass
        snap = telemetry.get_registry().snapshot()
        assert snap.histograms["span_seconds{span=phase}"]["count"] == 1

    def test_trace_file_nesting_and_schema(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        telemetry.set_trace_path(path)
        assert telemetry.trace_path() == path
        with telemetry.trace_span("outer", run=1):
            with telemetry.trace_span("inner"):
                pass
            telemetry.log_event("note", message="mid-span", detail=7)
        telemetry.close_trace()
        assert telemetry.trace_path() is None

        assert validate_trace_file(path) == []
        lines = [
            json.loads(line)
            for line in open(path, encoding="utf-8")
            if line.strip()
        ]
        assert lines[0]["event"] == "meta"
        by_name = {
            obj["name"]: obj for obj in lines[1:]
        }
        outer, inner = by_name["outer"], by_name["inner"]
        assert inner["parent_id"] == outer["span_id"]
        assert outer["parent_id"] is None
        assert outer["fields"] == {"run": 1}
        assert inner["event"] == "span" and inner["ok"] is True
        # Inner spans complete (and are written) first.
        assert lines.index(inner) < lines.index(outer)
        log = by_name["note"]
        assert log["event"] == "log"
        assert log["parent_id"] == outer["span_id"]
        assert log["fields"] == {"detail": 7}

    def test_span_failure_is_recorded(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        telemetry.set_trace_path(path)
        with pytest.raises(RuntimeError):
            with telemetry.trace_span("boom"):
                raise RuntimeError("x")
        telemetry.close_trace()
        span = json.loads(open(path, encoding="utf-8").readlines()[1])
        assert span["name"] == "boom" and span["ok"] is False

    def test_log_event_mirrors_to_given_logger(self, caplog):
        logger = logging.getLogger("repro.test.telemetry")
        with caplog.at_level(logging.WARNING, logger="repro.test.telemetry"):
            telemetry.log_event(
                "cache.corrupt_entry",
                message="dropping corrupt entry",
                logger=logger,
                path="/x",
            )
        assert any("corrupt" in r.message for r in caplog.records)


class TestExporters:
    def _snapshot(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("cache_replay_hits_total", tier="memory").inc(4)
        reg.counter("fastpath_fallbacks_total", reason="policy:gating").inc(2)
        reg.histogram("latency", buckets=(0.1, 1.0)).observe(0.05)
        reg.histogram("latency", buckets=(0.1, 1.0)).observe(0.5)
        return reg.snapshot()

    def test_metrics_doc_is_schema_valid_and_round_trips(self):
        doc = json.loads(json.dumps(telemetry.metrics_doc(self._snapshot())))
        assert validate_metrics_doc(doc) == []
        assert doc["counters"]["cache_replay_hits_total{tier=memory}"] == 4
        assert doc["histograms"]["latency"]["count"] == 2

    def test_write_metrics_defaults_to_registry(self, tmp_path):
        telemetry.enable()
        telemetry.get_registry().counter("n").inc()
        path = telemetry.write_metrics(str(tmp_path / "m.json"))
        doc = json.load(open(path, encoding="utf-8"))
        assert validate_metrics_doc(doc) == []
        assert doc["counters"] == {"n": 1}

    def test_markdown_rendering_has_fallback_section(self):
        text = telemetry.render_markdown(
            telemetry.metrics_doc(self._snapshot())
        )
        assert "## Counters" in text
        assert "## Fast-path fallbacks by reason" in text
        assert "policy:gating" in text
        assert "## Histograms" in text

    def test_markdown_rendering_empty_doc(self):
        text = telemetry.render_markdown(
            telemetry.metrics_doc(MetricsSnapshot())
        )
        assert "no metrics collected" in text


class TestSchemaValidation:
    def test_rejects_bad_documents(self):
        assert validate_metrics_doc([]) != []
        assert validate_metrics_doc({"schema": 999}) != []
        doc = telemetry.metrics_doc(MetricsSnapshot(counters={"n": 1}))
        doc["counters"]["n"] = "one"
        assert any("integer" in p for p in validate_metrics_doc(doc))

    def test_rejects_schema_2_document(self):
        doc = telemetry.metrics_doc(MetricsSnapshot(counters={"n": 1}))
        doc["schema"] = 2
        doc["gauges"] = {}
        assert validate_metrics_doc(doc) == ["schema must be 3, got 2"]

    def test_rejects_histogram_shape_mismatch(self):
        doc = telemetry.metrics_doc(
            MetricsSnapshot(
                histograms={
                    "h": {
                        "buckets": [1.0, 2.0],
                        "counts": [1, 0],  # needs len(buckets)+1
                        "sum": 1.0,
                        "count": 1,
                    }
                }
            )
        )
        assert any("len(buckets)+1" in p for p in validate_metrics_doc(doc))

    def test_rejects_trace_without_meta_first(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"event": "log", "name": "x"}\n')
        problems = validate_trace_file(str(path))
        assert any("must be 'meta'" in p for p in problems)


class TestCli:
    def _write(self, tmp_path):
        reg = MetricsRegistry(enabled=True)
        reg.counter("n").inc(3)
        path = str(tmp_path / "m.json")
        telemetry.write_metrics(path, reg.snapshot())
        return path

    def test_report_and_validate_roundtrip(self, tmp_path, capsys):
        from repro.telemetry.cli import main

        path = self._write(tmp_path)
        assert main(["validate", path]) == 0
        assert main(["report", path]) == 0
        assert "# Telemetry report" in capsys.readouterr().out
        out = str(tmp_path / "report.md")
        assert main(["report", path, "--out", out]) == 0
        assert "# Telemetry report" in open(out, encoding="utf-8").read()

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {
                "schema": 3,
                "kind": "repro-telemetry-metrics",
                "counters": {},
                "histograms": {
                    "h": {"buckets": [1.0], "counts": [1, 0], "count": 1,
                          "max": 0.5},
                },
            },
        ],
        ids=["json-list", "histogram-without-sum"],
    )
    def test_report_refuses_an_invalid_document(self, tmp_path, capsys, doc):
        from repro.telemetry.cli import main

        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["report", str(path)]) == 2
        out = capsys.readouterr().out
        assert "INVALID" in out
        assert "# Telemetry report" not in out

    def test_validate_rejects_and_missing_file(self, tmp_path, capsys):
        from repro.telemetry.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 1, "kind": "wrong"}))
        assert main(["validate", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().out
        assert main(["validate", str(tmp_path / "nope.json")]) == 2


class TestInstrumentedEngine:
    def test_cache_and_replay_counters(self):
        telemetry.enable()
        engine = Engine()
        engine.run([JOB, JOB.with_(seed=2)])
        engine.run([JOB])  # served from the replay cache
        snap = telemetry.get_registry().snapshot()
        assert snap.counter("engine_jobs_submitted_total") == 3
        assert snap.counter("engine_replays_total", backend="reference") == 2
        assert snap.counter("cache_replay_misses_total") == 2
        assert snap.counter("cache_replay_hits_total", tier="memory") == 1
        assert (
            snap.histograms["engine_replay_seconds{backend=reference}"]["count"]
            == 2
        )

    def test_dedup_counter(self):
        telemetry.enable()
        Engine().run([JOB, JOB])
        snap = telemetry.get_registry().snapshot()
        assert snap.counter("engine_jobs_deduplicated_total") == 1

    def test_worker_snapshots_merge_into_parent(self):
        telemetry.enable()
        engine = Engine(max_workers=2)
        jobs = [JOB.with_(seed=s) for s in (11, 12, 13)]
        engine.run(jobs)
        snap = telemetry.get_registry().snapshot()
        # Replays ran in worker processes; their counters still land here.
        assert snap.counter("engine_replays_total", backend="reference") == 3
        assert snap.counter("engine_jobs_parallel_total") == 3
        # Exact counts: fork-started workers inherit the parent registry
        # and must shed it, or these would be double-merged (>3).
        assert snap.counter("engine_jobs_submitted_total") == 3
        assert snap.counter("cache_replay_misses_total") == 3

    def test_fallback_reason_counter(self):
        from repro import fastpath
        from repro.engine import EstimatorSpec as ES

        # 12-bit weights at history 40 overflow the SWAR lanes: buildable
        # by the reference loop, declined by the fast backend.
        job = JOB.with_(
            backend="fast",
            n_branches=500,
            warmup=100,
            estimator=ES.of("perceptron", history_length=40, weight_bits=12),
        )
        assert fastpath.unsupported_reason(job) == "estimator:perceptron"
        telemetry.enable()
        Engine().run([job])
        snap = telemetry.get_registry().snapshot()
        series = snap.counter_series("fastpath_fallbacks_total")
        assert sum(series.values()) == 1


class TestDeterminism:
    """Telemetry is observational: outcomes are bit-identical on/off."""

    def test_outcomes_identical_with_telemetry_on_and_off(self, tmp_path):
        jobs = [JOB, JOB.with_(seed=3)]

        off = Engine().run(jobs)
        telemetry.enable()
        telemetry.set_trace_path(str(tmp_path / "trace.jsonl"))
        on = Engine().run(jobs)
        telemetry.close_trace()

        for a, b in zip(off, on):
            assert a.metrics_digest() == b.metrics_digest()
            assert a.canonical_metrics() == b.canonical_metrics()
            assert a.events == b.events
