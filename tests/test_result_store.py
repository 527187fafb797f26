"""Unit tests for the sqlite result store.

Covers the store contract: schema-versioned open with in-place
migration of older layouts, digest-validated reads, and
fingerprint-keyed resume queries.
"""

import json
import sqlite3

import pytest

from repro import telemetry
from repro.engine import EstimatorSpec, SimJob
from repro.results import STORE_SCHEMA, ResultStore, StoreSchemaError


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.close_trace()
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.close_trace()
    telemetry.disable()
    telemetry.reset()


def _job(benchmark="gzip", threshold=0, **kw):
    return SimJob(
        benchmark=benchmark,
        n_branches=kw.pop("n_branches", 5_000),
        warmup=kw.pop("warmup", 1_000),
        seed=kw.pop("seed", 1),
        estimator=EstimatorSpec.of("perceptron", threshold=threshold),
        **kw,
    )


METRICS = {
    "branches": 4000,
    "mispredictions": 300,
    "final_mispredictions": 280,
    "reversals": 50,
    "reversals_correcting": 30,
    "reversals_breaking": 20,
    "low_mispredicted": 200,
    "low_correct": 500,
    "high_mispredicted": 100,
    "high_correct": 3200,
}


class TestStoreJobs:
    def test_round_trip(self):
        job = _job()
        with ResultStore(":memory:") as store:
            record = store.put_job(job, METRICS)
            assert record.fingerprint == job.fingerprint
            got = store.get_job(job.fingerprint)
            assert got is not None
            assert got.metrics == METRICS
            assert got.benchmark == "gzip"
            assert store.has_job(job.fingerprint)
            assert store.job_count() == 1

    def test_missing_deduplicates_like_the_engine(self):
        a, b = _job(), _job(threshold=-25)
        with ResultStore(":memory:") as store:
            store.put_job(a, METRICS)
            # a twice, b twice: one unique missing job remains.
            assert store.missing([a, a, b, b]) == [b]

    def test_corrupt_row_is_reported_and_treated_as_missing(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        telemetry.enable()
        telemetry.set_trace_path(str(trace))
        job = _job()
        with ResultStore(":memory:") as store:
            store.put_job(job, METRICS)
            store.corrupt_job(job.fingerprint)
            assert store.get_job(job.fingerprint) is None
            assert store.missing([job]) == [job]
        telemetry.close_trace()
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        corrupt = [
            e for e in events if e.get("name") == "result_store_corrupt_row"
        ]
        assert corrupt, f"no corrupt-row event in {events}"
        assert corrupt[0]["fields"]["fingerprint"] == job.fingerprint
        snap = telemetry.get_registry().snapshot()
        assert snap.counter("result_store_corrupt_rows_total") >= 1

    def test_query_filters(self):
        with ResultStore(":memory:") as store:
            store.put_job(_job("gzip"), METRICS)
            store.put_job(_job("vpr"), METRICS)
            assert {r.benchmark for r in store.query_jobs()} == {"gzip", "vpr"}
            assert [r.benchmark for r in store.query_jobs(benchmark="vpr")] == [
                "vpr"
            ]
            assert store.query_jobs(backend="fast") == []

    def test_persists_across_reopen(self, tmp_path):
        path = str(tmp_path / "r.sqlite")
        job = _job()
        with ResultStore(path) as store:
            store.put_job(job, METRICS)
        with ResultStore(path) as store:
            assert store.get_job(job.fingerprint).metrics == METRICS

    def test_schema_mismatch_rejected_on_open(self, tmp_path):
        path = str(tmp_path / "r.sqlite")
        with ResultStore(path) as store:
            store._db.execute(
                "UPDATE meta SET value = '999' WHERE key = 'store_schema'"
            )
            store._db.commit()
        with pytest.raises(StoreSchemaError, match="store_schema"):
            ResultStore(path)


class TestStoreExperiments:
    def test_round_trip_with_and_without_rows(self):
        with ResultStore(":memory:") as store:
            store.put_experiment(
                "k1", "table2", {"seed": 1}, [{"a": 1.5}], "formatted-1"
            )
            store.put_experiment("k2", "figure4_5", {"seed": 1}, None, "text")
            r1 = store.get_experiment("k1")
            assert r1.rows == [{"a": 1.5}]
            assert r1.formatted == "formatted-1"
            assert store.get_experiment("k2").rows is None
            assert store.experiment_keys() == [
                ("k1", "table2"), ("k2", "figure4_5"),
            ]
            assert store.get_experiment("nonesuch") is None

    def test_summary_counts(self):
        with ResultStore(":memory:") as store:
            store.put_job(_job(), METRICS)
            store.put_experiment("k", "table2", {}, None, "x")
            assert store.summary() == {"jobs": 1, "experiments": 1}


def _legacy_store(path, stamp):
    """A store in an old layout, built by hand: a job row, an
    experiment record and a row in the retired ``bench`` table, plus a
    row in the retired ``telemetry`` table for the stamps that had one
    (v2, v3).  Returns the job."""
    job = _job()
    with ResultStore(path) as store:
        store.put_job(job, METRICS)
        store.put_experiment("k", "table2", {"seed": 1}, [{"a": 1}], "text")
        if stamp in ("2", "3"):
            store._db.executescript(
                "CREATE TABLE telemetry (run_id INTEGER PRIMARY KEY"
                " AUTOINCREMENT, name TEXT NOT NULL, fingerprint TEXT NOT NULL,"
                " metrics TEXT NOT NULL, profile TEXT, meta TEXT NOT NULL,"
                " digest TEXT NOT NULL);"
                "CREATE INDEX telemetry_name ON telemetry (name);"
                "INSERT INTO telemetry (name, fingerprint, metrics, meta, digest)"
                " VALUES ('sweep-q', 'fp', '{}', '{}', 'd');"
            )
        store._db.executescript(
            "CREATE TABLE bench (id INTEGER PRIMARY KEY AUTOINCREMENT,"
            " name TEXT NOT NULL, seconds REAL NOT NULL, meta TEXT NOT NULL);"
            "CREATE INDEX bench_name ON bench (name);"
            "INSERT INTO bench (name, seconds, meta)"
            " VALUES ('quick', 1.5, '{}');"
        )
        store._db.execute(
            "UPDATE meta SET value = ? WHERE key = 'store_schema'", (stamp,)
        )
        store._db.commit()
    return job


class TestMigration:
    @pytest.mark.parametrize("stamp", ["1", "2", "3"])
    def test_old_store_migrates_in_place(self, tmp_path, stamp):
        path = str(tmp_path / "r.sqlite")
        job = _legacy_store(path, stamp)
        with ResultStore(path) as store:
            assert STORE_SCHEMA == 4
            assert store._db.execute(
                "SELECT value FROM meta WHERE key = 'store_schema'"
            ).fetchone()[0] == "4"
            objects = {
                name
                for (name,) in store._db.execute(
                    "SELECT name FROM sqlite_master"
                )
            }
            retired = {"bench", "bench_name", "telemetry", "telemetry_name"}
            assert not objects & retired
            assert store.get_job(job.fingerprint).metrics == METRICS
            assert store.get_experiment("k").formatted == "text"
            assert store.summary() == {"jobs": 1, "experiments": 1}

    def test_unknown_schema_is_refused_untouched(self, tmp_path):
        path = str(tmp_path / "r.sqlite")
        _legacy_store(path, "0")
        with pytest.raises(StoreSchemaError, match="store_schema"):
            ResultStore(path)
        db = sqlite3.connect(path)
        assert db.execute("SELECT COUNT(*) FROM bench").fetchone() == (1,)
        db.close()
