"""Schema-versioned sqlite store for job outcomes and experiment records.

The store is the durable half of the sweep layer: every executed
:class:`~repro.engine.job.SimJob` lands here keyed by its fingerprint,
and every rendered experiment record lands here keyed by its settings
hash.  Re-running a sweep consults the store first, so only missing
work executes, and paper tables re-render from stored rows without
touching the engine.

Integrity follows the golden-gate idiom (:mod:`repro.verify.golden`):

* the database carries :data:`STORE_SCHEMA` plus the fingerprint and
  canonical-metric schema versions in a ``meta`` table, and opening a
  store written under any other version raises
  :class:`StoreSchemaError` instead of silently comparing incompatible
  shapes;
* every job row stores its canonical metrics *and* their SHA-256
  digest, and reads re-derive the digest -- a corrupt or hand-edited
  row is rejected with a structured
  ``log_event("result_store_corrupt_row")`` and treated as missing, so
  a damaged store heals by re-executing, never by serving bad data.

Metrics are stored in canonical integer form (events are the replay
cache's business, not the store's): the store tracks *completion* and
feeds rendering and queries, while the engine's content-addressed
caches keep the bulky artifacts.
"""

from __future__ import annotations

import json
import logging
import sqlite3
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.engine.canonical import METRICS_SCHEMA, metrics_digest
from repro.engine.job import FINGERPRINT_SCHEMA, SimJob
from repro.telemetry.spans import log_event

__all__ = [
    "STORE_SCHEMA",
    "ExperimentRecord",
    "JobRecord",
    "ResultStore",
    "StoreSchemaError",
]

logger = logging.getLogger(__name__)

#: Version of the sqlite layout.  Bump on any table/column change so a
#: store written by an older layout fails loudly on open -- unless an
#: in-place migration is registered in ``_MIGRATIONS`` below.
STORE_SCHEMA = 4

_TABLES = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS jobs (
    fingerprint TEXT PRIMARY KEY,
    benchmark TEXT NOT NULL,
    n_branches INTEGER NOT NULL,
    warmup INTEGER NOT NULL,
    seed INTEGER NOT NULL,
    backend TEXT NOT NULL,
    predictor TEXT NOT NULL,
    estimator TEXT NOT NULL,
    policy TEXT NOT NULL,
    metrics TEXT NOT NULL,
    digest TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS experiments (
    key TEXT PRIMARY KEY,
    experiment TEXT NOT NULL,
    settings TEXT NOT NULL,
    rows TEXT,
    formatted TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS jobs_benchmark ON jobs (benchmark);
"""

#: In-place upgrades: ``old store_schema -> description``.  v3 dropped
#: the retired ``bench`` table and v4 the retired ``telemetry`` table,
#: so every upgrade runs :data:`_DROP_RETIRED` and re-stamps; job and
#: experiment rows are untouched.
_MIGRATIONS = {
    "1": "drop bench table",
    "2": "drop bench and telemetry tables",
    "3": "drop telemetry table",
}
_DROP_RETIRED = (
    "DROP INDEX IF EXISTS bench_name; DROP TABLE IF EXISTS bench;"
    "DROP INDEX IF EXISTS telemetry_name; DROP TABLE IF EXISTS telemetry;"
)


class StoreSchemaError(RuntimeError):
    """The store on disk was written under an incompatible schema."""


@dataclass(frozen=True)
class JobRecord:
    """One persisted job outcome (canonical metrics + digest)."""

    fingerprint: str
    benchmark: str
    n_branches: int
    warmup: int
    seed: int
    backend: str
    predictor: str
    estimator: str
    policy: str
    metrics: Dict[str, int]
    digest: str


@dataclass(frozen=True)
class ExperimentRecord:
    """One rendered experiment: structured rows plus formatted text."""

    key: str
    experiment: str
    settings: Dict
    rows: Optional[List]
    formatted: str


class ResultStore:
    """Sqlite-backed store for job outcomes and experiment records.

    Args:
        path: Database file (parent directories are created), or
            ``":memory:"`` for an ephemeral store in tests.
    """

    def __init__(self, path: str = ":memory:"):
        self.path = str(path)
        if self.path != ":memory:":
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        self._db = sqlite3.connect(self.path)
        self._db.executescript(_TABLES)
        self._check_schema()

    # -- schema -----------------------------------------------------------

    def _check_schema(self) -> None:
        expected = {
            "store_schema": str(STORE_SCHEMA),
            "fingerprint_schema": str(FINGERPRINT_SCHEMA),
            "metrics_schema": str(METRICS_SCHEMA),
        }
        stored = dict(
            self._db.execute("SELECT key, value FROM meta").fetchall()
        )
        if not stored:
            self._db.executemany(
                "INSERT INTO meta (key, value) VALUES (?, ?)",
                sorted(expected.items()),
            )
            self._db.commit()
            return
        drifted = {
            key: (stored.get(key), want)
            for key, want in expected.items()
            if stored.get(key) != want
        }
        if set(drifted) == {"store_schema"}:
            old = drifted["store_schema"][0]
            if old in _MIGRATIONS:
                # Drop the retired tables, then re-stamp.
                self._db.executescript(_DROP_RETIRED)
                self._db.execute(
                    "UPDATE meta SET value = ? WHERE key = 'store_schema'",
                    (str(STORE_SCHEMA),),
                )
                self._db.commit()
                log_event(
                    "result_store_migrated",
                    level=logging.INFO,
                    message=_MIGRATIONS[old],
                    logger=logger,
                    path=self.path,
                    from_schema=old,
                    to_schema=str(STORE_SCHEMA),
                )
                return
        if drifted:
            log_event(
                "result_store_schema_mismatch",
                message="store written under an incompatible schema",
                logger=logger,
                path=self.path,
                drifted={k: list(v) for k, v in drifted.items()},
            )
            raise StoreSchemaError(
                f"result store {self.path!r} schema mismatch: "
                + ", ".join(
                    f"{key} is {have!r}, expected {want!r}"
                    for key, (have, want) in sorted(drifted.items())
                )
                + " (delete the store or re-run under the matching version)"
            )

    def close(self) -> None:
        self._db.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- jobs -------------------------------------------------------------

    def put_job(self, job: SimJob, metrics: Dict[str, int]) -> JobRecord:
        """Persist one executed job's canonical metrics."""
        record = JobRecord(
            fingerprint=job.fingerprint,
            benchmark=job.benchmark,
            n_branches=job.n_branches,
            warmup=job.warmup,
            seed=job.seed,
            backend=job.backend,
            predictor=repr(job.predictor.canonical()),
            estimator=repr(job.estimator.canonical()),
            policy=repr(job.policy.canonical()),
            metrics=dict(metrics),
            digest=metrics_digest(metrics),
        )
        self._db.execute(
            "INSERT OR REPLACE INTO jobs (fingerprint, benchmark, n_branches,"
            " warmup, seed, backend, predictor, estimator, policy, metrics,"
            " digest) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                record.fingerprint,
                record.benchmark,
                record.n_branches,
                record.warmup,
                record.seed,
                record.backend,
                record.predictor,
                record.estimator,
                record.policy,
                json.dumps(record.metrics, sort_keys=True),
                record.digest,
            ),
        )
        self._db.commit()
        tel = telemetry.get_registry()
        if tel.enabled:
            tel.counter("result_store_puts_total", kind="job").inc()
        return record

    def get_job(self, fingerprint: str) -> Optional[JobRecord]:
        """Fetch one job row, re-validating its metrics digest.

        A row whose stored digest does not match a digest re-derived
        from its stored metrics is corrupt: it is reported through a
        structured ``log_event`` and treated as missing, so callers
        re-execute rather than consume damaged data.
        """
        row = self._db.execute(
            "SELECT fingerprint, benchmark, n_branches, warmup, seed,"
            " backend, predictor, estimator, policy, metrics, digest"
            " FROM jobs WHERE fingerprint = ?",
            (fingerprint,),
        ).fetchone()
        if row is None:
            return None
        try:
            metrics = json.loads(row[9])
            ok = (
                isinstance(metrics, dict)
                and all(isinstance(v, int) for v in metrics.values())
                and metrics_digest(metrics) == row[10]
            )
        except (ValueError, TypeError):
            metrics, ok = None, False
        tel = telemetry.get_registry()
        if not ok:
            log_event(
                "result_store_corrupt_row",
                message="stored metrics fail digest validation",
                logger=logger,
                path=self.path,
                fingerprint=fingerprint,
            )
            if tel.enabled:
                tel.counter("result_store_corrupt_rows_total").inc()
            return None
        if tel.enabled:
            tel.counter("result_store_hits_total", kind="job").inc()
        return JobRecord(
            fingerprint=row[0],
            benchmark=row[1],
            n_branches=row[2],
            warmup=row[3],
            seed=row[4],
            backend=row[5],
            predictor=row[6],
            estimator=row[7],
            policy=row[8],
            metrics=metrics,
            digest=row[10],
        )

    def has_job(self, fingerprint: str) -> bool:
        """True when a *valid* row exists for this fingerprint."""
        return self.get_job(fingerprint) is not None

    def missing(self, jobs: Sequence[SimJob]) -> List[SimJob]:
        """The subset of ``jobs`` without a valid stored outcome.

        Deduplicates by fingerprint (like ``Engine.run``), so the
        returned list is exactly the work a resumed sweep must execute.
        """
        seen = set()
        out = []
        for job in jobs:
            fp = job.fingerprint
            if fp in seen:
                continue
            seen.add(fp)
            if not self.has_job(fp):
                out.append(job)
        return out

    def job_count(self) -> int:
        return self._db.execute("SELECT COUNT(*) FROM jobs").fetchone()[0]

    def query_jobs(
        self,
        benchmark: Optional[str] = None,
        backend: Optional[str] = None,
    ) -> List[JobRecord]:
        """All valid job rows, optionally filtered; corrupt rows skipped."""
        clauses, params = [], []
        if benchmark is not None:
            clauses.append("benchmark = ?")
            params.append(benchmark)
        if backend is not None:
            clauses.append("backend = ?")
            params.append(backend)
        where = (" WHERE " + " AND ".join(clauses)) if clauses else ""
        fingerprints = [
            row[0]
            for row in self._db.execute(
                "SELECT fingerprint FROM jobs" + where + " ORDER BY rowid",
                params,
            )
        ]
        records = (self.get_job(fp) for fp in fingerprints)
        return [record for record in records if record is not None]

    # -- experiment records ----------------------------------------------

    def put_experiment(
        self,
        key: str,
        experiment: str,
        settings: Dict,
        rows: Optional[List],
        formatted: str,
    ) -> None:
        """Persist one rendered experiment record."""
        self._db.execute(
            "INSERT OR REPLACE INTO experiments"
            " (key, experiment, settings, rows, formatted)"
            " VALUES (?, ?, ?, ?, ?)",
            (
                key,
                experiment,
                json.dumps(settings, sort_keys=True),
                None if rows is None else json.dumps(rows),
                formatted,
            ),
        )
        self._db.commit()
        tel = telemetry.get_registry()
        if tel.enabled:
            tel.counter("result_store_puts_total", kind="experiment").inc()

    def get_experiment(self, key: str) -> Optional[ExperimentRecord]:
        row = self._db.execute(
            "SELECT key, experiment, settings, rows, formatted"
            " FROM experiments WHERE key = ?",
            (key,),
        ).fetchone()
        if row is None:
            return None
        return ExperimentRecord(
            key=row[0],
            experiment=row[1],
            settings=json.loads(row[2]),
            rows=None if row[3] is None else json.loads(row[3]),
            formatted=row[4],
        )

    def experiment_keys(self) -> List[Tuple[str, str]]:
        """``(key, experiment)`` pairs in insertion order."""
        return list(
            self._db.execute(
                "SELECT key, experiment FROM experiments ORDER BY rowid"
            )
        )

    # -- maintenance ------------------------------------------------------

    def corrupt_job(self, fingerprint: str) -> None:
        """Deliberately damage one job row (mutation-smoke helper)."""
        self._db.execute(
            "UPDATE jobs SET metrics = ? WHERE fingerprint = ?",
            (json.dumps({"branches": -1}), fingerprint),
        )
        self._db.commit()

    def summary(self) -> Dict[str, int]:
        """Row counts per table (the ``status`` CLI payload)."""
        return {
            "jobs": self.job_count(),
            "experiments": self._db.execute(
                "SELECT COUNT(*) FROM experiments"
            ).fetchone()[0],
        }
