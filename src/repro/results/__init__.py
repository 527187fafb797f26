"""Queryable, schema-versioned result store.

:class:`~repro.results.store.ResultStore` persists every executed
:class:`~repro.engine.job.SimJob` outcome keyed by fingerprint into a
sqlite database, alongside rendered experiment records.  See
``docs/sweeps.md``.
"""

from repro.results.store import (
    STORE_SCHEMA,
    ExperimentRecord,
    JobRecord,
    ResultStore,
    StoreSchemaError,
)

__all__ = [
    "STORE_SCHEMA",
    "ExperimentRecord",
    "JobRecord",
    "ResultStore",
    "StoreSchemaError",
]
