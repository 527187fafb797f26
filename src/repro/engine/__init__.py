"""Declarative simulation engine.

The experiment stack describes work as :class:`SimJob` values -- frozen,
hashable, content-addressable descriptions of one front-end replay --
and hands them to an :class:`Engine`, which deduplicates them through a
fingerprint-keyed replay cache (in-memory LRU plus optional on-disk
pickles) and executes the remainder serially or across a process pool.
See ``docs/engine.md`` for the full design.
"""

from repro.engine.cache import CacheStats, ReplayCache, TraceCache
from repro.engine.canonical import METRICS_SCHEMA, canonical_metrics, metrics_digest
from repro.engine.engine import (
    Engine,
    EngineStats,
    configure_engine,
    execute_job,
    get_engine,
)
from repro.engine.executor import (
    EXECUTOR_NAMES,
    Executor,
    PoolExecutor,
    SerialExecutor,
    resolve_executor,
)
from repro.engine.job import ReplayOutcome, SimJob
from repro.engine.specs import (
    ALWAYS_HIGH,
    BASELINE_PREDICTOR,
    GATING_POLICY,
    NO_POLICY,
    THREE_REGION_POLICY,
    EstimatorSpec,
    PolicySpec,
    PredictorSpec,
    Spec,
    SpecError,
)

__all__ = [
    "ALWAYS_HIGH",
    "BASELINE_PREDICTOR",
    "CacheStats",
    "EXECUTOR_NAMES",
    "Engine",
    "EngineStats",
    "EstimatorSpec",
    "Executor",
    "PoolExecutor",
    "SerialExecutor",
    "GATING_POLICY",
    "METRICS_SCHEMA",
    "NO_POLICY",
    "PolicySpec",
    "PredictorSpec",
    "ReplayCache",
    "ReplayOutcome",
    "SimJob",
    "Spec",
    "SpecError",
    "THREE_REGION_POLICY",
    "TraceCache",
    "canonical_metrics",
    "configure_engine",
    "execute_job",
    "get_engine",
    "metrics_digest",
    "resolve_executor",
]
