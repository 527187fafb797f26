"""Simulation jobs: the engine's content-addressable unit of work.

A :class:`SimJob` fully determines one front-end replay: the benchmark
trace (name, length, seed), the warm-up split, and the three component
specs.  Because every field is a frozen scalar or spec, a job is
hashable (usable as a cache key), picklable (shippable to worker
processes), and fingerprintable (stable content address for the on-disk
replay cache).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Iterator, Tuple

from repro.engine.specs import (
    ALWAYS_HIGH,
    BASELINE_PREDICTOR,
    NO_POLICY,
    EstimatorSpec,
    PolicySpec,
    PredictorSpec,
)

__all__ = [
    "SimJob",
    "ReplayOutcome",
    "FINGERPRINT_SCHEMA",
    "BACKENDS",
]

#: Bump when the replay semantics or the canonical job encoding change;
#: it salts every fingerprint, so stale on-disk cache entries from an
#: older engine are never resurrected.
#: Schema 2: the execution backend became part of the job identity.
#: Schema 3: the speculation knob joined the canonical job encoding.
FINGERPRINT_SCHEMA = 3

#: Execution backends a job may request.  ``"fast"`` runs the
#: vectorized :mod:`repro.fastpath` driver when the configuration is
#: supported (bit-identical by construction, enforced by the verify
#: fastpath layer) and falls back to the reference loop otherwise.
BACKENDS = ("reference", "fast")


@dataclass(frozen=True)
class SimJob:
    """One front-end replay, fully described.

    Attributes:
        benchmark: Benchmark trace name (see
            :data:`repro.trace.benchmarks.BENCHMARK_NAMES`), or the
            ``recorded:`` token of a saved trace
            (:func:`repro.trace.io.job_token`).
        n_branches: Dynamic branches in the trace.
        warmup: Leading branches that train structures but are excluded
            from events and metrics.
        seed: Root seed for trace generation.
        predictor: Baseline branch predictor spec.
        estimator: Confidence estimator spec.
        policy: Speculation policy spec.
        collect_outputs: Record raw estimator outputs split by outcome
            (the density-figure inputs).
        backend: Execution backend, ``"reference"`` (default) or
            ``"fast"`` (vectorized replay via :mod:`repro.fastpath`).
    """

    benchmark: str
    n_branches: int
    warmup: int
    seed: int
    predictor: PredictorSpec = BASELINE_PREDICTOR
    estimator: EstimatorSpec = ALWAYS_HIGH
    policy: PolicySpec = NO_POLICY
    collect_outputs: bool = False
    backend: str = "reference"

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.benchmark.startswith("recorded:"):
            # Checked here, not when the trace is opened: the replay
            # cache is looked up first, and a hit never opens it.
            from repro.trace.io import parse_job_token

            parse_job_token(self.benchmark)
        if self.n_branches <= 0:
            raise ValueError(f"n_branches must be positive, got {self.n_branches}")
        if not 0 <= self.warmup < self.n_branches:
            raise ValueError(
                f"warmup must be in [0, n_branches), got {self.warmup}"
            )
        if not isinstance(self.predictor, PredictorSpec):
            raise TypeError(f"predictor must be a PredictorSpec, got {self.predictor!r}")
        if not isinstance(self.estimator, EstimatorSpec):
            raise TypeError(f"estimator must be an EstimatorSpec, got {self.estimator!r}")
        if not isinstance(self.policy, PolicySpec):
            raise TypeError(f"policy must be a PolicySpec, got {self.policy!r}")

    @property
    def trace_key(self) -> Tuple[str, int, int]:
        """The (name, n_branches, seed) triple identifying the trace."""
        return (self.benchmark, self.n_branches, self.seed)

    @property
    def fingerprint(self) -> str:
        """Stable content address over all replay-relevant fields.

        Two jobs share a fingerprint iff they describe bit-identical
        replays.  ``repr`` round-trips ints and floats exactly, so the
        encoding is unambiguous; the schema version salts the digest.

        A recorded replay reads neither the file's path nor the seed, so
        a ``recorded:`` job hashes ``recorded:<digest16>`` in place of
        its token and leaves the seed out: one recording has one
        fingerprint wherever it is saved.  Generated jobs keep their
        encoding byte for byte; recorded keys from older code hashed
        the token's path, so they cannot collide with these.
        """
        if self.benchmark.startswith("recorded:"):
            from repro.trace.io import parse_job_token

            digest, _ = parse_job_token(self.benchmark)
            source = (f"recorded:{digest}", self.n_branches, self.warmup)
        else:
            source = (self.benchmark, self.n_branches, self.warmup, self.seed)
        canonical = (
            "simjob",
            FINGERPRINT_SCHEMA,
            *source,
            self.predictor.canonical(),
            self.estimator.canonical(),
            self.policy.canonical(),
            self.collect_outputs,
            self.backend,
            # Retired speculation knob, kept so recorded fingerprints hold.
            "auto",
        )
        return hashlib.sha256(repr(canonical).encode("utf-8")).hexdigest()

    def with_(self, **updates) -> "SimJob":
        """Copy with some fields replaced (``dataclasses.replace``)."""
        return replace(self, **updates)


@dataclass
class ReplayOutcome:
    """What one executed job produces.

    Iterable as ``(events, result)`` so call sites can keep the
    familiar ``events, res = engine.replay(job)`` unpacking.
    """

    events: object  # FrontEndEvents: post-warm-up columns, events on read
    result: object  # FrontEndResult
    from_cache: bool = False
    backend: str = "reference"  # backend that actually executed

    def __iter__(self) -> Iterator:
        yield self.events
        yield self.result

    def canonical_metrics(self) -> dict:
        """All-integer canonical metric dict (the golden-gate payload)."""
        from repro.engine.canonical import canonical_metrics

        return canonical_metrics(self.result)

    def metrics_digest(self) -> str:
        """SHA-256 digest of :meth:`canonical_metrics`."""
        from repro.engine.canonical import metrics_digest

        return metrics_digest(self.canonical_metrics())
