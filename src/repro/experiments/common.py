"""Shared experiment infrastructure.

All experiments replay the same benchmark traces through (predictor,
estimator, policy) configurations and feed the resulting event streams
into pipeline models.  Since the engine refactor this module is a thin
veneer over :mod:`repro.engine`:

- :class:`ExperimentSettings` -- trace length, warm-up and seed used by
  every experiment (the paper runs 30M-instruction traces with 10M
  warm-up; we default to 150k branches with a one-third warm-up, and
  ``--quick`` / ``--branches`` scale it down);
- :func:`job_for` / :func:`run_jobs` -- build :class:`SimJob` batches
  from settings and hand them to the default engine, which deduplicates
  replays across experiments (table 3/4/5/6 and the figures share
  baselines and ladders) and fans out across processes when configured
  with ``--jobs``;
- :func:`replay_benchmark` -- single-job convenience wrapper, same
  cache underneath.

Experiments must describe components as specs
(:class:`repro.engine.EstimatorSpec` etc.), never as callables: specs
are what make jobs hashable, picklable and content-addressable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.engine import (
    EstimatorSpec,
    PolicySpec,
    PredictorSpec,
    ReplayOutcome,
    SimJob,
    get_engine,
)
from repro.engine.specs import BASELINE_PREDICTOR, NO_POLICY
from repro.pipeline.config import PipelineConfig
from repro.pipeline.simulator import PipelineSimulator
from repro.pipeline.stats import SimStats
from repro.trace.benchmarks import BENCHMARK_NAMES
from repro.trace.record import Trace

__all__ = [
    "ExperimentSettings",
    "DEFAULT_SETTINGS",
    "get_trace",
    "job_for",
    "run_jobs",
    "replay_benchmark",
    "simulate_events",
    "weighted_average",
]


@dataclass(frozen=True)
class ExperimentSettings:
    """Workload sizing shared by all experiments.

    Attributes:
        n_branches: Dynamic branches per benchmark trace.
        warmup: Leading branches that train structures but are excluded
            from metrics and timing (paper: one third of the trace).
        seed: Root seed; every trace and jitter stream derives from it.
        benchmarks: Benchmarks to include (default: all twelve Table 2
            profiles; ``h2p.*`` workload-family names are also valid).
        backend: Engine backend for every job built from these settings
            (``"reference"`` or ``"fast"``; see ``docs/fastpath.md``).
    """

    n_branches: int = 150_000
    warmup: int = 50_000
    seed: int = 1
    benchmarks: Tuple[str, ...] = BENCHMARK_NAMES
    backend: str = "reference"

    def __post_init__(self):
        from repro.engine.job import BACKENDS

        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.n_branches <= 0:
            raise ValueError(f"n_branches must be positive, got {self.n_branches}")
        if not 0 <= self.warmup < self.n_branches:
            raise ValueError(
                f"warmup must be in [0, n_branches), got {self.warmup}"
            )
        from repro.trace.h2p import H2P_PROFILE_NAMES

        known = set(BENCHMARK_NAMES) | set(H2P_PROFILE_NAMES)
        unknown = set(self.benchmarks) - known
        if unknown:
            raise ValueError(f"unknown benchmarks: {sorted(unknown)}")

    def scaled(self, factor: float) -> "ExperimentSettings":
        """Proportionally smaller/larger copy (for quick runs)."""
        return replace(
            self,
            n_branches=max(1000, int(self.n_branches * factor)),
            warmup=max(300, int(self.warmup * factor)),
        )


#: Full-size experiment runs (EXPERIMENTS.md numbers).
DEFAULT_SETTINGS = ExperimentSettings()


def get_trace(name: str, n_branches: int, seed: int) -> Trace:
    """Generate (and cache) one benchmark trace via the engine."""
    return get_engine().trace(name, n_branches, seed)


def job_for(
    settings: ExperimentSettings,
    benchmark: str,
    estimator: EstimatorSpec,
    policy: Optional[PolicySpec] = None,
    predictor: Optional[PredictorSpec] = None,
    collect_outputs: bool = False,
) -> SimJob:
    """Build one :class:`SimJob` from experiment settings."""
    return SimJob(
        benchmark=benchmark,
        n_branches=settings.n_branches,
        warmup=settings.warmup,
        seed=settings.seed,
        predictor=predictor if predictor is not None else BASELINE_PREDICTOR,
        estimator=estimator,
        policy=policy if policy is not None else NO_POLICY,
        collect_outputs=collect_outputs,
        backend=settings.backend,
    )


def run_jobs(jobs: Sequence[SimJob]) -> List[ReplayOutcome]:
    """Run a job batch on the default engine (cached, maybe parallel)."""
    return get_engine().run(jobs)


def replay_benchmark(
    name: str,
    settings: ExperimentSettings,
    estimator: EstimatorSpec,
    policy: Optional[PolicySpec] = None,
    predictor: Optional[PredictorSpec] = None,
    collect_outputs: bool = False,
) -> ReplayOutcome:
    """One cached front-end replay of a benchmark.

    Returns a :class:`ReplayOutcome`, unpackable as ``events, result``:
    the post-warm-up events (reusable across policies via
    :func:`repro.core.frontend.apply_policy` and across pipeline
    configurations) plus the aggregated front-end result.
    """
    return get_engine().replay(
        job_for(
            settings,
            name,
            estimator,
            policy=policy,
            predictor=predictor,
            collect_outputs=collect_outputs,
        )
    )


def simulate_events(events, config: PipelineConfig) -> SimStats:
    """Run the pipeline model over a prepared event stream."""
    return PipelineSimulator(config).simulate(events)


def weighted_average(values: Sequence[float], weights: Sequence[float]) -> float:
    """Weighted mean (the paper's per-benchmark weighted averages)."""
    if len(values) != len(weights):
        raise ValueError("values and weights must have the same length")
    total = sum(weights)
    if total == 0:
        return 0.0
    return sum(v * w for v, w in zip(values, weights)) / total
