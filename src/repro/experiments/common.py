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
  cache underneath;
- :func:`gating_jobs` / :func:`run_gating` / :func:`mean_cost` -- the
  one procedure behind every U/P number (Tables 4-6, Figures 8-9, the
  latency study and the gating extensions): per benchmark, replay an
  ungated baseline and the gated variants as one engine batch, time the
  baseline and each variant on the machine, and average ``cost_vs``
  over benchmarks (:class:`GatingTimes`).

Experiments must describe components as specs
(:class:`repro.engine.EstimatorSpec` etc.), never as callables: specs
are what make jobs hashable, picklable and content-addressable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.engine import (
    ALWAYS_HIGH,
    GATING_POLICY,
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
    "GatingTimes",
    "gated_perceptrons",
    "gating_jobs",
    "run_gating",
    "mean_cost",
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


#: A gated variant: the estimator and policy of one replay.
Variant = Tuple[EstimatorSpec, PolicySpec]


def gated_perceptrons(thresholds: Sequence[float]) -> List[Variant]:
    """One perceptron estimator under pipeline gating per threshold."""
    return [
        (EstimatorSpec.of("perceptron", threshold=lam), GATING_POLICY)
        for lam in thresholds
    ]


def gating_jobs(
    settings: ExperimentSettings,
    variants: Sequence[Variant],
    predictor: Optional[PredictorSpec] = None,
) -> List[SimJob]:
    """Per benchmark, the ungated baseline job, then one job per variant."""
    return [
        job_for(settings, name, estimator, policy=policy, predictor=predictor)
        for name in settings.benchmarks
        for estimator, policy in ((ALWAYS_HIGH, NO_POLICY), *variants)
    ]


def mean_cost(
    bases: Sequence[SimStats], stats: Sequence[SimStats]
) -> Tuple[float, float]:
    """Mean ``(U, P)`` of ``stats[k].cost_vs(bases[k])`` over benchmarks k."""
    if len(bases) != len(stats):
        raise ValueError(f"{len(bases)} baselines for {len(stats)} runs")
    costs = [s.cost_vs(base) for base, s in zip(bases, stats)]
    return (
        sum(u for u, _ in costs) / len(costs),
        sum(p for _, p in costs) / len(costs),
    )


@dataclass(frozen=True)
class GatingTimes:
    """What :func:`run_gating` timed, in benchmark order.

    Attributes:
        bases: Per benchmark, the ungated baseline on ``config``.
        stats: Per benchmark, ``stats[k][i][j]`` is variant *i* on
            ``machines[i][j]``.
    """

    bases: List[SimStats]
    stats: List[List[List[SimStats]]]

    def variant(self, i: int, j: int = 0) -> List[SimStats]:
        """Variant ``i`` on machine ``j`` of its row, per benchmark."""
        return [per_variant[i][j] for per_variant in self.stats]

    def cost(self, i: int, j: int = 0) -> Tuple[float, float]:
        """Mean ``(U, P)`` of :meth:`variant` against the baselines."""
        return mean_cost(self.bases, self.variant(i, j))


def run_gating(
    settings: ExperimentSettings,
    variants: Sequence[Variant],
    config: PipelineConfig,
    machines: Sequence[Sequence[PipelineConfig]],
    predictor: Optional[PredictorSpec] = None,
) -> GatingTimes:
    """Replay and time an ungated baseline and gated ``variants``.

    :func:`gating_jobs` runs as one engine batch.  Then, benchmark by
    benchmark, the baseline is timed on ``config`` and variant *i* on
    each configuration in ``machines[i]``, in that order.
    """
    if len(machines) != len(variants):
        raise ValueError(
            f"need one machine row per variant: {len(variants)} variants, "
            f"{len(machines)} rows"
        )
    outcomes = iter(run_jobs(gating_jobs(settings, variants, predictor)))
    bases, stats = [], []
    for _ in settings.benchmarks:
        bases.append(PipelineSimulator(config).simulate(next(outcomes).events))
        per_variant = []
        for row in machines:
            events = next(outcomes).events
            per_variant.append(
                [PipelineSimulator(machine).simulate(events) for machine in row]
            )
        stats.append(per_variant)
    return GatingTimes(bases=bases, stats=stats)
