"""The verification matrix: which configurations get verified.

One fixed, declarative list of (predictor, estimator, policy) cases
spanning every registered spec kind, plus sizing profiles.  All three
verification layers consume this matrix:

- the differential layer replays each case against its reference oracle;
- the golden gate runs each case x benchmark as a :class:`SimJob` and
  compares canonical metric digests against the checked-in baseline;
- the conformance test suite parametrizes over the matrix and *fails*
  if a registered kind is not covered, so adding a new predictor or
  estimator kind without verification coverage is a test failure, not a
  silent gap.

The golden gate also pins the pipeline timing model: each
:class:`TimingCase` times one case's event stream on each paper machine
(:data:`TIMING_MACHINES`) and records every :class:`SimStats` field.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.engine.job import SimJob
from repro.engine.specs import (
    ALWAYS_HIGH,
    GATING_POLICY,
    NO_POLICY,
    THREE_REGION_POLICY,
    EstimatorSpec,
    PolicySpec,
    PredictorSpec,
    Spec,
)
from repro.experiments.common import ExperimentSettings, job_for
from repro.pipeline.config import (
    BASELINE_40X4,
    STANDARD_20X4,
    WIDE_20X8,
    PipelineConfig,
)

__all__ = [
    "VerifyError",
    "VerifyProfile",
    "VerifyCase",
    "CASES",
    "PROFILES",
    "TimingCase",
    "TIMING_CASES",
    "TIMING_MACHINES",
    "jobs_for_profile",
    "timing_jobs_for_profile",
    "specs_for_estimator_kind",
    "specs_for_predictor_kind",
    "missing_estimator_kinds",
    "missing_predictor_kinds",
    "missing_policy_kinds",
    "assert_full_coverage",
]


class VerifyError(Exception):
    """A verification-layer configuration or coverage failure."""


@dataclass(frozen=True)
class VerifyProfile:
    """Workload sizing for one verification tier.

    Attributes:
        name: Profile key (``"quick"`` / ``"full"``).
        n_branches: Branches per golden-gate job.
        warmup: Warm-up branches excluded from golden metrics.
        benchmarks: Benchmarks in the golden matrix.
        differential_branches: Trace length for the (much slower)
            pure-Python differential replays.
    """

    name: str
    n_branches: int
    warmup: int
    benchmarks: Tuple[str, ...]
    differential_branches: int

    def settings(self) -> ExperimentSettings:
        return ExperimentSettings(
            n_branches=self.n_branches,
            warmup=self.warmup,
            benchmarks=self.benchmarks,
        )


PROFILES: Dict[str, VerifyProfile] = {
    "quick": VerifyProfile(
        name="quick",
        n_branches=8_000,
        warmup=2_000,
        benchmarks=("gzip", "mcf"),
        differential_branches=2_500,
    ),
    "full": VerifyProfile(
        name="full",
        n_branches=24_000,
        warmup=8_000,
        benchmarks=("gzip", "mcf", "gcc"),
        differential_branches=6_000,
    ),
}


@dataclass(frozen=True)
class VerifyCase:
    """One verified (predictor, estimator, policy) configuration."""

    label: str
    predictor: PredictorSpec
    estimator: EstimatorSpec
    policy: PolicySpec


_PERCEPTRON_L0 = EstimatorSpec.of("perceptron", threshold=0)
_JRS_L7 = EstimatorSpec.of("jrs", threshold=7)

#: The fixed matrix.  Thresholds are ints where the experiments use
#: ints -- job fingerprints hash the repr of spec params, so 0 and 0.0
#: are different jobs and the golden baselines would not be shared.
CASES: Tuple[VerifyCase, ...] = (
    VerifyCase("ungated-baseline", PredictorSpec.of("baseline_hybrid"),
               ALWAYS_HIGH, NO_POLICY),
    VerifyCase("jrs-l7", PredictorSpec.of("baseline_hybrid"),
               EstimatorSpec.of("jrs", threshold=7, enhanced=False),
               GATING_POLICY),
    VerifyCase("enhanced-jrs-l7", PredictorSpec.of("baseline_hybrid"),
               _JRS_L7, GATING_POLICY),
    VerifyCase("perceptron-cic-l0", PredictorSpec.of("baseline_hybrid"),
               _PERCEPTRON_L0, GATING_POLICY),
    VerifyCase("perceptron-cic-3region", PredictorSpec.of("baseline_hybrid"),
               EstimatorSpec.of("perceptron", threshold=-75, strong_threshold=0),
               THREE_REGION_POLICY),
    VerifyCase("perceptron-tnt-l30", PredictorSpec.of("baseline_hybrid"),
               EstimatorSpec.of("perceptron", mode="tnt", threshold=30),
               GATING_POLICY),
    VerifyCase("path-perceptron", PredictorSpec.of("baseline_hybrid"),
               EstimatorSpec.of("path_perceptron"), GATING_POLICY),
    VerifyCase("agreement-fusion", PredictorSpec.of("baseline_hybrid"),
               EstimatorSpec.of(
                   "agreement",
                   primary=_PERCEPTRON_L0,
                   secondary=_JRS_L7,
                   mode="intersection",
               ),
               GATING_POLICY),
    VerifyCase("cascade-fusion", PredictorSpec.of("baseline_hybrid"),
               EstimatorSpec.of(
                   "cascade",
                   primary=_PERCEPTRON_L0,
                   secondary=_JRS_L7,
                   neutral_band=30,
               ),
               GATING_POLICY),
    VerifyCase("gshare-perceptron-hybrid",
               PredictorSpec.of("gshare_perceptron_hybrid"),
               _PERCEPTRON_L0, GATING_POLICY),
    VerifyCase("tage-perceptron-cic", PredictorSpec.of("tage"),
               _PERCEPTRON_L0, GATING_POLICY),
)


def jobs_for_profile(profile: VerifyProfile) -> List[Tuple[str, SimJob]]:
    """Golden-gate job list: every case x every profile benchmark."""
    settings = profile.settings()
    out: List[Tuple[str, SimJob]] = []
    for case in CASES:
        for benchmark in profile.benchmarks:
            job = job_for(
                settings,
                benchmark,
                case.estimator,
                policy=case.policy,
                predictor=case.predictor,
            )
            out.append((f"{case.label}/{benchmark}", job))
    return out


@dataclass(frozen=True)
class TimingCase:
    """One timed configuration: a matrix case's events on a machine variant.

    Attributes:
        label: Case name in the golden label
            ``timing/<machine>/<label>/<benchmark>``.
        stream: Label of the :class:`VerifyCase` whose events are timed.
        gating_threshold: Branch-counter threshold (PLn).
        gating_mode: ``"stall"`` or ``"throttle"`` (at the machine's
            ``throttle_factor``).
    """

    label: str
    stream: str
    gating_threshold: int = 1
    gating_mode: str = "stall"

    def machine(self, base: PipelineConfig) -> PipelineConfig:
        """This case's variant of the paper machine ``base``."""
        return replace(
            base.with_gating(self.gating_threshold),
            gating_mode=self.gating_mode,
        )


#: The three machines of the paper's Table 2.
TIMING_MACHINES: Tuple[PipelineConfig, ...] = (
    STANDARD_20X4,
    WIDE_20X8,
    BASELINE_40X4,
)

#: Ungated, gated at PL1-3 (Table 4's JRS lambda=7 row), gating plus
#: reversal (Figures 8/9) and throttled fetch (the throttle study).
TIMING_CASES: Tuple[TimingCase, ...] = (
    TimingCase("ungated", "ungated-baseline"),
    TimingCase("PL1", "enhanced-jrs-l7", gating_threshold=1),
    TimingCase("PL2", "enhanced-jrs-l7", gating_threshold=2),
    TimingCase("PL3", "enhanced-jrs-l7", gating_threshold=3),
    TimingCase("reversal", "perceptron-cic-3region"),
    TimingCase("throttle", "perceptron-cic-l0", gating_mode="throttle"),
)


def timing_jobs_for_profile(
    profile: VerifyProfile,
) -> List[Tuple[str, str, PipelineConfig]]:
    """Timing entries as ``(label, stream job label, machine)`` triples.

    The stream job label names the :func:`jobs_for_profile` entry whose
    event stream the machine times.
    """
    out: List[Tuple[str, str, PipelineConfig]] = []
    for base in TIMING_MACHINES:
        for case in TIMING_CASES:
            for benchmark in profile.benchmarks:
                out.append((
                    f"timing/{base.label()}/{case.label}/{benchmark}",
                    f"{case.stream}/{benchmark}",
                    case.machine(base),
                ))
    return out


def _walk_kinds(spec: Spec, kinds: set) -> None:
    kinds.add(spec.kind)
    for _, value in spec.params:
        if isinstance(value, Spec):
            _walk_kinds(value, kinds)


def _covered(spec: Spec, kind: str) -> bool:
    kinds: set = set()
    _walk_kinds(spec, kinds)
    return kind in kinds


def specs_for_estimator_kind(kind: str) -> List[Tuple[str, EstimatorSpec]]:
    """Matrix cases (label, top-level estimator spec) covering ``kind``.

    A kind counts as covered when it appears anywhere in a case's
    estimator spec tree -- including as a fusion component.  Raises
    :class:`VerifyError` if no case covers it.
    """
    hits = [
        (case.label, case.estimator)
        for case in CASES
        if _covered(case.estimator, kind)
    ]
    if not hits:
        raise VerifyError(
            f"estimator kind {kind!r} has no verification coverage; "
            f"add a VerifyCase to repro.verify.matrix"
        )
    return hits


def specs_for_predictor_kind(kind: str) -> List[Tuple[str, PredictorSpec]]:
    """Matrix cases (label, predictor spec) covering ``kind``."""
    hits = [
        (case.label, case.predictor)
        for case in CASES
        if _covered(case.predictor, kind)
    ]
    if not hits:
        raise VerifyError(
            f"predictor kind {kind!r} has no verification coverage; "
            f"add a VerifyCase to repro.verify.matrix"
        )
    return hits


def _missing(registered, covered_sets) -> List[str]:
    covered: set = set()
    for kinds in covered_sets:
        covered |= kinds
    return sorted(set(registered) - covered)


def missing_estimator_kinds() -> List[str]:
    """Registered estimator kinds with no matrix coverage (ideally [])."""
    sets = []
    for case in CASES:
        kinds: set = set()
        _walk_kinds(case.estimator, kinds)
        sets.append(kinds)
    return _missing(EstimatorSpec.kinds(), sets)


def missing_predictor_kinds() -> List[str]:
    """Registered predictor kinds with no matrix coverage (ideally [])."""
    sets = []
    for case in CASES:
        kinds: set = set()
        _walk_kinds(case.predictor, kinds)
        sets.append(kinds)
    return _missing(PredictorSpec.kinds(), sets)


def missing_policy_kinds() -> List[str]:
    """Registered policy kinds with no matrix coverage (ideally [])."""
    return _missing(
        PolicySpec.kinds(), [{case.policy.kind} for case in CASES]
    )


def assert_full_coverage() -> None:
    """Raise :class:`VerifyError` unless every registered kind is covered."""
    problems = []
    for what, missing in (
        ("estimator", missing_estimator_kinds()),
        ("predictor", missing_predictor_kinds()),
        ("policy", missing_policy_kinds()),
    ):
        if missing:
            problems.append(f"{what} kinds without coverage: {missing}")
    if problems:
        raise VerifyError(
            "verification matrix does not cover the spec registries: "
            + "; ".join(problems)
        )
