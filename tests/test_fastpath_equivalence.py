"""Fast-backend equivalence: every registered kind, branch for branch.

The fast backend is only allowed to exist because it is bit-identical
to the reference front end.  These tests enforce that over the whole
verification matrix (every registered predictor, estimator and policy
kind) on two kinds of traces:

- a *calibrated* benchmark trace, where structures warm up and the
  perceptrons spend most of their time away from the weight rails;
- an *adversarial* trace built to alias heavily in every table (few
  static pcs, giant and dense strides, noisy directions), which pins
  weights to the rails and exercises the SWAR slow path, counter
  saturation and fusion disagreement far more often than any benchmark.

Divergence anywhere -- prediction, confidence signal, policy action,
aggregate metrics or final ``state_canonical()`` digests -- is a
failure naming the first differing branch.
"""

import random

import pytest

np = pytest.importorskip("numpy")

from repro import fastpath
from repro.engine import Engine, EstimatorSpec, PredictorSpec, SimJob
from repro.engine.replay import _replay_trace
from repro.trace.benchmarks import generate_benchmark_trace
from repro.trace.record import BranchRecord, Trace
from repro.verify.fastpath import run_fastpath_differential
from repro.verify.matrix import CASES, PROFILES, jobs_for_profile

CASE_IDS = [case.label for case in CASES]


@pytest.fixture(scope="module")
def calibrated_trace():
    return generate_benchmark_trace("gzip", n_branches=4_000, seed=11)


@pytest.fixture(scope="module")
def adversarial_trace():
    """Aliasing-heavy stress trace (not derived from any benchmark).

    96 static branches: half at a 128KiB stride (collides after the
    fold in gshare/JRS-sized tables), half densely packed (collides
    under the modulo indexing of the perceptron tables).  Directions
    mix noise with a pc-correlated pattern so estimators neither
    converge nor give up.
    """
    rng = random.Random(0xA11A5)
    pcs = [0x40_0000 + i * (1 << 17) for i in range(48)]
    pcs += [0x40_0000 + i * 4 for i in range(48)]
    records = []
    for i in range(3_500):
        pc = pcs[rng.randrange(len(pcs))]
        if rng.random() < 0.35:
            taken = rng.random() < 0.5
        else:
            taken = ((pc >> 7) ^ i) & 1 == 0
        records.append(
            BranchRecord(pc=pc, taken=taken, uops_before=rng.randrange(12))
        )
    return Trace(records, name="adversarial", seed=0)


@pytest.fixture(scope="module")
def engine():
    return Engine()


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
class TestMatrixEquivalence:
    """Branch-by-branch fast-vs-reference cross-check per matrix case."""

    def test_calibrated_trace(self, case, calibrated_trace):
        report = run_fastpath_differential(
            calibrated_trace,
            case.predictor,
            case.estimator,
            case.policy,
            label=case.label,
        )
        assert report.ok, report.format()

    def test_adversarial_trace(self, case, adversarial_trace):
        report = run_fastpath_differential(
            adversarial_trace,
            case.predictor,
            case.estimator,
            case.policy,
            label=case.label,
        )
        assert report.ok, report.format()


def _job(case, backend="reference"):
    return SimJob(
        benchmark="gzip",
        n_branches=5_000,
        warmup=1_500,
        seed=3,
        predictor=case.predictor,
        estimator=case.estimator,
        policy=case.policy,
        backend=backend,
    )


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_engine_outcomes_identical(engine, case):
    """Through the real engine, both backends produce the same outcome."""
    reference = engine.run([_job(case)])[0]
    fast = engine.run([_job(case, backend="fast")])[0]
    assert reference.backend == "reference"
    assert fast.backend == "fast"
    assert fast.canonical_metrics() == reference.canonical_metrics()
    assert fast.metrics_digest() == reference.metrics_digest()
    assert fast.events == reference.events


def test_every_matrix_job_is_supported():
    """No registered configuration may dodge the cross-check silently."""
    for label, job in jobs_for_profile(PROFILES["quick"]):
        assert fastpath.supports(job.with_(backend="fast")), (
            f"{label}: inside the verify matrix but outside the fast "
            f"backend's support matrix"
        )


#: Configurations the fast backend must decline (the engine then runs
#: the reference loop, whose constructors own the error reporting).
UNSUPPORTED_SPECS = {
    "pred-nonpow2-gshare": (
        "predictor", PredictorSpec.of("baseline_hybrid", gshare_entries=1000)
    ),
    "pred-history-65": (
        "predictor", PredictorSpec.of("baseline_hybrid", history_length=65)
    ),
    "pred-swar-overflow": (
        "predictor",
        PredictorSpec.of("gshare_perceptron_hybrid", perceptron_history=65),
    ),
    "pred-unknown-param": (
        "predictor", PredictorSpec.of("baseline_hybrid", bogus=3)
    ),
    "jrs-nonpow2": ("estimator", EstimatorSpec.of("jrs", entries=1000)),
    "jrs-threshold-0": ("estimator", EstimatorSpec.of("jrs", threshold=0)),
    "jrs-threshold-over-max": (
        "estimator", EstimatorSpec.of("jrs", counter_bits=2, threshold=9)
    ),
    "jrs-enhanced-history-64": (
        "estimator", EstimatorSpec.of("jrs", enhanced=True, history_length=64)
    ),
    "perceptron-entries-0": (
        "estimator", EstimatorSpec.of("perceptron", entries=0)
    ),
    "perceptron-negative-training": (
        "estimator", EstimatorSpec.of("perceptron", training_threshold=-1)
    ),
    "perceptron-tnt-strong": (
        "estimator", EstimatorSpec.of("perceptron", mode="tnt", strong_threshold=5)
    ),
    "perceptron-tnt-negative": (
        "estimator", EstimatorSpec.of("perceptron", mode="tnt", threshold=-5)
    ),
    "perceptron-strong-below-weak": (
        "estimator", EstimatorSpec.of("perceptron", strong_threshold=-200)
    ),
    "path-entries-0": (
        "estimator", EstimatorSpec.of("path_perceptron", table_entries=0)
    ),
    "path-weight-bits-1": (
        "estimator", EstimatorSpec.of("path_perceptron", weight_bits=1)
    ),
    "agreement-bad-mode": (
        "estimator",
        EstimatorSpec.of(
            "agreement",
            primary=EstimatorSpec.of("jrs"),
            secondary=EstimatorSpec.of("jrs"),
            mode="xor",
        ),
    ),
    "agreement-unsupported-component": (
        "estimator",
        EstimatorSpec.of(
            "agreement",
            primary=EstimatorSpec.of("jrs", entries=1000),
            secondary=EstimatorSpec.of("jrs"),
        ),
    ),
    "cascade-negative-band": (
        "estimator",
        EstimatorSpec.of(
            "cascade",
            primary=EstimatorSpec.of("jrs"),
            secondary=EstimatorSpec.of("jrs"),
            neutral_band=-1,
        ),
    ),
}


@pytest.mark.parametrize(
    "which, spec", UNSUPPORTED_SPECS.values(), ids=UNSUPPORTED_SPECS.keys()
)
def test_out_of_matrix_specs_are_declined(which, spec):
    job = SimJob(
        benchmark="gzip", n_branches=100, warmup=0, seed=1, backend="fast"
    ).with_(**{which: spec})
    assert not fastpath.supports(job)


def test_unsupported_spec_falls_back_to_reference(engine):
    # 12-bit weights at history 40 overflow the 16-bit SWAR lanes, so
    # the fast backend must decline and the engine must quietly run the
    # reference loop instead -- with identical results.
    spec = EstimatorSpec.of("perceptron", history_length=40, weight_bits=12)
    job = SimJob(
        benchmark="gzip",
        n_branches=3_000,
        warmup=1_000,
        seed=3,
        estimator=spec,
        backend="fast",
    )
    assert not fastpath.supports(job)
    fast = engine.run([job])[0]
    reference = engine.run([job.with_(backend="reference")])[0]
    assert fast.backend == "reference"
    assert fast.canonical_metrics() == reference.canonical_metrics()
    assert fast.events == reference.events


def test_oversized_pcs_fall_back_at_runtime():
    """Support is spec-level; absurd pcs are only visible per trace."""
    records = [
        BranchRecord(pc=(1 << 45) + 8 * i, taken=i % 3 != 0)
        for i in range(600)
    ]
    trace = Trace(records, name="oversized", seed=0)
    job = SimJob(
        benchmark="oversized", n_branches=600, warmup=100, seed=1,
        backend="fast",
    )
    assert fastpath.supports(job)
    with pytest.raises(fastpath.FastPathUnsupported):
        fastpath.replay(job, trace)
    outcome = _replay_trace(job, trace)
    assert outcome.backend == "reference"
    reference = _replay_trace(job.with_(backend="reference"), trace)
    assert outcome.canonical_metrics() == reference.canonical_metrics()
    assert outcome.events == reference.events
