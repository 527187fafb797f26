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

import inspect
import random

import pytest

from repro import fastpath, telemetry
from repro.core.frontend import (
    FrontEnd,
    FrontEndEvents,
    FrontEndResult,
    aggregate_event,
)
from repro.engine import (
    GATING_POLICY,
    NO_POLICY,
    THREE_REGION_POLICY,
    Engine,
    EstimatorSpec,
    PolicySpec,
    PredictorSpec,
    ReplayOutcome,
    SimJob,
    canonical_metrics,
)
from repro.engine.replay import _replay_trace
from repro.fastpath import driver as fast_driver
from repro.fastpath import estimators as fast_estimators
from repro.fastpath import support as fast_support
from repro.fastpath.estimators import trajectory_key
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
        collect_outputs=True,
        backend=backend,
    )


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_engine_outcomes_identical(engine, case):
    """Through the real engine, both backends produce the same outcome."""
    reference = engine.run([_job(case)])[0]
    fast = engine.run([_job(case, backend="fast")])[0]
    assert reference.backend == "reference"
    assert fast.backend == "fast"
    assert fast.metrics_digest() == reference.metrics_digest()
    assert fast.events == reference.events
    # Every field, the density-figure inputs canonical metrics leave out too.
    assert fast.result == reference.result


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
    "jrs-history-bool": (
        "estimator", EstimatorSpec.of("jrs", history_length=True)
    ),
    "jrs-history-float": (
        "estimator", EstimatorSpec.of("jrs", history_length=10.0)
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
    "perceptron-strong-bool": (
        "estimator", EstimatorSpec.of("perceptron", strong_threshold=True)
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
    "policy-with-params": ("policy", PolicySpec.of("gating", x=1)),
}


@pytest.mark.parametrize(
    "which, spec", UNSUPPORTED_SPECS.values(), ids=UNSUPPORTED_SPECS.keys()
)
def test_out_of_matrix_specs_are_declined(which, spec):
    job = SimJob(
        benchmark="gzip", n_branches=100, warmup=0, seed=1, backend="fast"
    ).with_(**{which: spec})
    assert not fastpath.supports(job)


#: Single-entry tables: every pc and history folds to index 0.
SINGLE_ENTRY = {
    "gshare-1": (
        PredictorSpec.of("baseline_hybrid", gshare_entries=1),
        EstimatorSpec.of("perceptron", threshold=0),
    ),
    "hybrid-gshare-1": (
        PredictorSpec.of("gshare_perceptron_hybrid", gshare_entries=1),
        EstimatorSpec.of("perceptron", threshold=0),
    ),
    "jrs-1": (
        PredictorSpec.of("baseline_hybrid"),
        EstimatorSpec.of("jrs", entries=1),
    ),
    "tage-1": (
        PredictorSpec.of("tage", tagged_entries=1),
        EstimatorSpec.of("perceptron", threshold=0),
    ),
}


@pytest.mark.parametrize(
    "predictor, estimator", SINGLE_ENTRY.values(), ids=SINGLE_ENTRY.keys()
)
def test_single_entry_tables_run_fast(adversarial_trace, predictor, estimator):
    """The constructors accept one-entry tables, so the fast path runs
    them, and must match the reference branch for branch."""
    report = run_fastpath_differential(
        adversarial_trace, predictor, estimator, GATING_POLICY
    )
    assert report.ok, report.format()


def _jrs_outcomes(trace):
    job = SimJob(
        benchmark="gzip",
        n_branches=len(trace),
        warmup=0,
        seed=1,
        estimator=EstimatorSpec.of("jrs", threshold=5),
        backend="fast",
    )
    return (
        _replay_trace(job, trace),
        _replay_trace(job.with_(backend="reference"), trace),
    )


def test_changed_constructor_default_moves_the_fast_pass(monkeypatch):
    """The fast pass reads its defaults from the constructor, so both
    backends follow a changed default together."""
    from repro.core.jrs import JRSEstimator

    before, _ = _jrs_outcomes(generate_benchmark_trace("gzip", 5_000, seed=2))
    # Every parameter has a default, so the tuple lines up with them.
    names = list(inspect.signature(JRSEstimator).parameters)
    defaults = list(JRSEstimator.__init__.__defaults__)
    position = names.index("history_length")
    assert defaults[position] == 13
    defaults[position] = 9
    monkeypatch.setattr(JRSEstimator.__init__, "__defaults__", tuple(defaults))
    monkeypatch.setattr(fast_support, "_COMPONENTS", {})
    # A fresh trace object: the pass cache is per trace.
    fast, reference = _jrs_outcomes(generate_benchmark_trace("gzip", 5_000, seed=2))
    assert fast.backend == "fast"
    assert fast.events == reference.events
    assert fast.metrics_digest() == reference.metrics_digest()
    assert fast.events != before.events


@pytest.mark.parametrize("order", [1, -1], ids=["int-first", "float-first"])
def test_support_memo_is_type_exact(monkeypatch, order):
    """Spec equality treats ``10``, ``10.0`` and ``True`` alike; the
    support memo must not, in whichever order it sees them."""
    monkeypatch.setattr(fast_support, "_COMPONENTS", {})
    asked = [
        (EstimatorSpec.of("jrs", history_length=10), True),
        (EstimatorSpec.of("jrs", history_length=10.0), False),
        (EstimatorSpec.of("jrs", enhanced=True), True),
        (EstimatorSpec.of("jrs", enhanced=1), False),
    ]
    assert asked[0][0] == asked[1][0] and hash(asked[0][0]) == hash(asked[1][0])
    assert asked[2][0] == asked[3][0]
    job = SimJob(benchmark="gzip", n_branches=100, warmup=0, seed=1, backend="fast")
    for spec, runs_fast in asked[::order]:
        assert fastpath.supports(job.with_(estimator=spec)) is runs_fast, spec


def test_kind_without_a_fast_pass_is_declined():
    """A registered kind runs fast only when a pass exists for it; the
    reason names the first component the fast path declines."""
    from repro.core.estimator import AlwaysHighEstimator

    @EstimatorSpec.register("fastpath_dummy")
    def _dummy():
        return AlwaysHighEstimator

    try:
        job = SimJob(
            benchmark="gzip", n_branches=200, warmup=0, seed=1,
            estimator=EstimatorSpec.of("fastpath_dummy"), backend="fast",
        )
        assert fastpath.unsupported_reason(job) == "estimator:fastpath_dummy"
        trace = generate_benchmark_trace("gzip", 200, seed=1)
        with pytest.raises(fastpath.FastPathUnsupported):
            fastpath.replay(job, trace)
        assert _replay_trace(job, trace).backend == "reference"
    finally:
        del EstimatorSpec._registry["fastpath_dummy"]


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


@pytest.mark.parametrize("shift", [45, 63, 64])
def test_oversized_pcs_fall_back_at_runtime(shift):
    """Support is spec-level; absurd pcs are only visible per trace.

    pcs at or above ``2**63`` would overflow an int64 column, so the
    fast path must reject them before converting any.
    """
    records = [
        BranchRecord(pc=(1 << shift) + 8 * i, taken=i % 3 != 0)
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


def test_runtime_fallback_is_bit_identical(monkeypatch):
    """A runtime rejection reruns the whole trace on the reference loop.

    The injection rejects the replay's only fast pass; the engine must
    count one runtime fallback and still produce the reference outcome,
    events included.
    """
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        raise fastpath.FastPathUnsupported("injected at runtime")

    def replay(backend):
        job = SimJob(
            benchmark="gzip",
            n_branches=2_000,
            warmup=0,
            seed=11,
            predictor=CASES[0].predictor,
            estimator=CASES[0].estimator,
            policy=CASES[0].policy,
            collect_outputs=True,
            backend=backend,
        )
        return Engine(max_workers=1).replay(job)

    monkeypatch.setattr(fast_driver, "replay_trace", flaky)
    tel = telemetry.enable()
    tel.reset()
    try:
        fast = replay("fast")
        fallbacks = tel.counter(
            "fastpath_fallbacks_total", reason="runtime"
        ).value
    finally:
        telemetry.disable()
        telemetry.reset()
    ref = replay("reference")
    assert canonical_metrics(fast.result) == canonical_metrics(ref.result)
    assert calls["n"] == 1
    assert fallbacks == 1
    assert fast.events == ref.events
    assert fast.backend == "reference"


def test_fast_replay_counts_under_fast_backend():
    """A whole-trace fast replay counts once under ``backend=fast``.

    With telemetry on, the fast path also reports its own work: one
    kernel batch per replay, and a predictor pass that a second
    estimator over the same trace reuses.
    """
    job = SimJob(
        benchmark="gzip",
        n_branches=4_000,
        warmup=1_000,
        seed=11,
        estimator=EstimatorSpec.of("perceptron", threshold=0),
        policy=GATING_POLICY,
        backend="fast",
    )
    tel = telemetry.enable()
    tel.reset()
    try:
        Engine(max_workers=1).run(
            [
                job,
                job.with_(estimator=EstimatorSpec.of("jrs", threshold=7)),
                job.with_(estimator=EstimatorSpec.of("jrs", threshold=3)),
            ]
        )
        snap = tel.snapshot()
    finally:
        telemetry.disable()
        telemetry.reset()
    assert snap.counter_series("engine_replays_total") == {
        "engine_replays_total{backend=fast}": 3
    }
    assert snap.counter_series("fastpath_fallbacks_total") == {}
    assert snap.counter("fastpath_predictor_pass_total", result="miss") == 1
    assert snap.counter("fastpath_predictor_pass_total", result="hit") == 2
    # The JRS λ=3 job reclassifies the λ=7 job's trajectory.
    assert snap.counter("fastpath_estimator_pass_total", result="miss") == 2
    assert snap.counter("fastpath_estimator_pass_total", result="hit") == 1
    assert snap.histograms["fastpath_batch_branches"]["count"] == 3


# -------------------------------------------------------------------------
# Threshold ladders: one estimator pass per trajectory key
# -------------------------------------------------------------------------

#: A cic perceptron with a strong threshold, as in the verify matrix.
_CIC_THREE_REGION = EstimatorSpec.of(
    "perceptron", threshold=-75, strong_threshold=0
)
#: cic thresholds outside ``[-T, T]`` (T = 96) train differently.
_OUT_OF_BAND = (-97, 97, 120)

#: (estimator, policy) of Tables 3 and 4's ladders and their edges.
LADDER = (
    [(EstimatorSpec.of("jrs", threshold=t), GATING_POLICY) for t in (1, 3, 7, 11, 15)]
    + [
        (EstimatorSpec.of("perceptron", threshold=t), GATING_POLICY)
        for t in (-96, -50, -25, 0, 25, 96) + _OUT_OF_BAND
    ]
    + [(_CIC_THREE_REGION, THREE_REGION_POLICY)]
    + [
        (EstimatorSpec.of("perceptron", mode="tnt", threshold=t), NO_POLICY)
        for t in (0, 10, 30)
    ]
)


def _ladder_job(estimator, policy):
    return SimJob(
        benchmark="mcf",
        n_branches=3_000,
        warmup=500,
        seed=7,
        estimator=estimator,
        policy=policy,
        collect_outputs=True,
        backend="fast",
    )


def _reference_replay(job, trace):
    """The reference loop's outcome and final estimator state."""
    estimator = job.estimator.build()
    process = FrontEnd(job.predictor.build(), estimator, job.policy.build()).process
    result = FrontEndResult()
    events = []
    for i, record in enumerate(trace):
        event = process(record)
        if i >= job.warmup:
            aggregate_event(result, event, job.collect_outputs)
            events.append(event)
    outcome = ReplayOutcome(events=FrontEndEvents.of(events), result=result)
    return outcome, estimator.state_canonical()


@pytest.fixture
def counted_estimator_passes(monkeypatch):
    """Specs of every ``run_estimator`` call, a fusion's components
    included, whichever module makes it."""
    calls = []
    real = fast_estimators.run_estimator

    def counting(spec, *args):
        calls.append(spec)
        return real(spec, *args)

    monkeypatch.setattr(fast_driver, "run_estimator", counting)
    monkeypatch.setattr(fast_estimators, "run_estimator", counting)
    return calls


def test_threshold_ladder_matches_reference(counted_estimator_passes):
    """Every rung of a ladder over one trace equals its reference replay,
    and each trajectory key costs exactly one estimator pass."""
    trace = generate_benchmark_trace("mcf", n_branches=3_000, seed=7)
    for estimator, policy in LADDER:
        job = _ladder_job(estimator, policy)
        events, result, _, state = fast_driver.replay_trace(
            job, trace, warmup=job.warmup
        )
        fast = ReplayOutcome(events=events, result=result, backend="fast")
        reference, reference_state = _reference_replay(job, trace)
        label = repr(estimator)
        assert fast.events == reference.events, label
        assert fast.metrics_digest() == reference.metrics_digest(), label
        assert result == reference.result, label
        assert repr(state) == repr(reference_state), label
    keys = [trajectory_key(estimator) for estimator, _ in LADDER]
    assert len(counted_estimator_passes) == len(set(keys)) == 6
    assert sorted(map(trajectory_key, counted_estimator_passes)) == sorted(set(keys))
    for threshold in _OUT_OF_BAND:
        assert EstimatorSpec.of("perceptron", threshold=threshold) in (
            counted_estimator_passes
        )


def test_trajectory_cache_is_per_trace_object(counted_estimator_passes):
    """An equal trace in another object misses: the cache is by identity."""
    job = _ladder_job(EstimatorSpec.of("jrs", threshold=7), GATING_POLICY)
    first = generate_benchmark_trace("mcf", n_branches=1_000, seed=7)
    second = generate_benchmark_trace("mcf", n_branches=1_000, seed=7)
    outcomes = [
        fast_driver.replay_trace(job, trace, warmup=100)
        for trace in (first, first, second)
    ]
    assert len(counted_estimator_passes) == 2
    assert outcomes[0][0] == outcomes[1][0] == outcomes[2][0]


@pytest.mark.parametrize("mode", ["union", "intersection"])
def test_fusion_reclassifies_from_component_trajectories(
    counted_estimator_passes, mode
):
    """A fusion spec replayed under a second policy hits the cache and
    rebuilds its flags from its components' trajectories."""
    trace = generate_benchmark_trace("gcc", n_branches=2_000, seed=4)
    primary = EstimatorSpec.of("perceptron", threshold=-25, strong_threshold=10)
    secondary = EstimatorSpec.of("jrs", threshold=11)
    fusions = [
        EstimatorSpec.of(
            "agreement", primary=primary, secondary=secondary, mode=mode
        ),
        EstimatorSpec.of(
            "cascade", primary=primary, secondary=secondary, neutral_band=40
        ),
    ]
    for estimator in fusions:
        for policy in (GATING_POLICY, THREE_REGION_POLICY):
            job = _ladder_job(estimator, policy)
            events, result, _, state = fast_driver.replay_trace(
                job, trace, warmup=job.warmup
            )
            reference, reference_state = _reference_replay(job, trace)
            assert events == reference.events
            assert canonical_metrics(result) == reference.canonical_metrics()
            assert repr(state) == repr(reference_state)
    assert counted_estimator_passes == [fusions[0], primary, secondary, fusions[1]]


def test_fusion_components_reuse_cached_trajectories(counted_estimator_passes):
    """Fusions over components the trace already replayed train nothing
    again: each trajectory is computed once per trace."""
    trace = generate_benchmark_trace("twolf", n_branches=2_000, seed=3)
    perceptron = EstimatorSpec.of("perceptron", threshold=0)
    jrs = EstimatorSpec.of("jrs", threshold=7)
    estimators = [perceptron, jrs] + [
        EstimatorSpec.of("agreement", primary=perceptron, secondary=jrs, mode=mode)
        for mode in ("intersection", "union")
    ] + [EstimatorSpec.of("cascade", primary=perceptron, secondary=jrs)]
    for estimator in estimators:
        job = _ladder_job(estimator, GATING_POLICY)
        events, result, _, state = fast_driver.replay_trace(
            job, trace, warmup=job.warmup
        )
        reference, reference_state = _reference_replay(job, trace)
        assert events == reference.events, repr(estimator)
        assert canonical_metrics(result) == reference.canonical_metrics()
        assert repr(state) == repr(reference_state)
    assert counted_estimator_passes == estimators
