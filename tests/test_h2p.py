"""H2P workload family and per-branch predictability analysis tests."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.branches import (
    TAXONOMY_CLASSES,
    BranchProfile,
    classify_taxonomy,
    direction_entropy,
    profile_events,
    profile_records,
)
from repro.trace.benchmarks import generate_benchmark_trace
from repro.trace.h2p import (
    H2P_PROFILE_NAMES,
    H2PBranch,
    H2PProfile,
    build_h2p_workload,
    h2p_profile,
    h2p_record_stream,
    is_h2p_benchmark,
)


class TestProfileRegistry:
    def test_family_names(self):
        assert H2P_PROFILE_NAMES == tuple(sorted(H2P_PROFILE_NAMES))
        assert len(H2P_PROFILE_NAMES) >= 4
        for name in H2P_PROFILE_NAMES:
            assert is_h2p_benchmark(name)
            profile = h2p_profile(name)
            assert isinstance(profile, H2PProfile)
            assert profile.name == name
            assert profile.branches

    def test_unknown_profile_rejected(self):
        with pytest.raises(KeyError):
            h2p_profile("h2p.nope")
        assert not is_h2p_benchmark("gzip")

    def test_branch_validation(self):
        with pytest.raises(ValueError):
            H2PBranch(cls="biased", predictability=1.5)
        with pytest.raises(ValueError):
            H2PBranch(cls="sideways", predictability=0.9)
        with pytest.raises(ValueError):
            H2PBranch(cls="loop", predictability=0.9, weight=0.0)

    def test_workloads_build_and_are_deterministic(self):
        for name in H2P_PROFILE_NAMES:
            spec_a = build_h2p_workload(h2p_profile(name), seed=5)
            spec_b = build_h2p_workload(h2p_profile(name), seed=5)
            pcs = [b.pc for b in spec_a.branches]
            assert pcs == [b.pc for b in spec_b.branches]
            assert len(pcs) == len(set(pcs)), "static pcs must be distinct"


class TestFamilyShape:
    """The family's defining property: few statics, hot and hard."""

    def test_few_statics_high_dynamic_share(self):
        for name in H2P_PROFILE_NAMES:
            trace = generate_benchmark_trace(name, n_branches=8_000, seed=2)
            summary = profile_records(trace)
            assert len(summary.profiles) <= 16, name
            hottest = max(p.executions for p in summary.profiles)
            assert hottest / len(trace) >= 0.10, name

    def test_streams_match_generated_prefix(self):
        for name in H2P_PROFILE_NAMES:
            trace = generate_benchmark_trace(name, n_branches=600, seed=9)
            stream = list(itertools.islice(h2p_record_stream(name, seed=9), 600))
            assert [(r.pc, r.taken) for r in stream] == [
                (r.pc, r.taken) for r in trace
            ]

    def test_h2p_pcs_disjoint_from_spec_benchmarks(self):
        h2p_pcs = set()
        for name in H2P_PROFILE_NAMES:
            spec = build_h2p_workload(h2p_profile(name))
            h2p_pcs.update(b.pc for b in spec.branches)
        gzip_pcs = {r.pc for r in generate_benchmark_trace("gzip", 2_000, seed=1)}
        assert not (h2p_pcs & gzip_pcs)

    def test_experiment_settings_accept_h2p_names(self):
        from repro.experiments.common import ExperimentSettings

        settings_ = ExperimentSettings(benchmarks=("h2p.mix", "gzip"))
        assert "h2p.mix" in settings_.benchmarks
        with pytest.raises(ValueError):
            ExperimentSettings(benchmarks=("h2p.bogus",))


class TestDirectionEntropy:
    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    def test_bounded_and_permutation_invariant(self, taken, not_taken):
        e = direction_entropy(taken, not_taken)
        assert 0.0 <= e <= 1.0
        assert e == direction_entropy(not_taken, taken)

    @given(st.integers(0, 10_000))
    def test_constant_direction_is_zero(self, n):
        assert direction_entropy(n, 0) == 0.0
        assert direction_entropy(0, n) == 0.0

    @given(st.integers(1, 10_000))
    def test_balanced_is_maximal(self, n):
        assert direction_entropy(n, n) == pytest.approx(1.0)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            direction_entropy(-1, 3)


class TestTaxonomy:
    def test_classes_cover_spectrum(self):
        total = 100_000
        hot = total // 10
        constant = BranchProfile(pc=0x10, executions=hot, taken=hot)
        biased = BranchProfile(pc=0x20, executions=hot, taken=int(hot * 0.97))
        # Balanced directions but well-predicted: mixed, not H2P.
        mixed = BranchProfile(
            pc=0x30,
            executions=hot,
            taken=hot // 2,
            mispredicts=int(hot * 0.01),
        )
        h2p = BranchProfile(
            pc=0x40,
            executions=hot,
            taken=hot // 2,
            mispredicts=int(hot * 0.3),
        )
        assert classify_taxonomy(constant, total) == "constant"
        assert classify_taxonomy(biased, total) == "biased"
        assert classify_taxonomy(mixed, total) == "mixed"
        assert classify_taxonomy(h2p, total) == "h2p"
        for profile in (constant, biased, mixed, h2p):
            assert classify_taxonomy(profile, total) in TAXONOMY_CLASSES

    def test_cold_random_branch_is_not_h2p(self):
        cold = BranchProfile(pc=0x50, executions=10, taken=5, mispredicts=5)
        assert classify_taxonomy(cold, 1_000_000) == "mixed"

    def test_noisy_profile_surfaces_h2p_statics(self):
        from repro.core.frontend import FrontEnd
        from repro.engine.specs import EstimatorSpec, PredictorSpec

        trace = generate_benchmark_trace("h2p.noisy", n_branches=12_000, seed=3)
        frontend = FrontEnd(
            PredictorSpec.of("baseline_hybrid").build(),
            EstimatorSpec.of("perceptron", threshold=0).build(),
        )
        events = [frontend.process(r) for r in trace]
        summary = profile_events(events[2_000:])
        assert summary.h2p_branches(), "noisy family must expose H2P statics"
        labels = {row["taxonomy"] for row in summary.rows()}
        assert labels <= set(TAXONOMY_CLASSES)

    def test_profile_records_counts(self):
        trace = generate_benchmark_trace("h2p.hotloop", n_branches=2_000, seed=1)
        summary = profile_records(trace)
        assert summary.total_executions == 2_000
        assert sum(p.executions for p in summary.profiles) == 2_000
        for profile in summary.profiles:
            assert profile.mispredicts is None
            assert 0.0 <= profile.entropy <= 1.0
