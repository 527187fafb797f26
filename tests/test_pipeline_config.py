"""Unit tests for repro.pipeline.config."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.common.bits import mix_hash
from repro.pipeline import config as config_module
from repro.pipeline.config import (
    BASELINE_40X4,
    PIPELINE_PRESETS,
    STANDARD_20X4,
    WIDE_20X8,
    PipelineConfig,
)


class TestValidation:
    def test_defaults_valid(self):
        cfg = PipelineConfig()
        assert cfg.depth == 40
        assert cfg.fetch_width == 4

    def test_bounds(self):
        with pytest.raises(ValueError):
            PipelineConfig(fetch_width=0)
        with pytest.raises(ValueError):
            PipelineConfig(depth=1)
        with pytest.raises(ValueError):
            PipelineConfig(rob_size=2, fetch_width=4)
        with pytest.raises(ValueError):
            PipelineConfig(base_uop_cycles=-1)
        with pytest.raises(ValueError):
            PipelineConfig(resolve_jitter=-1)
        with pytest.raises(ValueError):
            PipelineConfig(estimator_latency=-1)
        with pytest.raises(ValueError):
            PipelineConfig(gating_threshold=0)


class TestDerived:
    def test_wrong_path_cap_is_window(self):
        assert PipelineConfig(rob_size=128).wrong_path_cap == 128

    def test_with_gating(self):
        cfg = BASELINE_40X4.with_gating(3)
        assert cfg.gating_threshold == 3
        assert cfg.depth == BASELINE_40X4.depth
        cfg2 = BASELINE_40X4.with_gating(2, estimator_latency=9)
        assert cfg2.estimator_latency == 9

    def test_label(self):
        assert BASELINE_40X4.label() == "40c/4w"
        assert WIDE_20X8.label() == "20c/8w"

    def test_frozen(self):
        with pytest.raises(Exception):
            BASELINE_40X4.depth = 10


class TestPresets:
    def test_paper_machines(self):
        assert PIPELINE_PRESETS["40c4w"].depth == 40
        assert PIPELINE_PRESETS["20c8w"].fetch_width == 8
        assert PIPELINE_PRESETS["20c4w"].depth == 20

    def test_table1_window(self):
        assert BASELINE_40X4.rob_size == 128

    def test_wide_machine_faster_backend(self):
        assert WIDE_20X8.base_uop_cycles < STANDARD_20X4.base_uop_cycles


#: pcs around the bits the jitter sees: it hashes ``(pc << 17) ^ seq``
#: modulo 2**64, so only ``pc mod 2**47`` matters.
_BOUNDARY_PCS = [
    0, (1 << 47) - 1, 1 << 47, (1 << 64) - 1, 1 << 64, (1 << 80) + 5,
]

#: First sequence numbers of the single-thread model and both SMT threads.
_FIRST_SEQS = [0, 0x55AA + 1, 0x1234 + 1]


class TestResolveDelays:
    """The vectorised delay column equals the per-branch rule."""

    @example(pcs=_BOUNDARY_PCS, first_seq=0x55AA + 1, jitter=8, depth=40)
    @example(pcs=[], first_seq=0, jitter=8, depth=40)
    @given(
        pcs=st.lists(
            st.one_of(
                st.integers(0, 1 << 24),
                st.integers(0, 1 << 72),
                st.sampled_from(_BOUNDARY_PCS),
            ),
            max_size=60,
        ),
        first_seq=st.one_of(st.sampled_from(_FIRST_SEQS), st.integers(0, 1 << 40)),
        jitter=st.integers(0, 16),
        depth=st.integers(2, 60),
    )
    def test_matches_scalar_rule(self, pcs, first_seq, jitter, depth):
        cfg = PipelineConfig(depth=depth, resolve_jitter=jitter)
        delays = cfg.resolve_delays(pcs, first_seq)
        assert delays == [
            depth + mix_hash((pc << 17) ^ (first_seq + i)) % (jitter + 1)
            for i, pc in enumerate(pcs)
        ]
        assert all(type(delay) is int for delay in delays)

    def test_no_jitter_hashes_nothing(self, monkeypatch):
        def refuse(values):
            raise AssertionError("hashed without jitter")

        monkeypatch.setattr(config_module, "mix_hash_u64", refuse)
        cfg = PipelineConfig(depth=12, resolve_jitter=0)
        assert cfg.resolve_delays([0x400, 1 << 70], 0x1234 + 1) == [12, 12]
