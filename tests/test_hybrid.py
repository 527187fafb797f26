"""Unit tests for the McFarling combined predictors."""

import pytest

from repro.common.history import GlobalHistoryRegister
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gshare import GSharePredictor
from repro.predictors.hybrid import (
    CombinedPredictor,
    make_baseline_hybrid,
    make_gshare_perceptron_hybrid,
)
from repro.predictors.static import AlwaysNotTakenPredictor, AlwaysTakenPredictor


def tiny_hybrid():
    history = GlobalHistoryRegister(8)
    a = BimodalPredictor(entries=64)
    b = GSharePredictor(entries=256, history_length=8, shared_history=history)
    return CombinedPredictor(a, b, history, meta_entries=64)


class TestChooser:
    def test_moves_to_correct_component(self):
        history = GlobalHistoryRegister(4)
        hybrid = CombinedPredictor(
            AlwaysTakenPredictor(),
            AlwaysNotTakenPredictor(),
            history,
            meta_entries=16,
        )
        pc = 0x40
        # Initial chooser (weakly B) predicts not-taken; branch is taken.
        for _ in range(3):
            hybrid.update(pc, True, hybrid.predict(pc))
        assert hybrid.predict(pc) is True
        assert hybrid.chosen_component(pc).name == "always-taken"

    def test_chooser_untouched_on_agreement(self):
        history = GlobalHistoryRegister(4)
        hybrid = CombinedPredictor(
            AlwaysTakenPredictor(),
            AlwaysTakenPredictor(),
            history,
            meta_entries=16,
        )
        before = hybrid.chosen_component(0x40)
        for _ in range(10):
            hybrid.update(0x40, False, hybrid.predict(0x40))
        assert hybrid.chosen_component(0x40) is before

    def test_per_pc_choice(self):
        history = GlobalHistoryRegister(4)
        hybrid = CombinedPredictor(
            AlwaysTakenPredictor(),
            AlwaysNotTakenPredictor(),
            history,
            meta_entries=16,
        )
        taken_pc, nt_pc = 0x40, 0x44  # distinct meta slots (pc>>2 mod 16)
        for _ in range(3):
            hybrid.update(taken_pc, True, hybrid.predict(taken_pc))
            hybrid.update(nt_pc, False, hybrid.predict(nt_pc))
        assert hybrid.predict(taken_pc) is True
        assert hybrid.predict(nt_pc) is False


class TestSharedHistory:
    def test_history_shifts_once_per_update(self):
        hybrid = tiny_hybrid()
        hybrid.update(0x40, True, hybrid.predict(0x40))
        assert hybrid.history.bits == 0b1
        hybrid.update(0x40, False, hybrid.predict(0x40))
        assert hybrid.history.bits == 0b10

    def test_components_train(self):
        hybrid = tiny_hybrid()
        pc = 0x40
        for _ in range(6):
            hybrid.update(pc, False, hybrid.predict(pc))
        assert hybrid.component_a.predict(pc) is False

    def test_reset(self):
        hybrid = tiny_hybrid()
        for _ in range(6):
            hybrid.update(0x40, False, hybrid.predict(0x40))
        hybrid.reset()
        assert hybrid.history.bits == 0
        assert hybrid.stats.predictions == 0


class TestPaperConfigurations:
    def test_baseline_hybrid_components(self):
        hybrid = make_baseline_hybrid()
        assert hybrid.name == "bimodal-gshare-hybrid"
        assert isinstance(hybrid.component_a, BimodalPredictor)
        assert isinstance(hybrid.component_b, GSharePredictor)

    def test_baseline_storage_matches_table1_scale(self):
        # 16K bimodal (4KB) + 64K gshare (16KB) + 64K meta (16KB).
        hybrid = make_baseline_hybrid()
        assert hybrid.storage_bits == (16384 + 65536 + 65536) * 2

    def test_gshare_perceptron_hybrid_learns(self, simple_trace):
        hybrid = make_gshare_perceptron_hybrid()
        for rec in simple_trace:
            hybrid.update(rec.pc, rec.taken, hybrid.predict(rec.pc))
        assert hybrid.stats.accuracy > 0.85

    def test_better_predictor_beats_baseline_on_history_workload(self):
        """The perceptron hybrid's longer history must win on a workload
        with correlations beyond gshare's reach (the Section 5.2 premise)."""
        from repro.trace.behaviors import BiasedBehavior, CorrelatedBehavior
        from repro.trace.generator import StaticBranch, TraceGenerator, WorkloadSpec

        branches = [
            StaticBranch(pc=0x400000 + 52 * i, behavior=BiasedBehavior(0.5))
            for i in range(6)
        ]
        branches.append(
            StaticBranch(
                pc=0x400000 + 52 * 6,
                behavior=CorrelatedBehavior((15,), noise=0.0),
                weight=3.0,
            )
        )
        spec = WorkloadSpec(
            name="far", branches=branches, block_size=1, block_repeat_mean=1.0
        )
        trace = TraceGenerator(spec, seed=5).generate(20_000)
        base = make_baseline_hybrid()  # 10-bit gshare history
        better = make_gshare_perceptron_hybrid(perceptron_history=24)
        for rec in trace:
            base.update(rec.pc, rec.taken, base.predict(rec.pc))
            better.update(rec.pc, rec.taken, better.predict(rec.pc))
        assert better.stats.accuracy > base.stats.accuracy
