"""Unit tests for the predictor family (bimodal, gshare, local, static)."""

import pytest

from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gshare import GSharePredictor
from repro.predictors.local import LocalPredictor
from repro.predictors.static import AlwaysNotTakenPredictor, AlwaysTakenPredictor


class TestStaticPredictors:
    def test_always_taken(self):
        p = AlwaysTakenPredictor()
        assert p.predict(0x1234)
        p.update(0x1234, False, True)
        assert p.predict(0x1234)  # a misprediction teaches it nothing
        assert p.storage_bits == 0

    def test_always_not_taken(self):
        p = AlwaysNotTakenPredictor()
        assert not p.predict(0x1234)
        p.update(0x1234, True, False)
        assert not p.predict(0x1234)


class TestBimodal:
    def test_learns_bias(self):
        p = BimodalPredictor(entries=64)
        pc = 0x400000
        for _ in range(4):
            p.update(pc, False, p.predict(pc))
        assert p.predict(pc) is False

    def test_hysteresis(self):
        p = BimodalPredictor(entries=64)
        pc = 0x400000
        for _ in range(4):
            p.update(pc, True, p.predict(pc))
        # One contrary outcome must not flip a saturated counter.
        p.update(pc, False, p.predict(pc))
        assert p.predict(pc) is True

    def test_update_derives_prediction_when_missing(self):
        p = BimodalPredictor(entries=64)
        p.update(0x40, False)
        # The counter at slot (0x40 >> 2) % 64 trains from weakly taken.
        assert p.state_canonical()[1][16] == 1
        assert p.predict(0x40) is False

    def test_aliasing(self):
        p = BimodalPredictor(entries=16)
        pc_a = 0x400000
        pc_b = pc_a + 16 * 4  # same index after pc>>2 mod 16
        for _ in range(4):
            p.update(pc_a, True, p.predict(pc_a))
        assert p.predict(pc_b) is True

    def test_confidence_hint_range(self):
        p = BimodalPredictor(entries=16)
        hint = p.confidence_hint(0x40)
        assert hint is not None and 0.0 <= hint <= 1.0
        for _ in range(4):
            p.update(0x40, True, p.predict(0x40))
        assert p.confidence_hint(0x40) == pytest.approx(1.0)

    def test_storage(self):
        assert BimodalPredictor(entries=16384).storage_bits == 32768


class TestGShare:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            GSharePredictor(entries=1000)

    def test_learns_history_correlation(self):
        p = GSharePredictor(entries=1024, history_length=4)
        pc = 0x400000
        # Outcome = history bit 1; drive history via updates.
        wrong = 0
        for i in range(400):
            taken = bool((p.history.bits >> 1) & 1)
            pred = p.predict(pc)
            if i > 100 and pred != taken:
                wrong += 1
            p.update(pc, taken, pred)
        assert wrong < 15

    def test_context_separation(self):
        p = GSharePredictor(entries=1024, history_length=2)
        pc = 0x400000

        def set_history(taken):
            # Two pushes replace the whole 2-bit register.
            p.history.push(taken)
            p.history.push(taken)

        # Same pc, different history contexts learn different outcomes.
        set_history(False)
        for _ in range(3):
            p.train(pc, True, p.predict(pc))
        set_history(True)
        for _ in range(3):
            p.train(pc, False, p.predict(pc))
        set_history(False)
        assert p.predict(pc) is True
        set_history(True)
        assert p.predict(pc) is False

    def test_shared_history_not_shifted(self):
        from repro.common.history import GlobalHistoryRegister

        ghr = GlobalHistoryRegister(8)
        p = GSharePredictor(entries=256, history_length=8, shared_history=ghr)
        p.update(0x40, True, p.predict(0x40))
        assert ghr.bits == 0  # owner shifts, not the component

    def test_own_history_shifts(self):
        p = GSharePredictor(entries=256, history_length=8)
        p.update(0x40, True, p.predict(0x40))
        assert p.history.bits == 1

    def test_shared_history_too_short_rejected(self):
        from repro.common.history import GlobalHistoryRegister

        with pytest.raises(ValueError):
            GSharePredictor(
                entries=256, history_length=10,
                shared_history=GlobalHistoryRegister(4),
            )

    def test_storage(self):
        assert GSharePredictor(entries=65536).storage_bits == 131072


class TestLocal:
    def test_learns_local_pattern(self):
        p = LocalPredictor(history_entries=64, history_length=6)
        pc = 0x400000
        pattern = [True, True, False]
        wrong = 0
        for i in range(600):
            taken = pattern[i % 3]
            pred = p.predict(pc)
            if i > 200 and pred != taken:
                wrong += 1
            p.update(pc, taken, pred)
        assert wrong < 20

    def test_local_pattern_exposed(self):
        p = LocalPredictor(history_entries=64, history_length=4)
        pc = 0x40
        for taken in (True, False, True):
            p.update(pc, taken, p.predict(pc))
        assert p.local_pattern(pc) == 0b101

    def test_storage_counts_both_levels(self):
        p = LocalPredictor(history_entries=2048, history_length=10)
        assert p.storage_bits == 2048 * 10 + (1 << 10) * 2
