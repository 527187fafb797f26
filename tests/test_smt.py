"""Unit tests for the SMT fetch-sharing model (extension)."""

import random
from dataclasses import asdict

import pytest

from repro.core.frontend import FrontEndEvent, FrontEndEvents
from repro.core.reversal import BranchAction, PolicyDecision
from repro.core.types import ConfidenceLevel, ConfidenceSignal
from repro.pipeline.config import BASELINE_40X4, PipelineConfig
from repro.pipeline.smt import SmtSimulator


def event(pc=0x40, mispredicted=False, gated=False, uops_before=7):
    signal = (
        ConfidenceSignal.weak_low(1.0) if gated else ConfidenceSignal.high(0.0)
    )
    action = BranchAction.GATE if gated else BranchAction.NORMAL
    return FrontEndEvent(
        pc=pc,
        taken=not mispredicted,
        prediction=True,
        final_prediction=True,
        signal=signal,
        decision=PolicyDecision(action, True),
        uops_before=uops_before,
    )


def stream(n, mispredict_every=0, gate_mispredicts=False):
    events = []
    for i in range(n):
        mis = mispredict_every and (i % mispredict_every == mispredict_every - 1)
        events.append(
            event(mispredicted=bool(mis), gated=bool(mis and gate_mispredicts))
        )
    return events


def config(**kw):
    defaults = dict(
        fetch_width=4, depth=20, rob_size=128, base_uop_cycles=1.0,
        resolve_jitter=0, estimator_latency=1, gating_threshold=1,
    )
    defaults.update(kw)
    return PipelineConfig(**defaults)


class TestBasicOperation:
    def test_clean_pair_shares_bandwidth(self):
        sim = SmtSimulator(config(), gate_yields=False)
        stats = sim.simulate(stream(300), stream(300))
        assert stats.combined_wrong_path_uops == 0
        # Both threads progress (ICOUNT alternates).
        assert stats.threads[0].correct_uops > 0
        assert stats.threads[1].correct_uops > 0
        assert stats.throughput > 1.0

    def test_stops_at_first_completion(self):
        sim = SmtSimulator(config(), gate_yields=False)
        stats = sim.simulate(stream(50), stream(5000))
        assert stats.threads[0].branches <= 50
        # The long thread is still mid-stream at measurement end.
        assert stats.threads[1].branches < 5000

    def test_deterministic(self):
        a = SmtSimulator(config(), gate_yields=True).simulate(
            stream(200, 10, True), stream(200)
        )
        b = SmtSimulator(config(), gate_yields=True).simulate(
            stream(200, 10, True), stream(200)
        )
        assert a.total_cycles == b.total_cycles
        assert a.combined_correct_uops == b.combined_correct_uops

    def test_max_cycles_cap(self):
        sim = SmtSimulator(config(), gate_yields=False)
        stats = sim.simulate(stream(10_000), stream(10_000), max_cycles=100)
        assert stats.total_cycles == 100


class TestSpeculationControl:
    def test_wrong_path_burns_slots_in_baseline(self):
        sim = SmtSimulator(config(), gate_yields=False)
        stats = sim.simulate(stream(400, mispredict_every=5), stream(400))
        assert stats.threads[0].wrong_path_uops > 0

    def test_gating_diverts_slots_to_sibling(self):
        dirty = stream(400, mispredict_every=5, gate_mispredicts=True)
        clean = stream(4000)
        base = SmtSimulator(config(), gate_yields=False).simulate(dirty, clean)
        ctrl = SmtSimulator(config(), gate_yields=True).simulate(dirty, clean)
        # Confidence-directed fetch wastes less and helps the sibling.
        assert ctrl.wasted_fraction < base.wasted_fraction
        assert ctrl.threads[1].correct_uops >= base.threads[1].correct_uops

    def test_gated_cycles_counted(self):
        dirty = stream(200, mispredict_every=4, gate_mispredicts=True)
        stats = SmtSimulator(config(), gate_yields=True).simulate(
            dirty, stream(2000)
        )
        assert stats.threads[0].gated_cycles > 0

    def test_no_gating_when_disabled(self):
        dirty = stream(200, mispredict_every=4, gate_mispredicts=True)
        stats = SmtSimulator(config(), gate_yields=False).simulate(
            dirty, stream(2000)
        )
        assert stats.threads[0].gated_cycles == 0


class TestStats:
    def test_throughput_definition(self):
        stats = SmtSimulator(config(), gate_yields=False).simulate(
            stream(100), stream(100)
        )
        assert stats.throughput == pytest.approx(
            stats.combined_correct_uops / stats.total_cycles
        )

    def test_wasted_fraction_bounds(self):
        stats = SmtSimulator(config(), gate_yields=False).simulate(
            stream(300, mispredict_every=6), stream(300, mispredict_every=6)
        )
        assert 0.0 < stats.wasted_fraction < 1.0


def fixed_stream(seed, n=3000, mispredict=0.08, gate=0.6):
    """A seeded stream: 64 statics, random gaps, gating mostly on mispredicts."""
    rng = random.Random(seed)
    pcs = [0x40_0000 + 24 * i for i in range(64)]
    columns = {
        name: []
        for name in (
            "pc", "taken", "prediction", "final_prediction",
            "action", "level", "raw", "uops_before",
        )
    }
    for _ in range(n):
        taken = rng.random() < 0.6
        mis = rng.random() < mispredict
        gated = rng.random() < (gate if mis else 0.05)
        columns["pc"].append(rng.choice(pcs))
        columns["taken"].append(taken)
        columns["prediction"].append(taken != mis)
        columns["final_prediction"].append(taken != mis)
        columns["action"].append(
            BranchAction.GATE if gated else BranchAction.NORMAL
        )
        columns["level"].append(
            ConfidenceLevel.WEAK_LOW if gated else ConfidenceLevel.HIGH
        )
        columns["raw"].append(1.0 if gated else 0.0)
        columns["uops_before"].append(rng.randrange(13))
    return FrontEndEvents(**columns)


def _hexed(value):
    """``asdict`` output with every float as ``float.hex()``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _hexed(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_hexed(v) for v in value]
    return value


#: ``(gate_yields, mode) -> asdict(SmtStats)`` on the fixed streams
#: below, recorded before the heap-based resolve bookkeeping; ints and
#: floats are told apart (a float ``finished_at`` would fail).
PINNED_SMT_STATS = {
    (True, "pair"): {
        "threads": [
            {"correct_uops": 20795, "wrong_path_uops": "0x1.5ec0000000000p+13",
             "branches": 3000, "mispredictions": 225, "gated_cycles": 12688,
             "recovery_cycles": 9641, "finished_at": 28587},
            {"correct_uops": 17270, "wrong_path_uops": "0x1.46b0000000000p+15",
             "branches": 2512, "mispredictions": 384, "gated_cycles": 9369,
             "recovery_cycles": 16507, "finished_at": 28587},
        ],
        "total_cycles": "0x1.beac000000000p+14",
        "idle_fetch_cycles": 5580,
    },
    (True, "single"): {
        "threads": [
            {"correct_uops": 20795, "wrong_path_uops": "0x1.b280000000000p+13",
             "branches": 3000, "mispredictions": 225, "gated_cycles": 12688,
             "recovery_cycles": 9641, "finished_at": 21447},
        ],
        "total_cycles": "0x1.4f1c000000000p+14",
        "idle_fetch_cycles": 12688,
    },
    (False, "pair"): {
        "threads": [
            {"correct_uops": 20795, "wrong_path_uops": "0x1.e390000000000p+14",
             "branches": 3000, "mispredictions": 225, "gated_cycles": 0,
             "recovery_cycles": 9641, "finished_at": 30674},
            {"correct_uops": 17525, "wrong_path_uops": "0x1.9a20000000000p+15",
             "branches": 2548, "mispredictions": 391, "gated_cycles": 0,
             "recovery_cycles": 16818, "finished_at": 30674},
        ],
        "total_cycles": "0x1.df48000000000p+14",
        "idle_fetch_cycles": 0,
    },
    (False, "single"): {
        "threads": [
            {"correct_uops": 20795, "wrong_path_uops": "0x1.2d48000000000p+15",
             "branches": 3000, "mispredictions": 225, "gated_cycles": 0,
             "recovery_cycles": 9641, "finished_at": 14924},
        ],
        "total_cycles": "0x1.d260000000000p+13",
        "idle_fetch_cycles": 0,
    },
}


class TestPinnedStats:
    """Every ``SmtStats`` field, bit for bit, on two seeded streams."""

    @pytest.mark.parametrize(
        "gate_yields, mode", sorted(PINNED_SMT_STATS), ids=lambda v: str(v)
    )
    def test_stats(self, gate_yields, mode):
        first = fixed_stream(1)
        second = fixed_stream(2, mispredict=0.15, gate=0.3)
        sim = SmtSimulator(BASELINE_40X4.with_gating(1), gate_yields=gate_yields)
        stats = sim.simulate(first, second if mode == "pair" else None)
        assert _hexed(asdict(stats)) == PINNED_SMT_STATS[(gate_yields, mode)]
