"""Unit tests for the pipeline timing model."""

from dataclasses import asdict, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.frontend import FrontEndEvent, FrontEndEvents
from repro.core.reversal import BranchAction, PolicyDecision
from repro.core.types import ConfidenceSignal
from repro.pipeline.config import PipelineConfig
from repro.pipeline.simulator import PipelineSimulator
from repro.pipeline.stats import SimStats
from repro.verify.oracles import RefPipelineSimulator


def event(pc=0x40, taken=True, prediction=True, action=BranchAction.NORMAL,
          final=None, uops_before=7, low=False, raw=0.0):
    signal = ConfidenceSignal.weak_low(raw) if low else ConfidenceSignal.high(raw)
    final_prediction = prediction if final is None else final
    if action is BranchAction.REVERSE:
        final_prediction = not prediction
    return FrontEndEvent(
        pc=pc,
        taken=taken,
        prediction=prediction,
        final_prediction=final_prediction,
        signal=signal,
        decision=PolicyDecision(action, final_prediction),
        uops_before=uops_before,
    )


def correct_event(**kw):
    return event(taken=True, prediction=True, **kw)


def mispredicted_event(**kw):
    return event(taken=False, prediction=True, **kw)


def config(**kw):
    defaults = dict(
        fetch_width=4, depth=20, rob_size=128,
        base_uop_cycles=1.0, resolve_jitter=0,
        estimator_latency=1, gating_threshold=1,
    )
    defaults.update(kw)
    return PipelineConfig(**defaults)


class TestBaseline:
    def test_all_correct_runs_at_backend_rate(self):
        sim = PipelineSimulator(config())
        stats = sim.simulate([correct_event() for _ in range(500)])
        assert stats.mispredictions == 0
        assert stats.wrong_path_uops == 0
        # 500 groups x 8 uops at 1 uop/cycle, plus pipeline fill.
        assert stats.total_cycles == pytest.approx(4000, rel=0.05)
        assert stats.uops_per_cycle == pytest.approx(1.0, rel=0.05)

    def test_deterministic(self):
        events = [correct_event() for _ in range(100)]
        a = PipelineSimulator(config()).simulate(iter(events))
        b = PipelineSimulator(config()).simulate(iter(events))
        assert a.total_cycles == b.total_cycles
        assert a.total_uops_executed == b.total_uops_executed

    def test_simulate_resets_state(self):
        sim = PipelineSimulator(config())
        first = sim.simulate([correct_event() for _ in range(50)])
        second = sim.simulate([correct_event() for _ in range(50)])
        assert first.total_cycles == second.total_cycles


class TestMisprediction:
    def test_wrong_path_uops_accounted(self):
        sim = PipelineSimulator(config())
        events = [correct_event() for _ in range(50)]
        events.append(mispredicted_event())
        events += [correct_event() for _ in range(50)]
        stats = sim.simulate(events)
        assert stats.mispredictions == 1
        # Window: depth 20 cycles x width 4 = 80 uops (< cap 128).
        assert 40 <= stats.wrong_path_uops <= 80

    def test_wrong_path_capped_by_window(self):
        sim = PipelineSimulator(config(depth=60, rob_size=100))
        events = [correct_event() for _ in range(30)]
        events.append(mispredicted_event())
        stats = sim.simulate(events)
        assert stats.wrong_path_uops <= 100

    def test_misprediction_costs_cycles_when_window_thin(self):
        # Right after a flush the window is empty, so a clustered second
        # misprediction's refill is visible in the retire stream.
        clean = [correct_event() for _ in range(40)]
        dirty = list(clean)
        dirty[2] = mispredicted_event()
        dirty[4] = mispredicted_event()
        base = PipelineSimulator(config()).simulate(iter(clean))
        hit = PipelineSimulator(config()).simulate(iter(dirty))
        penalty = hit.total_cycles - base.total_cycles
        assert penalty >= 10

    def test_isolated_misprediction_hidden_by_full_backlog(self):
        # In a fully backend-bound phase the window backlog covers the
        # refill: an isolated misprediction costs almost nothing (the
        # classic low-IPC hiding effect; wasted *uops* are still paid).
        clean = [correct_event() for _ in range(400)]
        dirty = list(clean)
        dirty[200] = mispredicted_event()
        base = PipelineSimulator(config()).simulate(iter(clean))
        hit = PipelineSimulator(config()).simulate(iter(dirty))
        penalty = hit.total_cycles - base.total_cycles
        assert penalty < 10
        assert hit.wrong_path_uops > 0

    def test_deeper_pipe_wastes_more(self):
        events = [correct_event() for _ in range(20)]
        events.append(mispredicted_event())
        shallow = PipelineSimulator(config(depth=10)).simulate(iter(events))
        deep = PipelineSimulator(config(depth=30)).simulate(iter(events))
        assert deep.wrong_path_uops > shallow.wrong_path_uops

    def test_wider_machine_wastes_more(self):
        events = [correct_event() for _ in range(20)]
        events.append(mispredicted_event())
        narrow = PipelineSimulator(config(fetch_width=4)).simulate(iter(events))
        wide = PipelineSimulator(config(fetch_width=8)).simulate(iter(events))
        assert wide.wrong_path_uops > narrow.wrong_path_uops

    def test_raw_vs_final_mispredictions(self):
        # A correcting reversal removes the episode entirely.
        sim = PipelineSimulator(config())
        events = [correct_event() for _ in range(10)]
        events.append(
            event(taken=False, prediction=True, action=BranchAction.REVERSE)
        )
        stats = sim.simulate(events)
        assert stats.raw_mispredictions == 1
        assert stats.mispredictions == 0
        assert stats.wrong_path_uops == 0
        assert stats.reversals_correcting == 1

    def test_breaking_reversal_creates_episode(self):
        sim = PipelineSimulator(config())
        events = [correct_event() for _ in range(10)]
        events.append(
            event(taken=True, prediction=True, action=BranchAction.REVERSE)
        )
        stats = sim.simulate(events)
        assert stats.raw_mispredictions == 0
        assert stats.mispredictions == 1
        assert stats.reversals_breaking == 1
        assert stats.wrong_path_uops > 0


class TestGating:
    def test_gating_cuts_wrong_path(self):
        # A mispredicted branch flagged low confidence: wrong-path fetch
        # must stop once the estimate activates.
        cfg = config(estimator_latency=2)
        gated = [correct_event() for _ in range(30)]
        gated.append(mispredicted_event(action=BranchAction.GATE, low=True))
        ungated = [correct_event() for _ in range(30)]
        ungated.append(mispredicted_event())
        g = PipelineSimulator(cfg).simulate(iter(gated))
        u = PipelineSimulator(cfg).simulate(iter(ungated))
        assert g.wrong_path_uops < u.wrong_path_uops / 2
        assert g.wrong_path_uops_saved > 0

    def test_latency_admits_more_wrong_path(self):
        def run(latency):
            cfg = config(estimator_latency=latency)
            events = [correct_event() for _ in range(30)]
            events.append(mispredicted_event(action=BranchAction.GATE, low=True))
            return PipelineSimulator(cfg).simulate(iter(events))

        assert run(9).wrong_path_uops > run(1).wrong_path_uops

    def test_false_flag_stall_absorbed_when_window_full(self):
        # Steady stream with a full window: a single gated (but correct)
        # branch must cost almost nothing -- the backlog hides it.
        base_events = [correct_event() for _ in range(400)]
        gated_events = list(base_events)
        gated_events[200] = correct_event(action=BranchAction.GATE, low=True)
        base = PipelineSimulator(config()).simulate(iter(base_events))
        gated = PipelineSimulator(config()).simulate(iter(gated_events))
        loss = (gated.total_cycles - base.total_cycles) / base.total_cycles
        assert loss < 0.01
        assert gated.gated_cycles > 0

    def test_gating_threshold_requires_multiple(self):
        # PL2: one low-confidence branch in flight must not stall fetch.
        cfg = config(gating_threshold=2)
        events = [correct_event() for _ in range(50)]
        events.append(correct_event(action=BranchAction.GATE, low=True))
        events += [correct_event() for _ in range(50)]
        stats = PipelineSimulator(cfg).simulate(iter(events))
        assert stats.gated_cycles == 0

    def test_back_to_back_low_confidence_triggers_pl2(self):
        cfg = config(gating_threshold=2)
        events = [correct_event() for _ in range(50)]
        events.append(correct_event(action=BranchAction.GATE, low=True, uops_before=0))
        events.append(correct_event(action=BranchAction.GATE, low=True, uops_before=0))
        events += [correct_event(uops_before=0) for _ in range(20)]
        stats = PipelineSimulator(cfg).simulate(iter(events))
        assert stats.gated_cycles > 0

    def test_gating_leaves_correct_path_uops_unchanged(self, gzip_trace):
        """Gating delays fetch; it never adds or drops correct-path work."""
        from repro.core.estimator import AlwaysHighEstimator
        from repro.core.frontend import FrontEnd
        from repro.core.perceptron_estimator import PerceptronConfidenceEstimator
        from repro.core.reversal import GatingOnlyPolicy
        from repro.pipeline.config import BASELINE_40X4
        from repro.predictors.hybrid import make_baseline_hybrid

        machine = BASELINE_40X4.with_gating(1)

        def run(estimator, policy=None):
            frontend = FrontEnd(make_baseline_hybrid(), estimator, policy)
            events = [frontend.process(r) for r in gzip_trace][4000:]
            return PipelineSimulator(machine).simulate(iter(events))

        base = run(AlwaysHighEstimator())
        gated = run(
            PerceptronConfidenceEstimator(threshold=-25), GatingOnlyPolicy()
        )
        assert gated.gated_cycles > 0
        assert gated.correct_path_uops == base.correct_path_uops

    def test_gated_branch_counter(self):
        events = [correct_event(action=BranchAction.GATE, low=True)
                  for _ in range(5)]
        stats = PipelineSimulator(config()).simulate(iter(events))
        assert stats.gated_branches == 5


class TestStats:
    def test_table2_metric(self):
        events = [correct_event() for _ in range(100)]
        events.append(mispredicted_event())
        stats = PipelineSimulator(config()).simulate(iter(events))
        expected = 100.0 * stats.wrong_path_uops / stats.correct_path_uops
        assert stats.wrong_path_increase == pytest.approx(expected)

    def test_mispredicts_per_kuop(self):
        events = [correct_event() for _ in range(124)]
        events.append(mispredicted_event())
        stats = PipelineSimulator(config()).simulate(iter(events))
        assert stats.mispredicts_per_kuop == pytest.approx(1.0, rel=0.01)

    def test_as_dict_keys(self):
        stats = PipelineSimulator(config()).simulate(
            [correct_event() for _ in range(10)]
        )
        d = stats.as_dict()
        for key in ("branches", "total_uops_executed", "total_cycles"):
            assert key in d

    def test_cost_vs_base(self):
        # U: % fewer uops executed than the base; P: % more cycles.
        base = SimStats(
            correct_path_uops=900, wrong_path_uops=100, total_cycles=400.0
        )
        gated = SimStats(
            correct_path_uops=900, wrong_path_uops=25, total_cycles=410.0
        )
        assert gated.cost_vs(base) == (7.5, 2.5)
        assert base.cost_vs(base) == (0.0, 0.0)


class TestThrottleMode:
    def test_throttle_config_validation(self):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            config(gating_mode="bogus")
        with _pytest.raises(ValueError):
            config(gating_mode="throttle", throttle_factor=1.0)

    def test_throttle_keeps_fetch_flowing(self):
        # A gated-but-correct stretch: throttle charges throttled cycles
        # and never full stalls.
        cfg = config(gating_mode="throttle", throttle_factor=0.5)
        events = [correct_event() for _ in range(30)]
        events.append(correct_event(action=BranchAction.GATE, low=True))
        events += [correct_event() for _ in range(30)]
        stats = PipelineSimulator(cfg).simulate(iter(events))
        assert stats.gated_cycles == 0
        assert stats.throttled_cycles > 0

    def test_throttle_saves_less_wrong_path_than_stall(self):
        def run(mode):
            cfg = config(gating_mode=mode, throttle_factor=0.5)
            events = [correct_event() for _ in range(30)]
            events.append(
                mispredicted_event(action=BranchAction.GATE, low=True)
            )
            return PipelineSimulator(cfg).simulate(iter(events))

        stall = run("stall")
        throttle = run("throttle")
        assert throttle.wrong_path_uops > stall.wrong_path_uops
        assert throttle.wrong_path_uops_saved < stall.wrong_path_uops_saved

    def test_throttle_cheaper_on_false_flags(self):
        # Dense false flags: the stall machine pays, the throttle
        # machine mostly keeps up.
        def run(mode):
            cfg = config(gating_mode=mode, throttle_factor=0.5)
            events = []
            for i in range(300):
                gated = i % 4 == 0
                events.append(
                    correct_event(
                        action=BranchAction.GATE if gated else BranchAction.NORMAL,
                        low=gated,
                    )
                )
            return PipelineSimulator(cfg).simulate(iter(events))

        stall = run("stall")
        throttle = run("throttle")
        assert throttle.total_cycles <= stall.total_cycles


# ---------------------------------------------------------------------------
# Property tests: random event streams under random valid machines
# ---------------------------------------------------------------------------

_ALL_ACTIONS = (BranchAction.NORMAL, BranchAction.GATE, BranchAction.REVERSE)
_UNGATED_ACTIONS = (BranchAction.NORMAL, BranchAction.REVERSE)


#: A wide pc: bits 31-46 (the top of what the jitter hash sees) set to
#: 0xA5A5, and bits at and above 2**64 that it must drop.
_WIDE_PC = (3 << 64) | (0xA5A5 << 31) | 0x400

#: Loop-like pcs, plus pcs at and above 2**47 and 2**64: the jitter
#: sees only ``pc mod 2**47``, so a delay column that overflows or
#: masks the wrong bits moves the resolve times.
_PCS = st.one_of(
    st.integers(0, 63).map(lambda k: 0x400 + 4 * k),
    st.integers(1 << 47, 1 << 72),
)


def _streams(actions, max_size=120):
    """Event streams: (pc, taken, prediction, action, uops_before) rows.

    ``prediction != taken`` is a raw misprediction; a ``REVERSE`` row
    follows the other direction, so it corrects or breaks one.
    """
    row = st.tuples(
        _PCS,
        st.booleans(),
        st.booleans(),
        st.sampled_from(actions),
        st.integers(0, 30),
    )
    return st.lists(row, max_size=max_size).map(
        lambda rows: [
            event(
                pc=pc,
                taken=taken,
                prediction=prediction,
                action=action,
                uops_before=uops_before,
                low=action is not BranchAction.NORMAL,
            )
            for pc, taken, prediction, action, uops_before in rows
        ]
    )


@st.composite
def _machines(draw):
    fetch_width = draw(st.sampled_from([1, 2, 4, 8]))
    depth = draw(st.integers(2, 40))
    return PipelineConfig(
        fetch_width=fetch_width,
        depth=depth,
        rob_size=draw(
            st.one_of(st.just(fetch_width), st.integers(fetch_width, 160))
        ),
        base_uop_cycles=draw(st.sampled_from([0, 0.0, 0.5, 0.8, 1.0, 1.6, 2.5])),
        resolve_jitter=draw(st.integers(0, 8)),
        estimator_latency=draw(
            st.one_of(st.integers(0, 9), st.integers(depth + 1, depth + 60))
        ),
        gating_threshold=draw(st.integers(1, 3)),
        gating_mode=draw(st.sampled_from(PipelineConfig.GATING_MODES)),
        throttle_factor=draw(st.sampled_from([0.0, 0.25, 0.5, 0.75])),
    )


def _exact(stats):
    """Every field with its type, floats bit for bit."""
    return {
        name: (type(value), value.hex() if isinstance(value, float) else value)
        for name, value in asdict(stats).items()
    }


def _flagged_stream(pc_base=0x400):
    """Mispredicts, gates and reversals, dense enough to fill the window."""
    events = []
    for i in range(90):
        action = (BranchAction.NORMAL, BranchAction.GATE,
                  BranchAction.REVERSE)[i % 3 if i % 7 else 1]
        events.append(
            event(
                pc=pc_base + 4 * (i % 11),
                taken=i % 5 != 0,
                prediction=True,
                action=action,
                uops_before=(i * 7) % 31,
                low=action is not BranchAction.NORMAL,
            )
        )
    return events


#: Edge machines the random draw might miss: every one is an example.
_EDGE_MACHINES = (
    config(gating_mode="stall", gating_threshold=2),
    config(gating_mode="throttle", throttle_factor=0.5),
    config(gating_mode="throttle", throttle_factor=0.0),
    config(depth=6, estimator_latency=9),
    config(resolve_jitter=0),
    config(fetch_width=4, rob_size=4),
    config(fetch_width=8, rob_size=8, resolve_jitter=3),
    config(base_uop_cycles=0.0),
    config(base_uop_cycles=0),
)


def _with_edge_examples(test):
    for machine in _EDGE_MACHINES:
        test = example(events=_flagged_stream(), machine=machine)(test)
    # Wide pcs under jitter: only their low 47 bits may reach the hash.
    for pc_base in (1 << 47, _WIDE_PC):
        test = example(
            events=_flagged_stream(pc_base), machine=config(resolve_jitter=8)
        )(test)
    return test


class TestReferenceModel:
    """The loop matches the one-helper-per-question reference exactly."""

    @_with_edge_examples
    @settings(max_examples=300, deadline=None)
    @given(events=_streams(_ALL_ACTIONS), machine=_machines())
    def test_matches_reference_bit_for_bit(self, events, machine):
        ref = RefPipelineSimulator(machine).simulate(events)
        # A list, the column form replays keep, and a one-shot iterator.
        for stream in (events, FrontEndEvents.of(events), iter(events)):
            fast = PipelineSimulator(machine).simulate(stream)
            assert asdict(fast) == asdict(ref)
            assert _exact(fast) == _exact(ref)

    def test_no_misprediction_keeps_int_zero(self):
        stats = PipelineSimulator(config()).simulate(
            [correct_event() for _ in range(20)]
        )
        assert stats.wrong_path_uops == 0
        assert type(stats.wrong_path_uops) is int

    def test_late_estimate_never_gates(self):
        # The branch resolves (depth 6) before its estimate arrives
        # (latency 9), so the LC counter never sees it.
        cfg = config(depth=6, estimator_latency=9)
        events = [mispredicted_event(action=BranchAction.GATE, low=True)]
        events += [correct_event() for _ in range(20)]
        stats = PipelineSimulator(cfg).simulate(events)
        assert stats.gated_branches == 1
        assert stats.gating_stalls == 0
        assert stats.gated_cycles == 0.0


def _tolerance(stats):
    """Rounding slack on ``wrong_path_uops``: 1e-9 uops per misprediction.

    Each episode's wrong-path uops are summed over spans that end at
    every resolution and LC activation, so two runs that split an
    episode at different instants differ in the last bits: the 40c/4w
    machine made 8 wide gives 106240.0 -> 106239.99999999999 on the
    ungated quick-profile mcf stream.  The fetch loop stops 1e-9 cycles
    short of a deadline, so the slack is of that order, not larger.
    """
    return 1e-9 * stats.mispredictions


class TestTimingInvariants:
    """Relations between runs that hold up to rounding."""

    @settings(max_examples=200, deadline=None)
    @given(events=_streams(_ALL_ACTIONS), machine=_machines())
    def test_gating_never_adds_wrong_path_uops(self, events, machine):
        ungated_events = [
            replace(e, decision=PolicyDecision(
                BranchAction.NORMAL, e.decision.final_prediction
            ))
            if e.decision.action is BranchAction.GATE else e
            for e in events
        ]
        gated = PipelineSimulator(machine).simulate(events)
        ungated = PipelineSimulator(machine).simulate(ungated_events)
        assert gated.mispredictions == ungated.mispredictions
        assert (
            gated.wrong_path_uops
            <= ungated.wrong_path_uops + _tolerance(ungated)
        )

    @settings(max_examples=200, deadline=None)
    @given(
        events=_streams(_UNGATED_ACTIONS),
        machine=_machines(),
        knob=st.sampled_from(["fetch_width", "depth", "rob_size"]),
        grow=st.integers(1, 64),
    )
    def test_wrong_path_uops_monotone_in_machine_size(
        self, events, machine, knob, grow
    ):
        changes = {knob: getattr(machine, knob) + grow}
        if knob == "fetch_width":
            # The window must hold a fetch group; growing it too keeps
            # every knob non-decreasing.
            changes["rob_size"] = max(machine.rob_size, changes[knob])
        bigger = replace(machine, **changes)
        small = PipelineSimulator(machine).simulate(events)
        large = PipelineSimulator(bigger).simulate(events)
        assert large.wrong_path_uops >= small.wrong_path_uops - _tolerance(small)
