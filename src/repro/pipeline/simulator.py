"""Branch-granularity pipeline timing model.

The simulator replays front-end event streams
(:class:`repro.core.frontend.FrontEndEvents`) through a parametric
out-of-order machine and accounts the two quantities every experiment
in the paper reports: **uops executed** (correct-path plus wrong-path)
and **cycles** (the retire-stream completion time).

Two clocks drive the model:

- the **fetch clock** advances at ``fetch_width`` uops/cycle, pauses
  for pipeline-gating stalls (Figure 1) and for instruction-window
  (ROB) back-pressure, and jumps forward on misprediction recovery;
- the **retire clock** advances at the back-end's sustained rate
  (``1 / base_uop_cycles``) but can never run ahead of
  ``fetch time + depth`` for the uops being retired.

This split captures the effect the paper's conclusions rest on: the
front end normally runs far ahead of the back end, so a fetch stall on
a *correctly predicted* low-confidence branch is mostly absorbed by the
buffered backlog (small P), while the stall still keeps wrong-path uops
out of the machine when the branch was *mispredicted* (large U).
Performance loss emerges only when stalls starve the back end -- e.g.
right after a misprediction flush, when the window is empty.

Mechanisms modelled explicitly:

- **wrong-path fetch**: a branch mispredicted (after any reversal) at
  fetch time ``t`` resolves around ``t + depth``; wrong-path uops are
  fetched at full width until resolution, bounded by free window
  capacity and cut short by gating;
- **pipeline gating**: branches the policy marks ``GATE`` raise the
  low-confidence counter once their estimate is available
  (``estimator_latency`` after fetch) and lower it at resolution;
  fetch stalls while the counter is at or above the threshold;
- **branch reversal**: a correcting reversal eliminates the whole
  misprediction episode; a breaking reversal creates one;
- **misprediction recovery**: fetch restarts at resolution and the
  retire stream pays the refill (``depth``) on the next correct-path
  uops -- the squashed window cannot hide it.

Implementation: :meth:`PipelineSimulator.simulate` is one loop over
local variables.  It reads five columns of a
:class:`repro.core.frontend.FrontEndEvents` (``taken``, ``prediction``,
``final_prediction``, ``action``, ``uops_before``), so it builds no
event object, plus a column of resolution delays that
:meth:`PipelineConfig.resolve_delays` computes from the ``pc`` column
in one vectorised pass before the loop: the jitter does not depend on
the clock.  Fetch proceeds in spans that end at every branch
resolution and every low-confidence (LC) activation, because those are
the instants the LC counter can change.  The in-flight state is a heap
of resolve times, a deque of ``(activation, resolve)`` pairs of LC
branches whose estimate is not yet live (in fetch order, so activation
order), and a heap of the resolve times of live LC branches.  This is
exact because the fetch clock never moves backwards: an LC branch that
resolves before its estimate arrives can be dropped for good, and the
counter is the size of the live heap.
:class:`repro.verify.oracles.RefPipelineSimulator` keeps the same model
written one helper per question, and must agree field for field.

Determinism: resolution jitter is a hash of (pc, sequence number), and
every :meth:`PipelineSimulator.simulate` call starts from a reset
machine, so a given (trace, config, policy) triple always produces
identical statistics.  The hash sees only ``pc mod 2**47`` (see
:meth:`PipelineConfig.resolve_delays`).
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Iterable

from repro import telemetry
from repro.core.frontend import FrontEndEvent, FrontEndEvents
from repro.core.reversal import BranchAction
from repro.pipeline.config import PipelineConfig
from repro.pipeline.stats import SimStats

__all__ = ["PipelineSimulator"]

_INFINITY = float("inf")
_GATE = BranchAction.GATE
_REVERSE = BranchAction.REVERSE


class PipelineSimulator:
    """Replays front-end event streams through the timing model."""

    def __init__(self, config: PipelineConfig):
        self.config = config

    def simulate(self, events: Iterable[FrontEndEvent]) -> SimStats:
        """Replay a front-end event stream from a reset machine.

        ``events`` is a :class:`~repro.core.frontend.FrontEndEvents`,
        whose columns are read as they are, or any iterable of events,
        converted to columns first.  Fetch stalls while the LC counter is at or above the gating
        threshold (or runs at ``throttle_factor`` of full width in
        throttle mode) and, on the correct path, while the window has
        no room for one fetch group.  Gating stall and throttled cycles
        are charged only on the correct path.  Every float is computed
        with the same operands in the same order as the reference
        model, so the statistics match it bit for bit.
        """
        events = FrontEndEvents.of(events)
        cfg = self.config
        fetch_width = cfg.fetch_width
        width = float(fetch_width)
        depth = cfg.depth
        rob = cfg.rob_size
        cap = float(cfg.wrong_path_cap)
        uop_cycles = cfg.base_uop_cycles
        latency = cfg.estimator_latency
        threshold = cfg.gating_threshold
        per_uop = 1.0 / fetch_width
        throttling = cfg.gating_mode == "throttle" and cfg.throttle_factor > 0
        throttled_per_uop = (
            per_uop / cfg.throttle_factor if throttling else _INFINITY
        )

        # In-flight branches.  Both heaps keep an infinite sentinel, so
        # ``[0]`` is always readable and ``len(live) - 1`` is the LC
        # counter.
        resolves = [_INFINITY]  # resolve times of every in-flight branch
        pending = deque()  # (activation, resolve) of LC branches, not yet live
        live = [_INFINITY]  # resolve times of LC branches with live estimates
        # Window: (retire time, uops) per correct-path group, oldest first.
        retiring = deque()
        fetched_uops = 0.0
        retired_uops = 0.0

        fetch = 0.0
        retire = 0.0
        correct_path_uops = 0
        # Stays int 0 until a misprediction adds a float: SimStats
        # digests hash JSON, where 0 and 0.0 differ.
        wrong_path_uops = 0
        mispredictions = 0
        raw_mispredictions = 0
        reversals = 0
        reversals_correcting = 0
        reversals_breaking = 0
        gated_branches = 0
        gated_cycles = 0.0
        throttled_cycles = 0.0
        squash_cycles = 0.0
        gating_stalls = 0
        wrong_path_uops_saved = 0.0

        with telemetry.trace_span("pipeline.simulate", machine=cfg.label()):
            delays = cfg.resolve_delays(events.pc)
            for delay, taken, prediction, final_prediction, action, uops_before in zip(
                delays,
                events.taken,
                events.prediction,
                events.final_prediction,
                events.action,
                events.uops_before,
            ):
                uops = uops_before + 1
                group_uops = float(uops)

                # Correct-path fetch of the branch's group.
                t = fetch
                budget = group_uops
                stalled = False
                while budget > 1e-9:
                    while resolves[0] <= t:
                        heappop(resolves)
                    while pending:
                        activation, resolve = pending[0]
                        if resolve <= t:
                            pending.popleft()
                        elif activation <= t:
                            pending.popleft()
                            heappush(live, resolve)
                        else:
                            break
                    while live[0] <= t:
                        heappop(live)
                    gated = len(live) > threshold
                    if gated:
                        if not throttling:
                            resume = live[0]
                            if not stalled:
                                gating_stalls += 1
                                stalled = True
                            gated_cycles += resume - t
                            t = resume
                            continue
                        step = throttled_per_uop
                    else:
                        step = per_uop
                    stalled = False
                    # Window back-pressure: wait for one fetch group of room.
                    need = width if width < budget else budget
                    while retiring and retiring[0][0] <= t:
                        retired_uops += retiring.popleft()[1]
                    free = rob - (fetched_uops - retired_uops)
                    if free < need and retiring:
                        # Step through retirements until the group fits,
                        # then look at the LC counter again.
                        while free < need and retiring:
                            t = retiring[0][0]
                            while retiring and retiring[0][0] <= t:
                                retired_uops += retiring.popleft()[1]
                            free = rob - (fetched_uops - retired_uops)
                        continue
                    step_end = t + budget * step
                    next_event = resolves[0]
                    if pending and pending[0][0] < next_event:
                        next_event = pending[0][0]
                    if next_event < step_end:
                        step_end = next_event
                    if step_end <= t:
                        break
                    span = (step_end - t) / step
                    if budget < span:
                        span = budget
                    if span > free:
                        span = free
                        step_end = t + span * step
                    if span <= 1e-9:
                        # Window full of this group alone: the rest of
                        # it never fits.
                        if not retiring:
                            break
                        t = retiring[0][0]
                        continue
                    fetched_uops += span
                    if gated:
                        throttled_cycles += step_end - t
                    budget -= span
                    t = step_end
                correct_path_uops += uops

                t_fetch = t
                # An int delay rounds exactly as ``float(delay)`` would.
                t_resolve = t_fetch + delay
                heappush(resolves, t_resolve)
                if action is _GATE:
                    gated_branches += 1
                    pending.append((t_fetch + latency, t_resolve))
                predictor_correct = prediction == taken
                final_correct = final_prediction == taken
                if not predictor_correct:
                    raw_mispredictions += 1
                if action is _REVERSE:
                    reversals += 1
                    if not predictor_correct and final_correct:
                        reversals_correcting += 1
                    elif predictor_correct and not final_correct:
                        reversals_breaking += 1

                backend = retire + uops * uop_cycles
                floor = t_fetch + depth
                if floor > backend:
                    backend = floor
                if final_correct:
                    fetch = t_fetch
                    retire = backend
                    retiring.append((retire, group_uops))
                    continue

                # Wrong-path fetch from the branch until it resolves:
                # full width, at most ``cap`` uops.  No window check:
                # over the tens of cycles to resolution, slots recycle
                # fast enough that live occupancy does not bind
                # (DESIGN.md substitution note 2).
                mispredictions += 1
                budget = cap
                fetched = 0.0
                stalled = False
                while budget > 1e-9 and t < t_resolve - 1e-9:
                    while resolves[0] <= t:
                        heappop(resolves)
                    while pending:
                        activation, resolve = pending[0]
                        if resolve <= t:
                            pending.popleft()
                        elif activation <= t:
                            pending.popleft()
                            heappush(live, resolve)
                        else:
                            break
                    while live[0] <= t:
                        heappop(live)
                    if len(live) > threshold:
                        if not throttling:
                            resume = live[0]
                            if t_resolve < resume:
                                resume = t_resolve
                            if not stalled:
                                gating_stalls += 1
                                stalled = True
                            t = resume
                            continue
                        step = throttled_per_uop
                    else:
                        step = per_uop
                    stalled = False
                    step_end = t + budget * step
                    if t_resolve < step_end:
                        step_end = t_resolve
                    if resolves[0] < step_end:
                        step_end = resolves[0]
                    if pending and pending[0][0] < step_end:
                        step_end = pending[0][0]
                    if step_end <= t:
                        break
                    span = (step_end - t) / step
                    if budget < span:
                        span = budget
                    fetched += span
                    budget -= span
                    t = step_end
                potential = (t_resolve - t_fetch) * fetch_width
                if cap < potential:
                    potential = cap
                wrong_path_uops += fetched
                if potential - fetched > 0.0:
                    wrong_path_uops_saved += potential - fetched

                # Recovery: fetch restarts at resolution; the branch
                # group cannot retire before it resolved, which makes
                # the refill visible in the retire stream.
                squash_cycles += t_resolve - t_fetch
                fetch = t_resolve
                retire = t_resolve if t_resolve > backend else backend
                retiring.append((retire, group_uops))

        result = SimStats(
            correct_path_uops=correct_path_uops,
            wrong_path_uops=wrong_path_uops,
            branches=len(events),
            mispredictions=mispredictions,
            raw_mispredictions=raw_mispredictions,
            reversals=reversals,
            reversals_correcting=reversals_correcting,
            reversals_breaking=reversals_breaking,
            gated_branches=gated_branches,
            total_cycles=retire,
            gated_cycles=gated_cycles,
            throttled_cycles=throttled_cycles,
            squash_cycles=squash_cycles,
            gating_stalls=gating_stalls,
            wrong_path_uops_saved=wrong_path_uops_saved,
        )
        tel = telemetry.get_registry()
        if tel.enabled:
            buckets = telemetry.COUNT_BUCKETS
            tel.counter("pipeline_simulations_total").inc()
            tel.histogram(
                "pipeline_wrong_path_uops", buckets=buckets
            ).observe(result.wrong_path_uops)
            tel.histogram(
                "pipeline_gating_stalls", buckets=buckets
            ).observe(result.gating_stalls)
            tel.histogram(
                "pipeline_reversal_recoveries", buckets=buckets
            ).observe(result.reversals_correcting)
            tel.counter(
                "pipeline_reversals_total", kind="correcting"
            ).inc(result.reversals_correcting)
            tel.counter(
                "pipeline_reversals_total", kind="breaking"
            ).inc(result.reversals_breaking)
        return result
