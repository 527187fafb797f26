"""SMT fetch-sharing model: speculation control across threads.

The paper's introduction motivates confidence estimation partly through
SMT: wrong-path execution "consumes resources that could have been
allocated to useful work, such as another thread" (citing Luo et al.
[9]).  This module provides that experiment's substrate: a two-thread
SMT front end with shared fetch bandwidth, where a thread whose
unresolved low-confidence branch count reaches the gating threshold
*yields its fetch slots to the other thread* instead of stalling the
machine.

The model is a small cycle-driven loop (unlike the branch-granularity
single-thread simulator): per cycle it picks the fetch thread by an
ICOUNT-like heuristic restricted to non-gated, non-recovering threads,
streams uops from that thread's event stream, and tracks per-thread
wrong-path episodes.  Throughput is combined correct-path uops per
cycle, so converting one thread's wrong-path slots into the other
thread's right-path slots shows up directly.

Branch resolution uses the single-thread model's rule,
:meth:`PipelineConfig.resolve_delays`: each thread computes its whole
column of integer delays once, numbering its branches from its own salt
so the two threads' jitter differs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.frontend import FrontEndEvent, FrontEndEvents
from repro.core.reversal import BranchAction
from repro.pipeline.config import PipelineConfig

__all__ = ["SmtThreadStats", "SmtStats", "SmtSimulator"]

_GATE = BranchAction.GATE


@dataclass
class SmtThreadStats:
    """Per-thread accounting."""

    correct_uops: int = 0
    wrong_path_uops: float = 0.0
    branches: int = 0
    mispredictions: int = 0
    gated_cycles: int = 0
    recovery_cycles: int = 0
    finished_at: float = 0.0


@dataclass
class SmtStats:
    """Combined two-thread results."""

    threads: List[SmtThreadStats] = field(default_factory=list)
    total_cycles: float = 0.0
    idle_fetch_cycles: int = 0

    @property
    def combined_correct_uops(self) -> int:
        return sum(t.correct_uops for t in self.threads)

    @property
    def combined_wrong_path_uops(self) -> float:
        return sum(t.wrong_path_uops for t in self.threads)

    @property
    def throughput(self) -> float:
        """Combined correct-path uops per cycle."""
        if self.total_cycles == 0:
            return 0.0
        return self.combined_correct_uops / self.total_cycles

    @property
    def wasted_fraction(self) -> float:
        """Wrong-path share of all fetched uops."""
        total = self.combined_correct_uops + self.combined_wrong_path_uops
        return self.combined_wrong_path_uops / total if total else 0.0


class _Thread:
    """Mutable per-thread simulation state.

    The events are read as columns, once: the fetch loop indexes them
    per branch, and indexing a :class:`FrontEndEvents` builds an event.
    Branch ``i`` resolves ``delays[i]`` cycles after its fetch; the
    thread's sequence numbers start just after its ``seq_salt``, so
    two threads on one stream draw different jitter.
    """

    def __init__(
        self,
        events: Sequence[FrontEndEvent],
        config: PipelineConfig,
        seq_salt: int,
    ):
        events = FrontEndEvents.of(events)
        self.delays = config.resolve_delays(events.pc, seq_salt + 1)
        self.uops_before = events.uops_before
        self.gates = [action is _GATE for action in events.action]
        self.final_correct = [
            final == taken
            for final, taken in zip(events.final_prediction, events.taken)
        ]
        self.n_events = len(events)
        self.cursor = 0  # next event index
        self.uops_left = self.uops_before[0] + 1 if self.n_events else 0
        # Heap of (resolve_cycle, counts_gating), one per unresolved branch.
        self.inflight: List[tuple] = []
        self.lc_count = 0
        self.recovering_until = -1
        self.wrong_path_until = -1
        self.inflight_uops = 0
        self.stats = SmtThreadStats()

    @property
    def done(self) -> bool:
        return self.cursor >= self.n_events


class SmtSimulator:
    """Two-thread SMT fetch model with confidence-directed sharing.

    Args:
        config: Machine parameters; ``gating_threshold`` is the
            per-thread low-confidence counter threshold, and
            ``fetch_width`` the *shared* per-cycle fetch bandwidth.
        gate_yields: When True (speculation control on), a gated thread
            yields fetch to its sibling; when False, threads share
            bandwidth regardless of confidence (the baseline SMT).
    """

    def __init__(self, config: PipelineConfig, gate_yields: bool = True):
        self.config = config
        self.gate_yields = gate_yields

    # -- per-thread helpers -------------------------------------------------

    def _fetch_cycle(self, thread: _Thread, cycle: int, budget: int) -> None:
        """Consume up to ``budget`` fetch slots for one thread."""
        while budget > 0 and not thread.done:
            if cycle < thread.wrong_path_until:
                # Wrong-path fetch: every slot granted is wasted until
                # the mispredicted branch resolves.
                thread.stats.wrong_path_uops += budget
                return
            take = min(budget, thread.uops_left)
            thread.uops_left -= take
            budget -= take
            thread.stats.correct_uops += take
            if thread.uops_left > 0:
                return
            # The branch at the end of the group is fetched.
            i = thread.cursor
            thread.cursor += 1
            thread.stats.branches += 1
            resolve_cycle = cycle + thread.delays[i]
            counts = thread.gates[i]
            heapq.heappush(thread.inflight, (resolve_cycle, counts))
            if counts:
                thread.lc_count += 1
            if not thread.done:
                thread.uops_left = thread.uops_before[i + 1] + 1
            if not thread.final_correct[i]:
                thread.stats.mispredictions += 1
                thread.wrong_path_until = resolve_cycle
                thread.recovering_until = resolve_cycle
                return

    # -- main loop -----------------------------------------------------------

    def simulate(
        self,
        events_a: Sequence[FrontEndEvent],
        events_b: Optional[Sequence[FrontEndEvent]] = None,
        max_cycles: Optional[int] = None,
    ) -> SmtStats:
        """Run the thread(s) to completion; returns combined stats.

        Omitting ``events_b`` runs a single-thread configuration on the
        same shared-fetch machinery: the lone thread receives the full
        fetch bandwidth every cycle and gating (when ``gate_yields``)
        simply idles the fetch stage.  The verification suite uses this
        to check the SMT arbitration collapses to the single-thread
        model when there is no sibling to arbitrate against.
        """
        cfg = self.config
        gate_yields = self.gate_yields
        threshold = cfg.gating_threshold
        threads = [_Thread(events_a, cfg, 0x55AA)]
        if events_b is not None:
            threads.append(_Thread(events_b, cfg, 0x1234))
        stats = SmtStats(threads=[t.stats for t in threads])
        limit = max_cycles if max_cycles is not None else 100_000_000
        cycle = 0
        # Measure only the window where BOTH threads are live: running to
        # joint completion would let the shorter stream's tail skew the
        # combined-throughput comparison (the standard SMT methodology).
        # Only the thread that fetched in a cycle can finish in it.
        live = not any(t.done for t in threads)
        while live and cycle < limit:
            fetch = None
            for thread in threads:
                inflight = thread.inflight
                while inflight and inflight[0][0] <= cycle:
                    if heapq.heappop(inflight)[1]:
                        thread.lc_count -= 1
                if cycle < thread.recovering_until:
                    thread.stats.recovery_cycles += 1
                # A thread on the wrong path *is* fetchable -- the machine
                # does not know the branch was mispredicted.  Only the
                # confidence signal (when speculation control is on) can
                # divert its slots to the sibling.
                if gate_yields and thread.lc_count >= threshold:
                    thread.stats.gated_cycles += 1
                elif fetch is None or len(inflight) < len(fetch.inflight):
                    # ICOUNT-like choice: fewest unresolved branches, the
                    # first of equals.  Deliberately *no* wrong-path
                    # knowledge here, which is the experiment's point.
                    fetch = thread
            if fetch is None:
                stats.idle_fetch_cycles += 1
            else:
                self._fetch_cycle(fetch, cycle, cfg.fetch_width)
                live = not fetch.done
            cycle += 1
        for thread in threads:
            thread.stats.finished_at = cycle
        stats.total_cycles = float(cycle)
        return stats
