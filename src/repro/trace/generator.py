"""Turning a static branch population into a dynamic trace.

A :class:`WorkloadSpec` describes the *static* program: a set of
branches (each with an address, an outcome behaviour and an execution
weight) and the average uop distance between branches.  The
:class:`TraceGenerator` walks that population, maintaining the actual
global history so history-correlated behaviours see real context, and
emits a :class:`repro.trace.record.Trace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator, List, Tuple

import numpy as np

from repro.common.bits import mask
from repro.common.rng import derive_seed
from repro.trace.behaviors import BranchBehavior
from repro.trace.record import BranchRecord, Trace

__all__ = ["StaticBranch", "WorkloadSpec", "TraceGenerator"]

# History window maintained by the generator; wide enough for any
# estimator in the paper (32 bits) plus hidden-correlation far taps.
_GENERATOR_HISTORY_BITS = 48


@dataclass
class StaticBranch:
    """One static conditional branch in a synthetic program.

    Attributes:
        pc: Branch address; unique within a workload.
        behavior: Outcome model (see :mod:`repro.trace.behaviors`).
        weight: Relative dynamic execution frequency.
    """

    pc: int
    behavior: BranchBehavior
    weight: float = 1.0

    def __post_init__(self):
        if self.pc < 0:
            raise ValueError(f"pc must be non-negative, got {self.pc}")
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")


@dataclass
class WorkloadSpec:
    """Static description of a synthetic program's branch population.

    Attributes:
        name: Workload name used in trace metadata.
        branches: The static branch population.
        uops_per_branch: Mean uops per dynamic branch, including the
            branch uop itself (SPECint-like codes run ~5-10).
        uop_jitter: Half-width of the uniform jitter applied to the
            inter-branch uop gap.
        block_size: Consecutive statics grouped into one basic-block-like
            unit that always executes in order.  Real programs execute
            branches in structured sequences, which is what makes
            global-history contexts *recur* and table predictors
            learnable; ``block_size <= 1`` degenerates to i.i.d.
            selection (useful for adversarial tests).
        block_repeat_mean: Mean geometric repeat count of a selected
            block (inner-loop behaviour).  Higher values lower history
            entropy further.
    """

    name: str
    branches: List[StaticBranch] = field(default_factory=list)
    uops_per_branch: float = 8.0
    uop_jitter: int = 3
    block_size: int = 3
    block_repeat_mean: float = 4.0

    def __post_init__(self):
        if self.uops_per_branch < 1.0:
            raise ValueError(
                f"uops_per_branch must be >= 1, got {self.uops_per_branch}"
            )
        if self.uop_jitter < 0:
            raise ValueError(f"uop_jitter must be >= 0, got {self.uop_jitter}")
        if self.block_size < 0:
            raise ValueError(f"block_size must be >= 0, got {self.block_size}")
        if self.block_repeat_mean < 1.0:
            raise ValueError(
                f"block_repeat_mean must be >= 1, got {self.block_repeat_mean}"
            )
        pcs = [b.pc for b in self.branches]
        if len(pcs) != len(set(pcs)):
            raise ValueError("static branch addresses must be unique")


@dataclass
class _Block:
    """A basic-block-like unit: statics that execute consecutively."""

    members: List[StaticBranch]
    weight: float


class TraceGenerator:
    """Generates dynamic traces from a :class:`WorkloadSpec`.

    The generator walks the static population with program-like
    structure: statics are grouped into basic-block-like units that
    always execute in order, a selected block repeats a geometric
    number of times (inner loops), and a static whose behaviour is a
    :class:`~repro.trace.behaviors.LoopBehavior` emits its *entire*
    loop instance (all back-edge executions through the exit) in one
    visit, as a real tight loop would.  This structure is what makes
    global-history contexts recur, so table-indexed predictors have
    something to learn -- see DESIGN.md substitution note 1.

    The generator is deterministic: the same (spec, seed, length)
    triple always yields an identical trace.  Block selection, outcome
    noise and uop-gap jitter draw from independent streams derived from
    the seed.
    """

    # Safety cap on block repeats; geometric tails beyond this add
    # nothing but pathological run lengths.
    _MAX_REPEATS = 12
    # Draws per batch from the block-selection and uop streams.
    _BATCH = 4096

    def __init__(self, spec: WorkloadSpec, seed: int = 0):
        if not spec.branches:
            raise ValueError("workload has no static branches")
        self.spec = spec
        self.seed = int(seed)
        self._select_rng = np.random.default_rng(derive_seed(seed, "select"))
        self._outcome_rng = np.random.default_rng(derive_seed(seed, "outcome"))
        self._uop_rng = np.random.default_rng(derive_seed(seed, "uops"))
        self._uop_gaps: List[int] = []
        self._uop_pos = 0
        self._history = 0
        self._history_mask = mask(_GENERATOR_HISTORY_BITS)
        self._blocks = self._build_blocks(spec)
        weights = np.array([b.weight for b in self._blocks], dtype=np.float64)
        self._block_weights = weights / weights.sum()
        for branch in spec.branches:
            branch.behavior.reset()

    @staticmethod
    def _build_blocks(spec: WorkloadSpec) -> List["_Block"]:
        from repro.trace.behaviors import LoopBehavior

        size = max(1, spec.block_size)
        blocks: List[_Block] = []
        pending: List[StaticBranch] = []

        def flush():
            if pending:
                # Selection probability must be the *mean* member weight:
                # one visit emits every member once, so a sum-weighted
                # block would overweight its statics by the block size
                # relative to singleton (loop) blocks.
                mean_weight = sum(b.weight for b in pending) / len(pending)
                blocks.append(_Block(list(pending), mean_weight))
                pending.clear()

        for static in spec.branches:
            if isinstance(static.behavior, LoopBehavior):
                # Loops form singleton blocks: one visit emits a whole
                # loop instance, so grouping them would distort the
                # dynamic weights of their blockmates.
                flush()
                mean_trips = (
                    static.behavior.min_trips + static.behavior.max_trips
                ) / 2.0
                blocks.append(_Block([static], static.weight / mean_trips))
                continue
            pending.append(static)
            if len(pending) >= size:
                flush()
        flush()
        return blocks

    @property
    def history(self) -> int:
        """Actual global history maintained by the generator."""
        return self._history

    @property
    def blocks(self) -> List["_Block"]:
        """The basic-block structure derived from the spec."""
        return self._blocks

    def _draw_uop_gap(self) -> int:
        if self._uop_pos == len(self._uop_gaps):
            self._uop_gaps = self._draw_uop_gaps(self._BATCH)
            self._uop_pos = 0
        gap = self._uop_gaps[self._uop_pos]
        self._uop_pos += 1
        return gap

    def _take_uop_gaps(self, count: int) -> List[int]:
        """The next ``count`` gaps, as ``count`` :meth:`_draw_uop_gap` calls.

        Serves what the last batch left first, then draws the rest in
        one call of whole ``_BATCH``-draw batches, and keeps its unused
        tail as the batch :meth:`_draw_uop_gap` continues from.
        """
        gaps = self._uop_gaps[self._uop_pos:]
        if len(gaps) < count:
            batches = -(-(count - len(gaps)) // self._BATCH)
            gaps += self._draw_uop_gaps(batches * self._BATCH)
        self._uop_gaps = gaps[count:]
        self._uop_pos = 0
        del gaps[count:]
        return gaps

    def _draw_uop_gaps(self, count: int) -> List[int]:
        """The next ``count`` inter-branch uop gaps, in stream order.

        One batched ``uniform`` draw consumes the uop stream exactly as
        ``count`` scalar draws do, and ``rint`` rounds half to even as
        ``round`` does, so a gap does not depend on how many of its
        neighbours were drawn with it.
        """
        base = self.spec.uops_per_branch - 1.0  # exclude the branch uop
        jitter = self.spec.uop_jitter
        if jitter:
            gaps = base + self._uop_rng.uniform(-jitter, jitter, size=count)
        else:
            gaps = np.full(count, base)
        return np.maximum(np.rint(gaps), 0.0).astype(np.int64).tolist()

    def _draw_repeats(self) -> int:
        mean = self.spec.block_repeat_mean
        if mean <= 1.0:
            return 1
        draw = int(self._select_rng.geometric(1.0 / mean))
        return min(max(1, draw), self._MAX_REPEATS)

    def _outcomes(self) -> Iterator[Tuple[int, bool]]:
        """The unbounded ``(pc, taken)`` stream: the one emission loop.

        Each visit to a static emits one dynamic branch, except that a
        :class:`~repro.trace.behaviors.LoopBehavior` emits back-edge
        executions until the loop exits (or its trip cap).  Every draw
        from the select and outcome streams happens per block pick or
        per emitted branch (block picks in fixed-size batches), never as
        a function of a target length, and the loop pauses mid-block
        after each yield; uop gaps come from a stream of their own.
        """
        from repro.trace.behaviors import LoopBehavior

        # Each block's members as (pc, behaviour, emissions cap per
        # visit), decided once per static.
        blocks = [
            [
                (
                    static.pc,
                    static.behavior,
                    static.behavior.max_trips + 1
                    if isinstance(static.behavior, LoopBehavior)
                    else 1,
                )
                for static in block.members
            ]
            for block in self._blocks
        ]
        outcome_rng = self._outcome_rng
        history_mask = self._history_mask
        n_blocks = len(blocks)
        picks = []
        pick_pos = 0
        while True:
            if pick_pos >= len(picks):
                picks = self._select_rng.choice(
                    n_blocks, size=self._BATCH, p=self._block_weights
                ).tolist()
                pick_pos = 0
            members = blocks[picks[pick_pos]]
            pick_pos += 1
            for _ in range(self._draw_repeats()):
                for pc, behavior, cap in members:
                    for _ in range(cap):
                        taken = behavior.next_outcome(self._history, outcome_rng)
                        self._history = (
                            (self._history << 1) | (1 if taken else 0)
                        ) & history_mask
                        yield pc, taken
                        if not taken:  # a loop's exit ends its instance
                            break

    def iter_records(self) -> Iterator[BranchRecord]:
        """Lazily yield the generator's record stream, unbounded.

        This is the canonical emission order: :meth:`generate` is
        exactly "collect the first ``n`` records of this stream", so
        prefixes are *length-stable* -- the first ``n`` records are
        identical whatever longer length is eventually drawn.  A
        consumer that takes records one at a time -- e.g.
        ``itertools.islice`` over
        :func:`~repro.trace.h2p.h2p_record_stream` -- therefore holds
        only what it keeps.
        """
        draw_gap = self._draw_uop_gap
        for pc, taken in self._outcomes():
            yield BranchRecord(pc, taken, draw_gap())

    def generate(self, n_branches: int) -> Trace:
        """Generate a trace of ``n_branches`` dynamic branches.

        Equal to the first ``n_branches`` records of
        :meth:`iter_records`, collected as the trace's columns (use the
        stream directly for bounded-memory pipelines).
        """
        if n_branches < 0:
            raise ValueError(f"n_branches must be non-negative, got {n_branches}")
        pcs: List[int] = []
        takens: List[bool] = []
        add_pc = pcs.append
        add_taken = takens.append
        for pc, taken in islice(self._outcomes(), n_branches):
            add_pc(pc)
            add_taken(taken)
        gaps = self._take_uop_gaps(n_branches)
        return Trace.from_columns(
            pcs, takens, gaps, name=self.spec.name, seed=self.seed
        )
