"""Pipeline machine parameters.

The paper evaluates three machines (Table 2): a 20-cycle 4-wide
pipeline, a 20-cycle 8-wide pipeline, and the baseline aggressive
40-cycle 4-wide pipeline of Table 1 (128-entry ROB).  The parameters
here are the ones the paper's U/P results actually depend on; cache and
functional-unit detail is folded into ``base_uop_cycles`` (see
DESIGN.md substitution note 2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence

import numpy as np

from repro.common.bits import mix_hash_u64

__all__ = [
    "PipelineConfig",
    "STANDARD_20X4",
    "WIDE_20X8",
    "BASELINE_40X4",
    "DEEP_40X4",
    "PIPELINE_PRESETS",
]

#: The jitter hashes ``(pc << 17) ^ seq`` modulo 2**64, so it sees only
#: the low 47 bits of a pc.
_PC_MASK = (1 << 47) - 1


@dataclass(frozen=True)
class PipelineConfig:
    """Parameters of the timing model.

    Attributes:
        fetch_width: Uops fetched per cycle (4 or 8 in the paper).
        depth: Front-end-to-execute pipeline length in cycles; a
            mispredicted branch fetched at cycle t resolves around
            ``t + depth``, which is both the wrong-path fetch window
            and the refill penalty.
        rob_size: Reorder-buffer capacity in uops; caps how many
            wrong-path uops can enter before the window fills
            (Table 1: 128).
        base_uop_cycles: Sustained back-end cost per uop in cycles --
            the cache/execution-port bottleneck folded to a scalar.
            The retire stream advances at ``1 / base_uop_cycles`` uops
            per cycle when not starved; fetch runs at ``fetch_width``,
            so the front end normally builds up the window backlog
            that hides gating stalls.
        resolve_jitter: Largest extra resolution latency in cycles: a
            deterministic per-branch jitter in ``[0, resolve_jitter]``
            (a hash of pc and sequence number, modulo
            ``resolve_jitter + 1``; see :meth:`resolve_delays`) is
            added to ``depth``, standing in for scheduler and memory
            variability.  It is one-sided, so the mean latency is about
            ``depth + resolve_jitter / 2``.
        estimator_latency: Cycles from fetching a branch to its
            confidence estimate being usable by the gating logic
            (Section 5.4.2: 9-cycle pipelined perceptron vs ideal 1).
        gating_threshold: Unresolved low-confidence branches needed to
            stall fetch (PLn in Table 4); ignored when the policy never
            gates.
        gating_mode: ``"stall"`` halts fetch entirely while the
            low-confidence counter is at/above threshold (the paper's
            pipeline gating, Figure 1); ``"throttle"`` instead fetches
            at ``throttle_factor`` of full width -- the gentler
            mechanism Manne et al. [10] evaluated alongside gating.
        throttle_factor: Fraction of fetch bandwidth kept while
            throttled (only used in throttle mode).
    """

    GATING_MODES = ("stall", "throttle")

    fetch_width: int = 4
    depth: int = 40
    rob_size: int = 128
    base_uop_cycles: float = 1.6
    resolve_jitter: int = 8
    estimator_latency: int = 1
    gating_threshold: int = 1
    gating_mode: str = "stall"
    throttle_factor: float = 0.5

    def __post_init__(self):
        if self.fetch_width < 1:
            raise ValueError(f"fetch_width must be >= 1, got {self.fetch_width}")
        if self.depth < 2:
            raise ValueError(f"depth must be >= 2, got {self.depth}")
        if self.rob_size < self.fetch_width:
            raise ValueError(
                f"rob_size ({self.rob_size}) must be >= fetch_width "
                f"({self.fetch_width})"
            )
        if self.base_uop_cycles < 0:
            raise ValueError(
                f"base_uop_cycles must be >= 0, got {self.base_uop_cycles}"
            )
        if self.resolve_jitter < 0:
            raise ValueError(
                f"resolve_jitter must be >= 0, got {self.resolve_jitter}"
            )
        if self.estimator_latency < 0:
            raise ValueError(
                f"estimator_latency must be >= 0, got {self.estimator_latency}"
            )
        if self.gating_threshold < 1:
            raise ValueError(
                f"gating_threshold must be >= 1, got {self.gating_threshold}"
            )
        if self.gating_mode not in self.GATING_MODES:
            raise ValueError(
                f"gating_mode must be one of {self.GATING_MODES}, "
                f"got {self.gating_mode!r}"
            )
        if not 0.0 <= self.throttle_factor < 1.0:
            raise ValueError(
                f"throttle_factor must be in [0, 1), got {self.throttle_factor}"
            )

    @property
    def wrong_path_cap(self) -> int:
        """Maximum wrong-path uops one misprediction can inject.

        Bounded by the instruction window: once the ROB fills with
        wrong-path uops behind the unresolved branch, fetch stalls on
        its own.
        """
        return self.rob_size

    def resolve_delays(self, pcs: Sequence[int], first_seq: int = 0) -> List[int]:
        """Resolution latency, in cycles, of each branch of a stream.

        The branch at ``pcs[i]`` has sequence number ``first_seq + i``
        and resolves ``depth + mix_hash((pc << 17) ^ seq) %
        (resolve_jitter + 1)`` cycles after its fetch; one vectorised
        :func:`~repro.common.bits.mix_hash_u64` pass computes the whole
        column.  The hash input is taken modulo 2**64, so the rule sees
        only ``pc mod 2**47``: wider pcs, which recorded traces may
        hold, are reduced before the uint64 conversion.  Without
        jitter every delay is ``depth`` and nothing is hashed.
        """
        if not self.resolve_jitter:
            return [self.depth] * len(pcs)
        u64 = np.uint64
        try:
            column = np.array(pcs, dtype=u64)
        except OverflowError:
            column = np.array([pc & _PC_MASK for pc in pcs], dtype=u64)
        seqs = np.arange(first_seq, first_seq + len(column), dtype=u64)
        jitter = mix_hash_u64((column << u64(17)) ^ seqs) % u64(
            self.resolve_jitter + 1
        )
        return (jitter + u64(self.depth)).tolist()

    def with_gating(
        self, threshold: int, estimator_latency: int = None
    ) -> "PipelineConfig":
        """Copy with a different gating threshold (and latency)."""
        kwargs = {"gating_threshold": threshold}
        if estimator_latency is not None:
            kwargs["estimator_latency"] = estimator_latency
        return replace(self, **kwargs)

    def label(self) -> str:
        """Short machine label, e.g. ``40c/4w``."""
        return f"{self.depth}c/{self.fetch_width}w"


#: 20-cycle 4-wide machine (Table 2, first pipeline column).
STANDARD_20X4 = PipelineConfig(fetch_width=4, depth=20, rob_size=128,
                               resolve_jitter=4)

#: 20-cycle 8-wide machine (Table 2 / Figure 9).
WIDE_20X8 = PipelineConfig(fetch_width=8, depth=20, rob_size=128,
                           base_uop_cycles=0.80, resolve_jitter=4)

#: The paper's baseline: aggressive 40-cycle 4-wide pipeline (Table 1).
BASELINE_40X4 = PipelineConfig(fetch_width=4, depth=40, rob_size=128,
                               resolve_jitter=8)

#: Alias used by experiment code for readability.
DEEP_40X4 = BASELINE_40X4

PIPELINE_PRESETS = {
    "20c4w": STANDARD_20X4,
    "20c8w": WIDE_20X8,
    "40c4w": BASELINE_40X4,
}
