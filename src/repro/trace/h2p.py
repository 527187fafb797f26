"""Hard-to-predict (H2P) branch workload family.

The Table 2 profiles are calibrated to *aggregate* misprediction rates,
but the H2P literature ("Branch Prediction Is Not a Solved Problem",
Bullseye) shows the interesting action concentrates in a handful of
static branches with huge dynamic execution counts and low
predictability.  This module provides that regime directly: each H2P
profile is a *small* static population (a dozen branches or so) where a
few designated H2P statics soak up most of the dynamic executions and
carry a *tunable* per-branch predictability knob.

Profiles are named ``h2p.<variant>`` and plug into the same dispatch
point as the Table 2 benchmarks (``generate_benchmark_trace``), so
every downstream layer -- the engine trace cache, replay, sweeps --
works on H2P workloads unchanged.

The ``predictability`` knob of an :class:`H2PBranch` is the *ceiling*
accuracy an ideal predictor of the branch's class could reach:

- ``random`` statics toss a coin with ``P(taken) = predictability``
  (so no predictor can beat ``max(p, 1-p)``);
- ``hidden`` statics copy a far history tap (beyond the 2004 hybrid's
  reach, within TAGE's) with probability ``predictability``;
- ``loop`` statics exit every ``trips`` executions where ``trips`` is
  derived from ``predictability`` (exits are the 1/trips hard events);
- ``biased`` statics are taken with probability ``predictability``
  (the nearly-free filler real programs are made of).

Per-branch predictability / entropy / taxonomy *measurements* live in
:mod:`repro.analysis.branches`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

from repro.common.rng import derive_seed
from repro.trace.behaviors import (
    BiasedBehavior,
    BranchBehavior,
    HiddenCorrelationBehavior,
    LoopBehavior,
    RandomBehavior,
)
from repro.trace.generator import StaticBranch, TraceGenerator, WorkloadSpec
from repro.trace.record import BranchRecord

__all__ = [
    "H2P_PREFIX",
    "H2P_PROFILE_NAMES",
    "H2PBranch",
    "H2PProfile",
    "build_h2p_workload",
    "h2p_profile",
    "h2p_record_stream",
    "is_h2p_benchmark",
]

#: Benchmark-name prefix that routes to this family.
H2P_PREFIX = "h2p."

#: Behaviour classes an H2P static can draw from.
_CLASSES = ("biased", "random", "hidden", "loop")

#: Address regions per class, disjoint from the Table 2 regions
#: (0x0040_0000 +) so mixed experiments never alias statics.
_H2P_PC_BASE = {
    "biased": 0x0080_0000,
    "random": 0x0081_0000,
    "hidden": 0x0082_0000,
    "loop": 0x0083_0000,
}
_H2P_PC_STRIDE = 0x40

#: Far history taps used by hidden statics: beyond the baseline
#: hybrid's 10-branch reach, inside TAGE's 40-branch longest table.
_HIDDEN_TAPS = (17, 23, 29, 37)


@dataclass(frozen=True)
class H2PBranch:
    """One static branch in an H2P profile.

    Attributes:
        cls: Behaviour class (``biased``/``random``/``hidden``/``loop``).
        predictability: Ceiling accuracy knob in [0, 1] (see module
            docstring for the per-class meaning).
        weight: Relative dynamic execution frequency.
    """

    cls: str
    predictability: float
    weight: float = 1.0

    def __post_init__(self):
        if self.cls not in _CLASSES:
            raise ValueError(
                f"unknown H2P class {self.cls!r}; expected one of {_CLASSES}"
            )
        if not 0.0 <= self.predictability <= 1.0:
            raise ValueError(
                f"predictability must be in [0, 1], got {self.predictability}"
            )
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")


@dataclass(frozen=True)
class H2PProfile:
    """A named H2P static population.

    Attributes:
        name: Full benchmark name (``h2p.<variant>``).
        branches: The static population, hottest H2P statics included.
        uops_per_branch: Mean uops per dynamic branch.
        block_size: Statics grouped per basic-block-like unit.
    """

    name: str
    branches: Tuple[H2PBranch, ...]
    uops_per_branch: float = 8.0
    block_size: int = 2

    def __post_init__(self):
        if not self.name.startswith(H2P_PREFIX):
            raise ValueError(
                f"H2P profile names must start with {H2P_PREFIX!r}, "
                f"got {self.name!r}"
            )
        if not self.branches:
            raise ValueError(f"{self.name}: profile has no branches")


def _filler(count: int, predictability: float, weight: float) -> tuple:
    """Biased filler statics alternating taken/not-taken polarity."""
    return tuple(
        H2PBranch(
            "biased",
            predictability if i % 2 == 0 else 1.0 - predictability,
            weight,
        )
        for i in range(count)
    )


# ---------------------------------------------------------------------------
# The checked-in profile variants.  Weights make the designated H2P
# statics dominate the dynamic stream: few statics, huge dynamic
# counts, exactly the concentration the taxonomy papers describe.
# ---------------------------------------------------------------------------

_PROFILES: Dict[str, H2PProfile] = {}


def _register(profile: H2PProfile) -> H2PProfile:
    if profile.name in _PROFILES:
        raise ValueError(f"duplicate H2P profile {profile.name!r}")
    _PROFILES[profile.name] = profile
    return profile


_register(
    H2PProfile(
        name="h2p.hotloop",
        # Two hot long-trip loops: every exit is a guaranteed hybrid
        # mispredict, yet perfectly identifiable from history.
        branches=(
            H2PBranch("loop", 12 / 13, weight=8.0),
            H2PBranch("loop", 18 / 19, weight=6.0),
            *_filler(4, 0.98, weight=1.0),
        ),
    )
)

_register(
    H2PProfile(
        name="h2p.correlated",
        # Hidden far-tap correlation: unlearnable inside a 10-branch
        # history, learnable inside 40 -- the hybrid-vs-TAGE gap.
        branches=(
            H2PBranch("hidden", 0.97, weight=8.0),
            H2PBranch("hidden", 0.93, weight=6.0),
            H2PBranch("hidden", 0.90, weight=4.0),
            *_filler(4, 0.99, weight=1.0),
        ),
    )
)

_register(
    H2PProfile(
        name="h2p.noisy",
        # Data-dependent coin flips at graded predictability ceilings:
        # no predictor helps, only confidence estimation can.
        branches=(
            H2PBranch("random", 0.55, weight=8.0),
            H2PBranch("random", 0.65, weight=6.0),
            H2PBranch("random", 0.75, weight=4.0),
            H2PBranch("random", 0.85, weight=2.0),
            *_filler(4, 0.995, weight=1.0),
        ),
    )
)

_register(
    H2PProfile(
        name="h2p.mix",
        # One of everything: the composite stress profile the sweep
        # reports on.
        branches=(
            H2PBranch("loop", 14 / 15, weight=6.0),
            H2PBranch("hidden", 0.95, weight=6.0),
            H2PBranch("random", 0.60, weight=5.0),
            H2PBranch("random", 0.80, weight=3.0),
            *_filler(6, 0.99, weight=1.0),
        ),
    )
)

H2P_PROFILE_NAMES: Tuple[str, ...] = tuple(sorted(_PROFILES))


def is_h2p_benchmark(name: str) -> bool:
    """True for benchmark names this family resolves."""
    return name.startswith(H2P_PREFIX)


def h2p_profile(name: str) -> H2PProfile:
    """Return the registered H2P profile for ``name``."""
    try:
        return _PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown H2P profile {name!r}; expected one of "
            f"{H2P_PROFILE_NAMES}"
        ) from None


def _behavior(branch: H2PBranch, ordinal: int) -> BranchBehavior:
    p = branch.predictability
    if branch.cls == "biased":
        return BiasedBehavior(p)
    if branch.cls == "random":
        return RandomBehavior(p)
    if branch.cls == "hidden":
        tap = _HIDDEN_TAPS[ordinal % len(_HIDDEN_TAPS)]
        return HiddenCorrelationBehavior(
            far_tap=tap,
            second_tap=min(tap + 4, 39),
            flip_prob=p,
            noise=0.0,
            invert=bool(ordinal % 2),
            bias_direction=bool((ordinal // 2) % 2),
        )
    # loop: ceiling accuracy of an exit-blind predictor on a fixed
    # trips-iteration loop is trips/(trips+1); invert the knob.
    trips = max(2, int(round(p / (1.0 - p))) if p < 1.0 else 64)
    return LoopBehavior(trips, trips)


def build_h2p_workload(profile: H2PProfile, seed: int = 0) -> WorkloadSpec:
    """Materialise an H2P profile into a static branch population.

    Deterministic in (profile, seed); per-class ordinals keep hidden
    taps and loop phases distinct between same-class statics.
    """
    branches = []
    ordinals = {cls: 0 for cls in _CLASSES}
    for branch in profile.branches:
        ordinal = ordinals[branch.cls]
        ordinals[branch.cls] = ordinal + 1
        branches.append(
            StaticBranch(
                pc=_H2P_PC_BASE[branch.cls] + _H2P_PC_STRIDE * ordinal,
                behavior=_behavior(branch, ordinal),
                weight=branch.weight,
            )
        )
    return WorkloadSpec(
        name=profile.name,
        branches=branches,
        uops_per_branch=profile.uops_per_branch,
        block_size=profile.block_size,
    )


def h2p_record_stream(name: str, seed: int = 0) -> Iterator[BranchRecord]:
    """Unbounded lazy record stream for one H2P profile.

    Shares the seed derivation of
    :func:`~repro.trace.benchmarks.generate_benchmark_trace`, so the
    first ``n`` records equal ``generate_benchmark_trace(name, n, seed)``
    -- the same length-stable prefix contract as the Table 2 benchmarks.
    """
    profile = h2p_profile(name)
    spec = build_h2p_workload(profile, seed=seed)
    generator = TraceGenerator(spec, seed=derive_seed(seed, "trace", name))
    return generator.iter_records()
