"""Opt-in profiling attribution: per-span costs plus cProfile hotspots.

Two complementary signals, both off unless :func:`enable_profiling` is
called (the ``--profile`` flag on the experiments runner and
``repro.sweeps run``):

1. **Per-span attribution** -- while profiling is enabled, every traced
   span records its CPU time (``cpu_ns``, from ``time.process_time_ns``)
   and allocation delta (``alloc_bytes``, from :mod:`tracemalloc`) and
   feeds a ``span_cpu_seconds`` histogram.  The hooks live in
   :mod:`repro.telemetry.spans` and compile down to one flag check when
   profiling is off, keeping the disabled-overhead guard intact.

2. **Function hotspots** -- :func:`profile_block` wraps a region
   (the engine wraps each ``SimJob`` replay) in :mod:`cProfile` and
   folds the per-function ``(calls, primitive calls, self, cumulative)``
   tuples into a process-wide accumulator.  Worker processes hand their
   accumulator home with :func:`drain_profile` (a plain picklable dict,
   same shape as the metrics-snapshot handoff) and the parent folds it
   in with :func:`merge_profile`, so ``--jobs N`` runs produce one
   merged hotspot table.

:func:`profile_document` distills the accumulator into a
schema-versioned JSON document (top-N by cumulative seconds) that is
persisted into the result store's ``telemetry`` table and consumed by
``python -m repro.telemetry diff``.
"""

from __future__ import annotations

import cProfile
import pstats
import tracemalloc
from contextlib import contextmanager
from typing import Dict, List, Optional

__all__ = [
    "PROFILE_SCHEMA",
    "PROFILE_KIND",
    "enable_profiling",
    "disable_profiling",
    "profiling_enabled",
    "traced_alloc_bytes",
    "profile_block",
    "drain_profile",
    "merge_profile",
    "reset_profile",
    "profile_document",
    "validate_profile_doc",
    "write_profile",
]

PROFILE_SCHEMA = 1
PROFILE_KIND = "repro-telemetry-profile"

_PROFILING = False
_OWNS_TRACEMALLOC = False
_ACTIVE = False  # a cProfile block is running (they cannot nest)

#: "file:line:func" -> [calls, primitive_calls, self_seconds, cum_seconds]
_stats: Dict[str, List[float]] = {}


def enable_profiling() -> None:
    """Arm per-span attribution and the cProfile hotspot accumulator."""
    global _PROFILING, _OWNS_TRACEMALLOC
    _PROFILING = True
    if not tracemalloc.is_tracing():
        tracemalloc.start()
        _OWNS_TRACEMALLOC = True


def disable_profiling() -> None:
    """Disarm profiling (stops tracemalloc only if we started it)."""
    global _PROFILING, _OWNS_TRACEMALLOC
    _PROFILING = False
    if _OWNS_TRACEMALLOC and tracemalloc.is_tracing():
        tracemalloc.stop()
    _OWNS_TRACEMALLOC = False


def profiling_enabled() -> bool:
    return _PROFILING


def traced_alloc_bytes() -> Optional[int]:
    """Current traced allocation size, or None when tracemalloc is off."""
    if tracemalloc.is_tracing():
        return tracemalloc.get_traced_memory()[0]
    return None


def _fold(profiler: cProfile.Profile) -> None:
    stats = pstats.Stats(profiler).stats
    for (filename, line, func), (cc, nc, tt, ct, _callers) in stats.items():
        key = f"{filename}:{line}:{func}"
        entry = _stats.get(key)
        if entry is None:
            _stats[key] = [nc, cc, tt, ct]
        else:
            entry[0] += nc
            entry[1] += cc
            entry[2] += tt
            entry[3] += ct


@contextmanager
def profile_block():
    """cProfile the enclosed region into the hotspot accumulator.

    A no-op when profiling is off, and when a block is already active
    in this process (cProfile instances cannot nest).
    """
    global _ACTIVE
    if not _PROFILING or _ACTIVE:
        yield
        return
    _ACTIVE = True
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        _ACTIVE = False
        _fold(profiler)


def drain_profile() -> Dict[str, List[float]]:
    """Return the accumulator (picklable) and reset it -- worker handoff."""
    global _stats
    out, _stats = _stats, {}
    return out


def merge_profile(stats: Optional[Dict[str, List[float]]]) -> None:
    """Fold a worker's drained accumulator into this process's."""
    if not stats:
        return
    for key, (nc, cc, tt, ct) in stats.items():
        entry = _stats.get(key)
        if entry is None:
            _stats[key] = [nc, cc, tt, ct]
        else:
            entry[0] += nc
            entry[1] += cc
            entry[2] += tt
            entry[3] += ct


def reset_profile() -> None:
    """Drop all accumulated hotspot data."""
    _stats.clear()


def profile_document(top_n: int = 20) -> dict:
    """Distill the accumulator into the versioned profile document.

    Hotspots are the top ``top_n`` functions by cumulative seconds;
    ``total_functions`` records how many the cut dropped.
    """
    ranked = sorted(_stats.items(), key=lambda kv: kv[1][3], reverse=True)
    return {
        "schema": PROFILE_SCHEMA,
        "kind": PROFILE_KIND,
        "total_functions": len(ranked),
        "hotspots": [
            {
                "func": key,
                "calls": int(nc),
                "prim_calls": int(cc),
                "self_s": tt,
                "cum_s": ct,
            }
            for key, (nc, cc, tt, ct) in ranked[:top_n]
        ],
    }


def validate_profile_doc(doc) -> List[str]:
    """Validate a profile document; returns a list of problems."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return [f"profile document must be an object, got {type(doc).__name__}"]
    if doc.get("schema") != PROFILE_SCHEMA:
        errors.append(
            f"schema must be {PROFILE_SCHEMA}, got {doc.get('schema')!r}"
        )
    if doc.get("kind") != PROFILE_KIND:
        errors.append(f"kind must be {PROFILE_KIND!r}, got {doc.get('kind')!r}")
    if not isinstance(doc.get("total_functions"), int) or isinstance(
        doc.get("total_functions"), bool
    ):
        errors.append("total_functions must be an integer")
    hotspots = doc.get("hotspots")
    if not isinstance(hotspots, list):
        return errors + ["hotspots must be a list"]
    for i, spot in enumerate(hotspots):
        if not isinstance(spot, dict):
            errors.append(f"hotspot[{i}] must be an object")
            continue
        if not isinstance(spot.get("func"), str):
            errors.append(f"hotspot[{i}]: func must be a string")
        for field in ("calls", "prim_calls"):
            value = spot.get(field)
            if not isinstance(value, int) or isinstance(value, bool):
                errors.append(f"hotspot[{i}]: {field} must be an integer")
        for field in ("self_s", "cum_s"):
            value = spot.get(field)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                errors.append(f"hotspot[{i}]: {field} must be a number")
    return errors


def write_profile(path: str, top_n: int = 20) -> dict:
    """Write :func:`profile_document` to ``path``; returns the document."""
    import json

    doc = profile_document(top_n=top_n)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc
