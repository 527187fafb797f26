"""Keyed replay and trace caches with hit/miss accounting.

Two caches back the engine:

- :class:`ReplayCache` -- job fingerprint -> :class:`ReplayOutcome`.
- :class:`TraceCache` -- (name, n_branches, seed) -> generated or
  recorded trace, LRU-evicted against a total-branches budget.

:class:`ReplayCache` is one kind of a tiered cache.  Its memory tier is
LRU-evicted against an *event budget*: post-warm-up events dominate
memory, at ~105 bytes/event in their column form
(:class:`~repro.core.frontend.FrontEndEvents`).  Its optional disk
tier pickles each entry under ``<dir>/<aa>/<fingerprint>.pkl`` (~20
bytes/event) -- the two-level fan-out keeps directories small -- so
entries survive across processes and runs.  An unreadable disk entry
is dropped, counted and recomputed.

All expose monotonic counters; :class:`CacheStats` snapshots support
deltas over any stretch of work (``Engine.stats.since``).
"""

from __future__ import annotations

import logging
import os
import pickle
import tempfile
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from repro import telemetry
from repro.engine.job import ReplayOutcome

__all__ = ["CacheStats", "ReplayCache", "TraceCache"]

logger = logging.getLogger(__name__)

#: Default in-memory replay budget: total cached post-warm-up events.
#: ~215 MB worst case at 101-108 B/event: every object an outcome's
#: events keep alive, counted once with ``sys.getsizeof`` (bools, enum
#: members and small ints are shared by the whole interpreter and not
#: counted), over Table 3/4 and Figure 8 jobs on gzip, mcf and vortex
#: at 5000 branches on both backends.  The event objects that held
#: them before cost 368-377 B/event by the same count.  At --quick
#: sizing the budget holds a few hundred outcomes, at full sizing a few
#: dozen -- enough for the cross-experiment baseline/ladder sharing the
#: suite relies on.
DEFAULT_EVENT_BUDGET = 2_000_000

#: Default trace budget in dynamic branches (~25 full-size traces).
DEFAULT_TRACE_BUDGET = 4_000_000


@dataclass
class CacheStats:
    """Monotonic cache counters (snapshot-subtractable)."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    evictions: int = 0
    corrupt: int = 0  # unreadable disk entries dropped and recomputed

    def snapshot(self) -> "CacheStats":
        return CacheStats(
            self.hits, self.misses, self.disk_hits, self.evictions, self.corrupt
        )

    def since(self, other: "CacheStats") -> "CacheStats":
        """Delta relative to an earlier snapshot."""
        return CacheStats(
            hits=self.hits - other.hits,
            misses=self.misses - other.misses,
            disk_hits=self.disk_hits - other.disk_hits,
            evictions=self.evictions - other.evictions,
            corrupt=self.corrupt - other.corrupt,
        )


class _LruBudget:
    """An OrderedDict LRU bounded by a caller-defined cost budget."""

    def __init__(self, budget: int):
        if budget <= 0:
            raise ValueError(f"budget must be positive, got {budget}")
        self.budget = budget
        self._entries: "OrderedDict[object, Tuple[object, int]]" = OrderedDict()
        self._spent = 0
        self.evictions = 0

    def get(self, key):
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        return entry[0]

    def put(self, key, value, cost: int) -> None:
        if key in self._entries:
            self._spent -= self._entries.pop(key)[1]
        # Oversized single entries are still admitted (evicting all
        # others): refusing them would make the hot job permanently
        # uncacheable, the worst possible behaviour.
        self._entries[key] = (value, cost)
        self._spent += cost
        while self._spent > self.budget and len(self._entries) > 1:
            _, (_, evicted_cost) = self._entries.popitem(last=False)
            self._spent -= evicted_cost
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()
        self._spent = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def spent(self) -> int:
        return self._spent


class _TieredCache:
    """``(events, value)`` entries: a memory LRU over an optional disk tier.

    The memory tier is LRU-evicted against an event budget (an entry
    costs its event count).  The disk tier pickles each entry once, at
    ``<disk_dir>/[<subdir>/]<aa>/<key>.pkl``, and serves it to later
    processes and runs.  ``kind`` names the telemetry counters
    (``cache_<kind>_{hits,misses,evictions}_total``) and the
    corrupt-entry warning; subclasses set both and shape the values.
    """

    kind: str
    subdir: str

    def __init__(
        self,
        event_budget: int = DEFAULT_EVENT_BUDGET,
        disk_dir: Optional[str] = None,
    ):
        self._lru = _LruBudget(event_budget)
        self.disk_dir = disk_dir
        self.stats = CacheStats()

    def _disk_path(self, key: str) -> str:
        return os.path.join(self.disk_dir, self.subdir, key[:2], key + ".pkl")

    def lookup(self, key: str):
        """``(entry, tier)`` -- tier is ``"memory"``, ``"disk"``, or
        ``None`` on a miss (entry is ``None`` too)."""
        tel = telemetry.get_registry()
        entry = self._lru.get(key)
        tier = "memory"
        if entry is None and self.disk_dir is not None:
            entry = self._load(key, tel)
            tier = "disk"
        if entry is None:
            self.stats.misses += 1
            if tel.enabled:
                tel.counter(f"cache_{self.kind}_misses_total").inc()
            return None, None
        self.stats.hits += 1
        if tel.enabled:
            tel.counter(f"cache_{self.kind}_hits_total", tier=tier).inc()
        if tier == "disk":
            self.stats.disk_hits += 1
            self._remember(key, entry, tel)
        return entry, tier

    def _load(self, key: str, tel):
        """The disk entry for ``key``; ``None`` if absent or unreadable."""
        path = self._disk_path(key)
        try:
            fh = open(path, "rb")
        except OSError:
            return None  # no entry on disk: an ordinary miss
        try:
            with fh:
                events, value = pickle.load(fh)
        except Exception as exc:
            # Truncated/garbled/wrong-shape pickle: the entry is
            # unusable.  Drop it (so store() can rewrite a good one),
            # record the corruption, and let the caller recompute.
            # log_event keeps the stdlib warning on this module's
            # logger and mirrors a structured copy into the trace
            # stream, so corruption is countable rather than grep-able.
            self.stats.corrupt += 1
            if tel.enabled:
                tel.counter("cache_disk_corrupt_total").inc()
            telemetry.log_event(
                "cache.corrupt_entry",
                level=logging.WARNING,
                message=f"{self.kind} cache: dropping corrupt entry; recomputing",
                logger=logger,
                path=path,
                error=f"{type(exc).__name__}: {exc}",
            )
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        return events, value

    def store(self, key: str, entry) -> None:
        """Cache ``entry`` in memory and, if not already there, on disk."""
        self._remember(key, entry, telemetry.get_registry())
        if self.disk_dir is None:
            return
        path = self._disk_path(key)
        if os.path.exists(path):
            return
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        # Atomic publish: concurrent writers of the same key produce
        # identical bytes, last rename wins.
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(entry, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def _remember(self, key: str, entry, tel) -> None:
        """Put ``entry`` in the memory LRU and count what it evicted."""
        self._lru.put(key, entry, cost=max(1, len(entry[0])))
        new = self._lru.evictions - self.stats.evictions
        self.stats.evictions = self._lru.evictions
        if new and tel.enabled:
            tel.counter(f"cache_{self.kind}_evictions_total").inc(new)

    def clear(self) -> None:
        """Drop in-memory entries (the disk tier is left alone)."""
        self._lru.clear()

    def __len__(self) -> int:
        return len(self._lru)

    @property
    def cached_events(self) -> int:
        """Total events currently held in memory."""
        return self._lru.spent


class ReplayCache(_TieredCache):
    """Job fingerprint -> :class:`ReplayOutcome`.

    Entries are ``(events, result)`` with ``events`` a
    :class:`~repro.core.frontend.FrontEndEvents`; the disk tier keeps
    them at the top of the cache directory.  An entry whose result an
    earlier version pickled with classes that no longer exist fails to
    load, and is dropped and recomputed like any unreadable one.
    """

    kind = "replay"
    subdir = ""

    def get(self, fingerprint: str) -> Optional[ReplayOutcome]:
        entry, _ = self.lookup(fingerprint)
        if entry is None:
            return None
        events, result = entry
        return ReplayOutcome(events, result, from_cache=True)

    def put(self, fingerprint: str, outcome: ReplayOutcome) -> None:
        self.store(fingerprint, (outcome.events, outcome.result))


class TraceCache:
    """(name, n_branches, seed) -> trace, LRU by total branches.

    Besides generator benchmark names, the cache resolves ``recorded:``
    tokens (``recorded:<digest16>:<path>``, from
    :func:`~repro.trace.io.job_token`): it loads the file once, checks
    the token's digest and the job's length against the records, and
    caches the trace like a generated one -- sliced to the job's length
    when the job is shorter than the recording.
    """

    def __init__(self, branch_budget: int = DEFAULT_TRACE_BUDGET):
        self._lru = _LruBudget(branch_budget)
        self.stats = CacheStats()

    @staticmethod
    def _open_recorded(token: str, n_branches: int):
        from repro.trace.io import load_trace, parse_job_token

        digest, path = parse_job_token(token)
        trace = load_trace(path)
        found = trace.content_digest()
        if not found.startswith(digest):
            raise ValueError(
                f"{path}: recorded trace content does not match the job's "
                f"token (expected digest {digest}..., found "
                f"{found[:len(digest)]}...)"
            )
        if n_branches > len(trace):
            raise ValueError(
                f"{path}: job wants {n_branches} branches, recorded trace "
                f"holds {len(trace)}"
            )
        if n_branches == len(trace):
            return trace
        return trace.slice(0, n_branches)

    def get(self, name: str, n_branches: int, seed: int):
        tel = telemetry.get_registry()
        key = (name, n_branches, seed)
        trace = self._lru.get(key)
        if trace is not None:
            self.stats.hits += 1
            if tel.enabled:
                tel.counter("cache_trace_hits_total").inc()
            return trace

        self.stats.misses += 1
        if tel.enabled:
            tel.counter("cache_trace_misses_total").inc()
        if name.startswith("recorded:"):
            trace = self._open_recorded(name, n_branches)
        else:
            from repro.trace.benchmarks import generate_benchmark_trace

            trace = generate_benchmark_trace(
                name, n_branches=n_branches, seed=seed
            )
        self._lru.put(key, trace, cost=max(1, n_branches))
        self.stats.evictions = self._lru.evictions
        return trace

    def __len__(self) -> int:
        return len(self._lru)
