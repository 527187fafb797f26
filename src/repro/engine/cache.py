"""Keyed replay and trace caches with hit/miss accounting.

Two caches back the engine:

- :class:`ReplayCache` -- job fingerprint -> :class:`ReplayOutcome`.
  In-memory entries are LRU-evicted against an *event budget* (replay
  event lists dominate memory at ~300 bytes/event), because the
  unbounded ``lru_cache`` it replaces could grow without limit over a
  long experiment suite.  An optional on-disk layer pickles outcomes
  under ``<dir>/<aa>/<fingerprint>.pkl`` (two-level fan-out keeps
  directories small), so replays survive across processes and runs.
- :class:`TraceCache` -- (name, n_branches, seed) -> generated trace,
  LRU-evicted against a total-branches budget.
- :class:`SegmentCache` -- segment fingerprint -> (events, checkpoint)
  for the segment chain (see :mod:`repro.engine.replay`):
  one entry per replayed trace segment, so re-running a job after a
  suffix-only change replays only the dirty segments.

The segment cache's disk tier can be bounded (``disk_budget_bytes``):
when the segment ``.pkl`` files exceed the budget, the least recently
*used* entries are unlinked (reads touch mtime, so recency tracks use,
not creation), counted in ``cache_segment_disk_evictions_total``.

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

__all__ = ["CacheStats", "ReplayCache", "SegmentCache", "TraceCache"]

logger = logging.getLogger(__name__)

#: Default in-memory replay budget: total cached post-warm-up events.
#: ~650 MB worst case at ~300 B/event; at --quick sizing it holds a few
#: hundred outcomes, at full sizing a few dozen -- enough for the
#: cross-experiment baseline/ladder sharing the suite relies on.
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

    def format(self) -> str:
        disk = f" ({self.disk_hits} from disk)" if self.disk_hits else ""
        bad = f", {self.corrupt} corrupt dropped" if self.corrupt else ""
        return f"{self.hits} hits{disk} / {self.misses} misses{bad}"


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


class ReplayCache:
    """Fingerprint-keyed outcome cache: memory LRU plus optional disk."""

    def __init__(
        self,
        event_budget: int = DEFAULT_EVENT_BUDGET,
        disk_dir: Optional[str] = None,
    ):
        self._lru = _LruBudget(event_budget)
        self.disk_dir = disk_dir
        self.stats = CacheStats()

    def _disk_path(self, fingerprint: str) -> str:
        return os.path.join(
            self.disk_dir, fingerprint[:2], fingerprint + ".pkl"
        )

    def get(self, fingerprint: str) -> Optional[ReplayOutcome]:
        tel = telemetry.get_registry()
        outcome = self._lru.get(fingerprint)
        if outcome is not None:
            self.stats.hits += 1
            if tel.enabled:
                tel.counter("cache_replay_hits_total", tier="memory").inc()
            return ReplayOutcome(outcome.events, outcome.result, from_cache=True)
        if self.disk_dir is not None:
            path = self._disk_path(fingerprint)
            try:
                fh = open(path, "rb")
            except OSError:
                fh = None  # no entry on disk: an ordinary miss
            if fh is not None:
                try:
                    with fh:
                        events, result = pickle.load(fh)
                except Exception as exc:
                    # Truncated/garbled/wrong-shape pickle: the entry is
                    # unusable.  Drop it (so put() can rewrite a good
                    # one), record the corruption, and fall through to a
                    # recompute.  log_event keeps the stdlib warning on
                    # this module's logger and mirrors a structured copy
                    # into the trace stream, so corruption is countable
                    # rather than grep-able only.
                    self.stats.corrupt += 1
                    if tel.enabled:
                        tel.counter("cache_disk_corrupt_total").inc()
                    telemetry.log_event(
                        "cache.corrupt_entry",
                        level=logging.WARNING,
                        message=(
                            "replay cache: dropping corrupt entry; recomputing"
                        ),
                        logger=logger,
                        path=path,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                    try:
                        os.unlink(path)
                    except OSError:
                        pass
                else:
                    self.stats.hits += 1
                    self.stats.disk_hits += 1
                    if tel.enabled:
                        tel.counter("cache_replay_hits_total", tier="disk").inc()
                    outcome = ReplayOutcome(events, result, from_cache=True)
                    self._lru.put(fingerprint, outcome, cost=max(1, len(events)))
                    self._note_evictions(tel)
                    return outcome
        self.stats.misses += 1
        if tel.enabled:
            tel.counter("cache_replay_misses_total").inc()
        return None

    def _note_evictions(self, tel) -> None:
        """Sync the evictions counter with the LRU's running total."""
        new = self._lru.evictions - self.stats.evictions
        self.stats.evictions = self._lru.evictions
        if new and tel.enabled:
            tel.counter("cache_replay_evictions_total").inc(new)

    def put(self, fingerprint: str, outcome: ReplayOutcome) -> None:
        self._lru.put(fingerprint, outcome, cost=max(1, len(outcome.events)))
        self._note_evictions(telemetry.get_registry())
        if self.disk_dir is not None:
            path = self._disk_path(fingerprint)
            if not os.path.exists(path):
                os.makedirs(os.path.dirname(path), exist_ok=True)
                # Atomic publish: concurrent writers of the same
                # fingerprint produce identical bytes, last rename wins.
                fd, tmp = tempfile.mkstemp(
                    dir=os.path.dirname(path), suffix=".tmp"
                )
                try:
                    with os.fdopen(fd, "wb") as fh:
                        pickle.dump(
                            (outcome.events, outcome.result),
                            fh,
                            protocol=pickle.HIGHEST_PROTOCOL,
                        )
                    os.replace(tmp, path)
                except BaseException:
                    if os.path.exists(tmp):
                        os.unlink(tmp)
                    raise

    def clear(self) -> None:
        """Drop in-memory entries (the disk layer is left alone)."""
        self._lru.clear()

    def __len__(self) -> int:
        return len(self._lru)

    @property
    def cached_events(self) -> int:
        """Total events currently held in memory."""
        return self._lru.spent


class SegmentCache:
    """Segment fingerprint -> ``(events, checkpoint)``, LRU plus disk.

    The value is one replayed segment: its *complete* event list (no
    warm-up applied -- aggregation happens at merge time) and the
    :class:`~repro.engine.replay.ReplayCheckpoint` at the segment's
    end, which chains into the next segment's fingerprint.  The disk
    layer lives under ``<dir>/segments/`` so it can share a cache
    directory with :class:`ReplayCache` without key collisions.
    """

    def __init__(
        self,
        event_budget: int = DEFAULT_EVENT_BUDGET,
        disk_dir: Optional[str] = None,
        disk_budget_bytes: Optional[int] = None,
    ):
        if disk_budget_bytes is not None and disk_budget_bytes <= 0:
            raise ValueError(
                f"disk_budget_bytes must be None or positive, "
                f"got {disk_budget_bytes}"
            )
        self._lru = _LruBudget(event_budget)
        self.disk_dir = disk_dir
        self.disk_budget_bytes = disk_budget_bytes
        self.stats = CacheStats()
        self.disk_evictions = 0

    def _disk_path(self, fingerprint: str) -> str:
        return os.path.join(
            self.disk_dir, "segments", fingerprint[:2], fingerprint + ".pkl"
        )

    def get(self, fingerprint: str):
        """``(events, checkpoint)`` for a cached segment, else ``None``."""
        return self.get_tiered(fingerprint)[0]

    def get_tiered(self, fingerprint: str):
        """``((events, checkpoint), tier)`` -- tier is ``"memory"``,
        ``"disk"``, or ``None`` on a miss (entry is ``None`` too).
        The chain annotates its per-segment spans with the tier."""
        tel = telemetry.get_registry()
        entry = self._lru.get(fingerprint)
        if entry is not None:
            self.stats.hits += 1
            if tel.enabled:
                tel.counter("cache_segment_hits_total", tier="memory").inc()
            return entry, "memory"
        if self.disk_dir is not None:
            path = self._disk_path(fingerprint)
            try:
                fh = open(path, "rb")
            except OSError:
                fh = None
            if fh is not None:
                try:
                    with fh:
                        events, checkpoint = pickle.load(fh)
                except Exception as exc:
                    self.stats.corrupt += 1
                    if tel.enabled:
                        tel.counter("cache_disk_corrupt_total").inc()
                    telemetry.log_event(
                        "cache.corrupt_entry",
                        level=logging.WARNING,
                        message=(
                            "segment cache: dropping corrupt entry; recomputing"
                        ),
                        logger=logger,
                        path=path,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                    try:
                        os.unlink(path)
                    except OSError:
                        pass
                else:
                    self.stats.hits += 1
                    self.stats.disk_hits += 1
                    if tel.enabled:
                        tel.counter("cache_segment_hits_total", tier="disk").inc()
                    try:
                        # Touch: disk eviction is least-recently-USED,
                        # so reads must refresh recency.
                        os.utime(path)
                    except OSError:
                        pass
                    entry = (events, checkpoint)
                    self._lru.put(fingerprint, entry, cost=max(1, len(events)))
                    self._note_evictions(tel)
                    return entry, "disk"
        self.stats.misses += 1
        if tel.enabled:
            tel.counter("cache_segment_misses_total").inc()
        return None, None

    def _note_evictions(self, tel) -> None:
        new = self._lru.evictions - self.stats.evictions
        self.stats.evictions = self._lru.evictions
        if new and tel.enabled:
            tel.counter("cache_segment_evictions_total").inc(new)

    def put(self, fingerprint: str, events, checkpoint) -> None:
        self._lru.put(
            fingerprint, (events, checkpoint), cost=max(1, len(events))
        )
        self._note_evictions(telemetry.get_registry())
        if self.disk_dir is not None:
            path = self._disk_path(fingerprint)
            if not os.path.exists(path):
                os.makedirs(os.path.dirname(path), exist_ok=True)
                fd, tmp = tempfile.mkstemp(
                    dir=os.path.dirname(path), suffix=".tmp"
                )
                try:
                    with os.fdopen(fd, "wb") as fh:
                        pickle.dump(
                            (events, checkpoint),
                            fh,
                            protocol=pickle.HIGHEST_PROTOCOL,
                        )
                    os.replace(tmp, path)
                except BaseException:
                    if os.path.exists(tmp):
                        os.unlink(tmp)
                    raise
                self._enforce_disk_budget()

    def _segment_files(self):
        """Yield ``(mtime, size, path)`` for every on-disk segment entry."""
        base = os.path.join(self.disk_dir, "segments")
        try:
            shards = os.listdir(base)
        except OSError:
            return
        for shard in shards:
            shard_dir = os.path.join(base, shard)
            if not os.path.isdir(shard_dir):
                continue
            for filename in os.listdir(shard_dir):
                if not filename.endswith(".pkl"):
                    continue
                path = os.path.join(shard_dir, filename)
                try:
                    st = os.stat(path)
                except OSError:
                    continue
                yield st.st_mtime, st.st_size, path

    def _enforce_disk_budget(self) -> None:
        """Unlink least-recently-used segment files past the byte budget."""
        if self.disk_budget_bytes is None:
            return
        files = sorted(self._segment_files())
        total = sum(size for _, size, _ in files)
        evicted = 0
        for _, size, path in files:
            if total <= self.disk_budget_bytes:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            evicted += 1
        if evicted:
            self.disk_evictions += evicted
            tel = telemetry.get_registry()
            if tel.enabled:
                tel.counter("cache_segment_disk_evictions_total").inc(evicted)

    def clear(self) -> None:
        """Drop in-memory segment entries (the disk layer is left alone)."""
        self._lru.clear()

    def __len__(self) -> int:
        return len(self._lru)

    @property
    def cached_events(self) -> int:
        """Total events currently held in memory."""
        return self._lru.spent


class TraceCache:
    """(name, n_branches, seed) -> trace, LRU by total branches.

    Besides generator benchmark names, the cache resolves ``segtrace:``
    tokens (``segtrace:<digest16>:<path>``, from
    :meth:`~repro.trace.segments.SegmentedTrace.job_token`): the
    directory is opened lazily, its content digest checked against the
    token, and a length-limited view returned -- recorded on-disk
    traces flow through the engine without materializing any records
    up front, so they cost the LRU almost nothing.
    """

    def __init__(self, branch_budget: int = DEFAULT_TRACE_BUDGET):
        self._lru = _LruBudget(branch_budget)
        self.stats = CacheStats()

    @staticmethod
    def _open_segmented(token: str, n_branches: int):
        from repro.trace.segments import SegmentedTrace

        _, digest, path = token.split(":", 2)
        trace = SegmentedTrace(path)
        if digest and not trace.content_digest.startswith(digest):
            raise ValueError(
                f"{path}: recorded trace content does not match the job's "
                f"token (expected digest {digest}..., found "
                f"{trace.content_digest[:len(digest)]}...)"
            )
        if n_branches > len(trace):
            raise ValueError(
                f"{path}: job wants {n_branches} branches, recorded trace "
                f"holds {len(trace)}"
            )
        if n_branches == len(trace):
            return trace
        return trace.prefix(n_branches)

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
        if name.startswith("segtrace:"):
            # Lazy reader: holds index metadata only, records load per
            # access, so it costs the branch budget next to nothing.
            trace = self._open_segmented(name, n_branches)
            self._lru.put(key, trace, cost=1)
        else:
            from repro.trace.benchmarks import generate_benchmark_trace

            trace = generate_benchmark_trace(
                name, n_branches=n_branches, seed=seed
            )
            self._lru.put(key, trace, cost=max(1, n_branches))
        self.stats.evictions = self._lru.evictions
        return trace

    def clear(self) -> None:
        self._lru.clear()

    def __len__(self) -> int:
        return len(self._lru)
