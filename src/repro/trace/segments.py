"""The indexed on-disk segment format for recorded traces.

A recorded trace (see "Recorded traces" in ``docs/workloads.md``) is
stored as fixed-size contiguous segments, so neither writing nor
reading it ever materializes more than one segment:

- :func:`iter_record_segments` -- lazy segmentation of any record
  stream (a materialized :class:`~repro.trace.record.Trace`, or the
  unbounded :meth:`~repro.trace.generator.TraceGenerator.iter_records`
  stream);
- :func:`save_segmented` / :class:`SegmentedTrace` -- an indexed
  on-disk layout (one ``.npz`` per segment plus a JSON index) whose
  writer consumes a stream one segment at a time and whose reader loads
  any segment in O(segment size), never the whole trace;
- :meth:`SegmentedTrace.job_token` / :func:`parse_job_token` -- the
  ``segtrace:`` benchmark name that makes a recorded directory an
  engine job source, pinned to its content digest.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
from itertools import islice
from typing import Iterable, Iterator, List, Optional, Tuple

from repro import telemetry
from repro.trace.io import load_trace, save_trace
from repro.trace.record import BranchRecord, Trace

__all__ = [
    "iter_record_segments",
    "parse_job_token",
    "save_segmented",
    "sweep_orphan_segments",
    "SegmentedTrace",
    "SegmentedTraceView",
]

#: Index file inside a segmented-trace directory.
INDEX_NAME = "index.json"

#: On-disk layout version; bumped on incompatible index changes.
SEGMENT_SCHEMA = 1

#: The digest field of a job token: the first 16 hex characters of the
#: trace's ``content_digest`` (see :meth:`SegmentedTrace.job_token`).
_TOKEN_DIGEST = re.compile(r"[0-9a-f]{16}")


def _check_segment_size(segment_size: int) -> None:
    if segment_size < 1:
        raise ValueError(f"segment_size must be >= 1, got {segment_size}")


def iter_record_segments(
    records: Iterable[BranchRecord], segment_size: int
) -> Iterator[List[BranchRecord]]:
    """Lazily cut a record stream into lists of ``segment_size``.

    Pulls from ``records`` one segment at a time; only the segment
    being yielded is materialized.  The final segment may be shorter.
    Safe on unbounded streams (stop consuming to stop generating).
    """
    _check_segment_size(segment_size)
    iterator = iter(records)
    while True:
        segment = list(islice(iterator, segment_size))
        if not segment:
            return
        yield segment


def parse_job_token(token: str) -> Tuple[str, str]:
    """``(digest, path)`` of a ``segtrace:`` job token.

    Raises ``ValueError`` unless the token has the shape
    :meth:`SegmentedTrace.job_token` writes: a digest field of 16
    lowercase hex characters pins the recorded content, so an empty or
    shortened digest cannot match a directory whose content changed.
    """
    kind, _, rest = token.partition(":")
    digest, sep, path = rest.partition(":")
    if kind != "segtrace" or not sep or not _TOKEN_DIGEST.fullmatch(digest):
        raise ValueError(
            "segtrace token must be 'segtrace:<16 lowercase hex digest "
            f"chars>:<path>', as job_token() writes, got {token!r}"
        )
    return digest, path


def _segment_file(index: int) -> str:
    return f"segment-{index:06d}.npz"


def _file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def sweep_orphan_segments(directory: str) -> int:
    """Remove segment ``.npz`` files that no index has ever claimed.

    :func:`save_segmented` writes its index last, so a crashed writer
    leaves segment payloads with no ``index.json`` -- dead bytes no
    reader will ever open.  This sweep unlinks them (the whole
    directory's segments if there is no index at all, or any file
    beyond what the index lists) and returns how many were removed,
    also counted in the ``trace_segment_orphans_removed_total``
    telemetry counter.  A directory with a consistent index is left
    untouched.
    """
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return 0
    claimed = set()
    index_path = os.path.join(directory, INDEX_NAME)
    if os.path.exists(index_path):
        try:
            with open(index_path, "r", encoding="utf-8") as fh:
                index = json.load(fh)
            claimed = {entry["file"] for entry in index.get("segments", [])}
        except (OSError, ValueError, KeyError, TypeError):
            # Unreadable index: treat as absent -- every payload is an
            # orphan of a failed write.
            claimed = set()
    removed = 0
    for name in names:
        if not (name.startswith("segment-") and name.endswith(".npz")):
            continue
        if name in claimed:
            continue
        try:
            os.unlink(os.path.join(directory, name))
        except OSError:
            continue
        removed += 1
    if removed:
        tel = telemetry.get_registry()
        if tel.enabled:
            tel.counter("trace_segment_orphans_removed_total").inc(removed)
        telemetry.log_event(
            "trace.orphan_segments_removed",
            level=logging.INFO,
            message=f"removed {removed} orphan segment file(s)",
            directory=directory,
            removed=removed,
        )
    return removed


def save_segmented(
    records: Iterable[BranchRecord],
    directory: str,
    segment_size: int,
    name: str = "trace",
    seed: Optional[int] = None,
    n_branches: Optional[int] = None,
) -> "SegmentedTrace":
    """Write a record stream as an indexed segment directory.

    Consumes ``records`` one segment at a time (peak memory is one
    segment, whatever the stream length).  Passing a
    :class:`~repro.trace.record.Trace` picks up its name/seed metadata
    unless overridden; ``n_branches`` bounds an unbounded stream.

    The directory holds one ``.npz`` per segment plus ``index.json``
    describing the layout; the index is written last, so a crashed
    writer never leaves a readable-but-truncated trace behind (and any
    payloads such a crash did leave are swept before writing).  Each
    segment entry records the payload's SHA-256, and the index carries
    a ``content_digest`` over the per-segment digests -- the identity
    :meth:`SegmentedTrace.job_token` embeds so engine jobs can pin the
    exact recorded content.
    """
    _check_segment_size(segment_size)
    if isinstance(records, Trace):
        if name == "trace":
            name = records.name
        if seed is None:
            seed = records.seed
    stream: Iterable[BranchRecord] = iter(records)
    if n_branches is not None:
        if n_branches < 0:
            raise ValueError(f"n_branches must be >= 0, got {n_branches}")
        stream = islice(stream, n_branches)
    os.makedirs(directory, exist_ok=True)
    if not os.path.exists(os.path.join(directory, INDEX_NAME)):
        sweep_orphan_segments(directory)
    segments = []
    start = 0
    content = hashlib.sha256()
    for i, segment in enumerate(iter_record_segments(stream, segment_size)):
        filename = _segment_file(i)
        path = os.path.join(directory, filename)
        save_trace(Trace(segment, name=name, seed=seed), path)
        sha = _file_sha256(path)
        content.update(sha.encode("ascii"))
        segments.append(
            {
                "file": filename,
                "start": start,
                "stop": start + len(segment),
                "sha256": sha,
            }
        )
        start += len(segment)
    index = {
        "schema": SEGMENT_SCHEMA,
        "name": name,
        "seed": seed,
        "segment_size": segment_size,
        "n_branches": start,
        "content_digest": content.hexdigest(),
        "segments": segments,
    }
    tmp = os.path.join(directory, INDEX_NAME + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(index, fh, indent=2)
        fh.write("\n")
    os.replace(tmp, os.path.join(directory, INDEX_NAME))
    return SegmentedTrace(directory)


class SegmentedTrace:
    """Reader for a directory written by :func:`save_segmented`.

    Opening reads only the JSON index; segment payloads load on demand,
    one at a time, so iterating a long trace keeps peak memory at one
    segment.
    """

    def __init__(self, directory: str):
        self.directory = directory
        index_path = os.path.join(directory, INDEX_NAME)
        try:
            with open(index_path, "r", encoding="utf-8") as fh:
                index = json.load(fh)
        except FileNotFoundError:
            raise FileNotFoundError(
                f"{directory}: not a segmented trace (no {INDEX_NAME})"
            )
        schema = index.get("schema")
        if schema != SEGMENT_SCHEMA:
            raise ValueError(
                f"{index_path}: unsupported segment schema {schema!r} "
                f"(expected {SEGMENT_SCHEMA})"
            )
        self.name = str(index["name"])
        seed = index.get("seed")
        self.seed = None if seed is None else int(seed)
        self.segment_size = int(index["segment_size"])
        self.n_branches = int(index["n_branches"])
        self._segments = index["segments"]
        self._content_digest = index.get("content_digest")
        stop = 0
        for entry in self._segments:
            if entry["start"] != stop:
                raise ValueError(
                    f"{index_path}: segment starts are not contiguous "
                    f"(expected {stop}, got {entry['start']})"
                )
            stop = entry["stop"]
        if stop != self.n_branches:
            raise ValueError(
                f"{index_path}: segments cover {stop} branches, index "
                f"claims {self.n_branches}"
            )

    @property
    def n_segments(self) -> int:
        """Number of on-disk segments."""
        return len(self._segments)

    def bounds(self, index: int) -> Tuple[int, int]:
        """``[start, stop)`` of segment ``index`` within the trace."""
        entry = self._segments[index]
        return entry["start"], entry["stop"]

    def segment(self, index: int) -> Trace:
        """Load one segment as a trace (O(segment size) work/memory)."""
        entry = self._segments[index]
        trace = load_trace(os.path.join(self.directory, entry["file"]))
        expected = entry["stop"] - entry["start"]
        if len(trace) != expected:
            raise ValueError(
                f"{entry['file']}: holds {len(trace)} records, index "
                f"claims {expected}"
            )
        return trace

    def iter_segments(self) -> Iterator[Trace]:
        """Yield segments in order, loading one at a time."""
        for i in range(self.n_segments):
            yield self.segment(i)

    def iter_records(self) -> Iterator[BranchRecord]:
        """Yield all records in order with one-segment peak memory."""
        for segment in self.iter_segments():
            for record in segment:
                yield record

    def load(self) -> Trace:
        """Materialize the whole trace (convenience for small traces)."""
        records = list(self.iter_records())
        return Trace(records, name=self.name, seed=self.seed)

    @property
    def content_digest(self) -> str:
        """SHA-256 identity over the per-segment payload digests.

        Recorded in the index by :func:`save_segmented`; directories
        written before digests existed compute it lazily (one hashing
        pass over the payload files, never the decoded records).
        """
        if self._content_digest is None:
            content = hashlib.sha256()
            for entry in self._segments:
                sha = entry.get("sha256") or _file_sha256(
                    os.path.join(self.directory, entry["file"])
                )
                content.update(sha.encode("ascii"))
            self._content_digest = content.hexdigest()
        return self._content_digest

    def job_token(self) -> str:
        """Benchmark token binding engine jobs to this recorded trace.

        ``segtrace:<digest16>:<absolute path>`` -- usable directly as
        ``SimJob.benchmark``.  The engine's trace cache resolves the
        path and checks the content digest, so a fingerprinted job pins
        the exact recorded bytes, not just a directory name.
        """
        return (
            f"segtrace:{self.content_digest[:16]}:"
            f"{os.path.abspath(self.directory)}"
        )

    def prefix(self, n_branches: int) -> "SegmentedTraceView":
        """A lazy length-``n_branches`` view (no records loaded)."""
        return SegmentedTraceView(self, n_branches)

    def __iter__(self) -> Iterator[BranchRecord]:
        return self.iter_records()

    def __len__(self) -> int:
        return self.n_branches

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SegmentedTrace(directory={self.directory!r}, "
            f"n_branches={self.n_branches}, "
            f"segment_size={self.segment_size})"
        )


class SegmentedTraceView:
    """A length-limited lazy view over a :class:`SegmentedTrace`.

    Presents the trace interface the engine consumes (``len``,
    iteration, name/seed metadata) for the first ``n_branches``
    records, loading segments one at a time as iteration reaches them
    -- so a ``SimJob`` shorter than the recorded trace replays without
    the whole trace ever being materialized.
    """

    def __init__(self, trace: SegmentedTrace, n_branches: int):
        if not 0 <= n_branches <= len(trace):
            raise ValueError(
                f"n_branches must be in [0, {len(trace)}], got {n_branches}"
            )
        self._trace = trace
        self._n = n_branches

    @property
    def name(self) -> str:
        return self._trace.name

    @property
    def seed(self) -> Optional[int]:
        return self._trace.seed

    def __iter__(self) -> Iterator[BranchRecord]:
        return islice(self._trace.iter_records(), self._n)

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SegmentedTraceView({self._trace!r}, n_branches={self._n})"
