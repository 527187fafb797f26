"""External branch-trace ingestion (ChampSim/CBP-style format).

Real predictor research runs on captured branch traces, not synthetic
ones.  This module defines a minimal external interchange format in the
family of the ChampSim / CBP contest traces -- a flat stream of
``(pc, taken)`` records -- and an ingestion path that saves such a file
as one trace file (:func:`repro.trace.io.save_trace`), after which
*every* downstream layer (replay, sweeps, the verify stack) replays it
exactly like a generated trace, named by its
:func:`~repro.trace.io.job_token`.

Wire format, little-endian throughout::

    offset 0   8-byte magic  b"CBPBT01\\n"
    offset 8   records, 9 bytes each: u64 pc, u8 taken (0 or 1)

Error contract (exercised by the ingestion test suite):

- a missing/short/wrong magic header or an invalid ``taken`` byte is a
  *malformed file*: :class:`TraceFormatError` with a structured
  :func:`repro.telemetry.log_event` -- never a raw ``struct.error`` or
  ``IndexError``;
- a partial trailing record (torn write, truncated download) on an
  otherwise-valid file is *recoverable*: the valid prefix is ingested
  and the ``trace_ingest_truncated_total`` telemetry counter and a
  warning event record the dropped tail.
"""

from __future__ import annotations

import logging
import os
import struct
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.trace.io import save_trace
from repro.trace.record import BranchRecord, Trace

__all__ = [
    "EXTERNAL_MAGIC",
    "EXTERNAL_RECORD_SIZE",
    "TraceFormatError",
    "ingest_external_trace",
    "iter_external_records",
    "write_external_trace",
]

_LOG = logging.getLogger(__name__)

#: File magic: format name + version, newline-terminated so ``head -c8``
#: output is printable and version bumps are loud.
EXTERNAL_MAGIC = b"CBPBT01\n"

_RECORD = struct.Struct("<QB")

#: Bytes per record: little-endian u64 pc + u8 taken.
EXTERNAL_RECORD_SIZE = _RECORD.size

# The same record as a packed numpy dtype, to decode a chunk in one call.
_RECORD_DTYPE = np.dtype([("pc", "<u8"), ("taken", "u1")])

_PC_MAX = (1 << 64) - 1

# Streamed read granularity; any multiple of EXTERNAL_RECORD_SIZE works.
_CHUNK_RECORDS = 8192


class TraceFormatError(Exception):
    """An external trace file violates the wire format."""


def _reject(path: str, reason: str, **fields) -> None:
    telemetry.log_event(
        "trace_ingest_malformed",
        level=logging.ERROR,
        message=reason,
        logger=_LOG,
        path=path,
        **fields,
    )
    tel = telemetry.get_registry()
    if tel.enabled:
        tel.counter("trace_ingest_malformed_total").inc()
    raise TraceFormatError(f"{path}: {reason}")


def write_external_trace(records: Iterable[BranchRecord], path: str) -> int:
    """Write records to ``path`` in the external format; returns count.

    The inverse of :func:`iter_external_records` (up to the
    ``uops_before`` field, which the external format does not carry).
    Records with a pc wider than 64 bits cannot be represented and
    raise :class:`TraceFormatError` -- the ``.npz`` format's hex
    fallback has no equivalent here.
    """
    count = 0
    with open(path, "wb") as fh:
        fh.write(EXTERNAL_MAGIC)
        for record in records:
            if record.pc > _PC_MAX:
                raise TraceFormatError(
                    f"{path}: pc {record.pc:#x} exceeds the external "
                    f"format's 64-bit field (record {count})"
                )
            fh.write(_RECORD.pack(record.pc, 1 if record.taken else 0))
            count += 1
    return count


def _decode_columns(path: str) -> Iterator[Tuple[List[int], List[bool]]]:
    """Decode an external trace file into ``(pc, taken)`` list pairs.

    One pair per read chunk, each decoded with one structured
    ``np.frombuffer`` call.  Applies the module's error contract: a
    malformed header or taken byte raises :class:`TraceFormatError`
    after the records before it were yielded; a partial trailing record
    ends the stream after a truncation warning.
    """
    with open(path, "rb") as fh:
        header = fh.read(len(EXTERNAL_MAGIC))
        if len(header) < len(EXTERNAL_MAGIC):
            _reject(
                path,
                f"file too short for {len(EXTERNAL_MAGIC)}-byte header",
                header_bytes=len(header),
            )
        if header != EXTERNAL_MAGIC:
            _reject(
                path,
                f"bad magic {header!r} (expected {EXTERNAL_MAGIC!r})",
            )
        index = 0
        while True:
            chunk = fh.read(EXTERNAL_RECORD_SIZE * _CHUNK_RECORDS)
            if not chunk:
                return
            count = len(chunk) // EXTERNAL_RECORD_SIZE
            records = np.frombuffer(chunk, dtype=_RECORD_DTYPE, count=count)
            taken = records["taken"]
            invalid = np.flatnonzero(taken > 1)
            valid = int(invalid[0]) if invalid.size else count
            yield (
                records["pc"][:valid].tolist(),
                taken[:valid].astype(np.bool_).tolist(),
            )
            if valid < count:
                _reject(
                    path,
                    f"invalid taken byte {int(taken[valid]):#x} "
                    f"at record {index + valid}",
                    record=index + valid,
                )
            index += count
            tail = len(chunk) - count * EXTERNAL_RECORD_SIZE
            if tail:
                # Torn trailing write: keep the valid prefix, flag the
                # loss.  (A mid-file short read cannot happen -- reads
                # only come up short at EOF.)
                telemetry.log_event(
                    "trace_ingest_truncated",
                    level=logging.WARNING,
                    message="partial trailing record; ingesting prefix",
                    logger=_LOG,
                    path=path,
                    records_kept=index,
                    tail_bytes=tail,
                )
                tel = telemetry.get_registry()
                if tel.enabled:
                    tel.counter("trace_ingest_truncated_total").inc()
                return


def iter_external_records(path: str) -> Iterator[BranchRecord]:
    """Lazily yield :class:`BranchRecord` from an external trace file.

    Reads the file chunk by chunk under the module's error contract:
    malformed header or taken byte raise :class:`TraceFormatError`; a
    partial trailing record ends the stream after a truncation warning.
    ``uops_before`` takes the :class:`BranchRecord` default (the format
    carries none).
    """
    for pcs, takens in _decode_columns(path):
        for pc, taken in zip(pcs, takens):
            yield BranchRecord(pc=pc, taken=taken)


def ingest_external_trace(
    src: str,
    path: str,
    name: Optional[str] = None,
    seed: int = 0,
) -> Trace:
    """Ingest an external trace file into one trace file at ``path``.

    Decodes ``src`` into columns under the error contract of
    :func:`iter_external_records` and writes the records with
    :func:`repro.trace.io.save_trace` (``.npz`` or
    ``.btrace`` by ``path``'s extension), so nothing lands at ``path``
    unless the whole source was read.  Returns the ingested trace;
    ``job_token(trace, path)`` names it for engine jobs.  ``name``
    defaults to the source file's stem; ``seed`` is metadata only (the
    records are externally produced, not generated).
    """
    if name is None:
        name = os.path.splitext(os.path.basename(src))[0]
    with telemetry.trace_span("trace_ingest", src=src, trace_name=name):
        pcs: List[int] = []
        takens: List[bool] = []
        for chunk_pcs, chunk_takens in _decode_columns(src):
            pcs += chunk_pcs
            takens += chunk_takens
        # The format carries no uop counts: every record takes
        # BranchRecord's default, as iter_external_records' records do.
        uops = [BranchRecord.uops_before] * len(pcs)
        trace = Trace.from_columns(pcs, takens, uops, name=name, seed=seed)
        save_trace(trace, path)
    tel = telemetry.get_registry()
    if tel.enabled:
        tel.counter("trace_ingest_records_total").inc(len(trace))
        tel.counter("trace_ingest_files_total").inc()
    return trace
