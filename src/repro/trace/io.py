"""Trace serialisation and recorded-trace job tokens.

Two formats are supported:

- **binary** (``.npz``): compact numpy container, the default for the
  benchmark harness's cached traces and for ingested recordings;
- **text** (``.btrace``): one branch per line (``pc taken uops_before``),
  greppable and diff-friendly, with ``#`` metadata headers.

Both round-trip exactly; format is chosen by file extension, and
:func:`save_trace` publishes a file only once it is complete.

A saved trace becomes an engine job source through its job token,
``recorded:<digest16>:<absolute path>`` (:func:`job_token`,
:func:`parse_job_token`): the digest pins the records, so a job names
exactly the content it was fingerprinted with.
"""

from __future__ import annotations

import os
import re
from typing import List, Optional, Tuple

import numpy as np

from repro.trace.record import Trace

__all__ = ["job_token", "load_trace", "parse_job_token", "save_trace"]

_TEXT_EXTENSIONS = (".btrace", ".txt")
_BINARY_EXTENSIONS = (".npz",)

#: The digest field of a job token: the first 16 hex characters of the
#: trace's :meth:`~repro.trace.record.Trace.content_digest`.
_TOKEN_DIGEST = re.compile(r"[0-9a-f]{16}")


def _is_text_path(path: str) -> bool:
    ext = os.path.splitext(path)[1].lower()
    if ext in _TEXT_EXTENSIONS:
        return True
    if ext in _BINARY_EXTENSIONS:
        return False
    raise ValueError(
        f"unrecognised trace extension {ext!r}; use one of "
        f"{_TEXT_EXTENSIONS + _BINARY_EXTENSIONS}"
    )


def save_trace(trace: Trace, path: str) -> None:
    """Write a trace to ``path`` (format chosen by extension).

    The trace is written to a temporary file beside ``path`` that
    replaces it only once complete, so a write that fails part-way
    leaves ``path`` as it was (absent, or the previous file).
    """
    text = _is_text_path(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        if text:
            with open(tmp, "w", encoding="utf-8") as fh:
                _save_text(trace, fh)
        else:
            with open(tmp, "wb") as fh:
                _save_binary(trace, fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_trace(path: str) -> Trace:
    """Read a trace previously written by :func:`save_trace`."""
    if _is_text_path(path):
        return _load_text(path)
    return _load_binary(path)


def job_token(trace: Trace, path: str) -> str:
    """The benchmark name of ``trace``, saved at ``path``, for engine jobs.

    ``recorded:<digest16>:<absolute path>``, usable directly as
    ``SimJob.benchmark``.  The 16 hex characters start the trace's
    :meth:`~repro.trace.record.Trace.content_digest`, so the records
    alone set them.  The engine's trace cache loads the file and checks
    the digest, so a fingerprinted job pins the recorded content, not
    just a file name.
    """
    return f"recorded:{trace.content_digest()[:16]}:{os.path.abspath(path)}"


def parse_job_token(token: str) -> Tuple[str, str]:
    """``(digest, path)`` of a ``recorded:`` job token.

    Raises ``ValueError`` unless the token has the shape
    :func:`job_token` writes: a digest field of 16 lowercase hex
    characters pins the recorded content, so an empty or shortened
    digest cannot match a file whose content changed.
    """
    kind, _, rest = token.partition(":")
    digest, sep, path = rest.partition(":")
    if kind != "recorded" or not sep or not _TOKEN_DIGEST.fullmatch(digest):
        raise ValueError(
            "recorded token must be 'recorded:<16 lowercase hex digest "
            f"chars>:<path>', as job_token() writes, got {token!r}"
        )
    return digest, path


def _save_text(trace: Trace, fh) -> None:
    fh.write(f"# name: {trace.name}\n")
    if trace.seed is not None:
        fh.write(f"# seed: {trace.seed}\n")
    fh.write("# columns: pc taken uops_before\n")
    for pc, taken, uops_before in zip(trace.pc, trace.taken, trace.uops_before):
        fh.write(f"{pc:#x} {1 if taken else 0} {uops_before}\n")


def _load_text(path: str) -> Trace:
    name = os.path.splitext(os.path.basename(path))[0]
    seed: Optional[int] = None
    pcs: List[int] = []
    takens: List[bool] = []
    uops: List[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("name:"):
                    name = body[len("name:"):].strip()
                elif body.startswith("seed:"):
                    seed = int(body[len("seed:"):].strip())
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(
                    f"{path}:{lineno}: expected 'pc taken uops_before', "
                    f"got {line!r}"
                )
            pcs.append(int(parts[0], 0))
            takens.append(parts[1] not in ("0", "false", "False"))
            uops.append(int(parts[2]))
    return Trace.from_columns(pcs, takens, uops, name=name, seed=seed)


_MAX_UINT64_PC = (1 << 64) - 1


def _save_binary(trace: Trace, fh) -> None:
    pcs = trace.pc
    payload = dict(
        taken=np.array(trace.taken, dtype=np.bool_),
        uops_before=np.array(trace.uops_before, dtype=np.uint32),
        name=np.array(trace.name),
        seed=np.array(-1 if trace.seed is None else trace.seed, dtype=np.int64),
    )
    if not pcs or max(pcs) <= _MAX_UINT64_PC:
        payload["pcs"] = np.array(pcs, dtype=np.uint64)
    else:
        # Records allow arbitrarily wide addresses; a uint64 column would
        # overflow, so fall back to a hex-string column (unicode arrays
        # stay loadable with allow_pickle=False).
        payload["pcs_hex"] = np.array([format(pc, "x") for pc in pcs])
    np.savez_compressed(fh, **payload)


def _load_binary(path: str) -> Trace:
    # Each column converts in one ``tolist`` call and becomes the
    # trace's column as is; ``from_columns`` checks them in bulk.
    with np.load(path, allow_pickle=False) as data:
        if "pcs" in data.files:
            pcs = data["pcs"].tolist()
        else:
            pcs = [int(v, 16) for v in data["pcs_hex"].tolist()]
        taken = data["taken"].tolist()
        uops = data["uops_before"].tolist()
        name = str(data["name"])
        seed_val = int(data["seed"])
    seed = None if seed_val < 0 else seed_val
    return Trace.from_columns(pcs, taken, uops, name=name, seed=seed)
