"""Canonical metric serialisation for replay results.

The verification gate compares runs by *digest*: a replay's headline
metrics are lowered to a fixed, ordered, all-integer dictionary and
hashed.  Integer counts (not derived floats) are the canonical form
because they are bit-exact across platforms and Python versions; every
derived rate the analysis layer reports is a pure function of them.

The dictionary layout is versioned by :data:`METRICS_SCHEMA`; bump it
whenever a field is added, removed or renamed so stale golden baselines
fail loudly instead of comparing incompatible shapes.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict

__all__ = ["METRICS_SCHEMA", "canonical_metrics", "metrics_digest"]

#: Version of the canonical metric layout (salts every digest).
METRICS_SCHEMA = 1


def canonical_metrics(result) -> Dict[str, int]:
    """Lower a :class:`~repro.core.frontend.FrontEndResult` to integers.

    The returned dict is insertion-ordered and contains only ints, so
    ``json.dumps`` of it is deterministic and :func:`metrics_digest` is
    stable across processes, platforms and cache layers.
    """
    matrix = result.matrix
    return {
        "branches": int(result.branches),
        "mispredictions": int(result.mispredictions),
        "final_mispredictions": int(result.final_mispredictions),
        "reversals": int(result.reversals),
        "reversals_correcting": int(result.reversals_correcting),
        "reversals_breaking": int(result.reversals_breaking),
        "low_mispredicted": int(matrix.low_mispredicted),
        "low_correct": int(matrix.low_correct),
        "high_mispredicted": int(matrix.high_mispredicted),
        "high_correct": int(matrix.high_correct),
    }


def metrics_digest(metrics: Dict[str, int]) -> str:
    """SHA-256 over the canonical JSON encoding of a metrics dict."""
    payload = json.dumps(
        {"schema": METRICS_SCHEMA, "metrics": dict(metrics)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
