"""Deterministic seeds derived by name.

Every stochastic component of the reproduction (trace synthesis,
per-branch latency jitter, workload mixing) seeds its generator with a
child seed derived by name from a single experiment seed.  Deriving
seeds by name keeps results stable when components are added or
reordered: adding a new consumer never perturbs the draws seen by
existing ones.
"""

from __future__ import annotations

import hashlib

__all__ = ["derive_seed"]


def derive_seed(root_seed: int, *names) -> int:
    """Derive a 63-bit child seed from a root seed and a name path.

    The derivation hashes ``root_seed`` together with the string forms
    of ``names`` so that ``derive_seed(s, "trace", "gcc")`` and
    ``derive_seed(s, "trace", "gzip")`` are statistically independent.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(root_seed)).encode())
    for name in names:
        h.update(b"/")
        h.update(str(name).encode())
    return int.from_bytes(h.digest(), "little") & ((1 << 63) - 1)

