"""Opt-in vectorized fast backend (``backend="fast"`` on SimJob).

Nothing here imports the rest of :mod:`repro` (or numpy) at module
import time -- the kernels and driver load lazily on first use -- so
importing the engine does not pay for the fast backend until a job asks
for it.
"""

from __future__ import annotations

__all__ = [
    "FastPathUnsupported",
    "available",
    "supports",
    "unsupported_reason",
    "replay",
]


class FastPathUnsupported(RuntimeError):
    """The job's configuration has no proven fast pass; use reference."""


def available() -> bool:
    """Always ``True``: numpy is a required dependency.

    Kept only because ``benchmarks/ledger/layers.py`` still calls it.
    """
    return True


def supports(job) -> bool:
    """True when ``job`` can run on the fast backend bit-identically."""
    from repro.fastpath.driver import supports_job

    return supports_job(job)


def unsupported_reason(job) -> "str | None":
    """Why ``job`` cannot run fast, or ``None`` when it can.

    Reasons are short stable tokens (``predictor:<kind>``,
    ``estimator:<kind>``, ``policy:<kind>``) used as the ``reason``
    label on the ``fastpath_fallbacks_total`` telemetry counter, so
    fallback reports stay diffable across runs.
    """
    from repro.fastpath.driver import unsupported_reason as _reason

    return _reason(job)


def replay(job, trace):
    """Fast replay of ``job`` over the whole of ``trace``; ``(events, result)``.

    :func:`repro.fastpath.driver.replay_trace` under the job's warm-up.
    Raises :class:`FastPathUnsupported` for configurations outside the
    proven support matrix.
    """
    from repro.fastpath.driver import replay_trace

    events, result, _, _ = replay_trace(job, trace, warmup=job.warmup)
    return events, result
