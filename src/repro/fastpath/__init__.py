"""Opt-in vectorized fast backend (``backend="fast"`` on SimJob).

This package is import-safe without numpy: importing it never raises,
and :func:`available` / :func:`require` report whether the optional
dependency (installable as the ``repro[fast]`` extra) is present.  The
reference backend keeps working either way.

Nothing here imports the rest of :mod:`repro` at module import time --
the kernels and driver load lazily on first use -- so this module can
be probed standalone (e.g. by the no-numpy CI leg).
"""

from __future__ import annotations

__all__ = [
    "FastPathUnavailable",
    "FastPathUnsupported",
    "available",
    "require",
    "supports",
    "unsupported_reason",
    "replay",
]

try:
    import numpy as _numpy  # noqa: F401
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    _numpy = None


class FastPathUnavailable(RuntimeError):
    """The fast backend's optional dependency (numpy) is missing."""


class FastPathUnsupported(RuntimeError):
    """The job's configuration has no proven fast pass; use reference."""


def available() -> bool:
    """True when the fast backend can run (numpy importable)."""
    return _numpy is not None


def require() -> None:
    """Raise :class:`FastPathUnavailable` unless the backend can run."""
    if _numpy is None:
        raise FastPathUnavailable(
            "the fast backend requires numpy, which is not installed; "
            "install the optional extra with: pip install 'repro[fast]' "
            "(or run with backend='reference')"
        )


def supports(job) -> bool:
    """True when ``job`` can run on the fast backend bit-identically."""
    if _numpy is None:
        return False
    from repro.fastpath.driver import supports_job

    return supports_job(job)


def unsupported_reason(job) -> "str | None":
    """Why ``job`` cannot run fast, or ``None`` when it can.

    Reasons are short stable tokens (``no-numpy``,
    ``predictor:<kind>``, ``estimator:<kind>``, ``policy:<kind>``) used
    as the ``reason`` label on the ``fastpath_fallbacks_total``
    telemetry counter, so fallback reports stay diffable across runs.
    """
    if _numpy is None:
        return "no-numpy"
    from repro.fastpath.driver import unsupported_reason as _reason

    return _reason(job)


def replay(job, trace):
    """Fast replay of ``job`` over the whole of ``trace``; ``(events, result)``.

    The fresh whole-trace case of
    :func:`repro.fastpath.driver.replay_segment`, under the job's
    warm-up.  Raises :class:`FastPathUnavailable` without numpy and
    :class:`FastPathUnsupported` for configurations outside the proven
    support matrix.
    """
    require()
    from repro.fastpath.driver import replay_segment

    events, result, _ = replay_segment(job, trace, warmup=job.warmup)
    return events, result
