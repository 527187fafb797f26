"""One replay pass: every front-end replay is one whole-trace pass.

Replaying a branch trace through predictor, confidence estimator and
policy has a reference and a fast implementation.
:func:`_replay_trace` is the only code that picks between them: it
checks :func:`repro.fastpath.supports` and counts the fallback
``reason`` when the fast path declines, and when the fast path raises
:class:`~repro.fastpath.FastPathUnsupported` at runtime (e.g. oversized
pcs) it reruns the whole trace on the reference loop.  Either way the
replay counts under the backend that produced it.  See "Replay" in
``docs/engine.md``.
"""

from __future__ import annotations

import time

from repro import telemetry
from repro.engine.job import ReplayOutcome, SimJob


def _count_fallback(reason: str) -> None:
    tel = telemetry.get_registry()
    if tel.enabled:
        tel.counter("fastpath_fallbacks_total", reason=reason).inc()


def _count_replay(backend: str, started: float) -> None:
    """Count and time one finished replay under the backend that ran it."""
    tel = telemetry.get_registry()
    if tel.enabled:
        tel.counter("engine_replays_total", backend=backend).inc()
        tel.histogram("engine_replay_seconds", backend=backend).observe(
            time.monotonic() - started
        )


def _replay_trace(job: SimJob, trace) -> ReplayOutcome:
    """Replay a prepared trace through fresh spec-built components.

    Pure in the job description: no shared mutable state is read, which
    is what lets serial, parallel and cached execution agree bit for
    bit, on either backend.
    """
    started = time.monotonic()
    backend = "reference"
    if job.backend == "fast":
        from repro import fastpath

        if not fastpath.supports(job):
            _count_fallback(fastpath.unsupported_reason(job) or "unknown")
        else:
            try:
                events, result = fastpath.replay(job, trace)
                backend = "fast"
            except fastpath.FastPathUnsupported:
                # Nothing is shared with the fast attempt, so the
                # reference rerun below is exact.
                _count_fallback("runtime")
    if backend == "reference":
        from repro.core.frontend import FrontEnd

        frontend = FrontEnd(
            job.predictor.build(),
            job.estimator.build(),
            job.policy.build(),
            collect_outputs=job.collect_outputs,
        )
        events, result = frontend.replay(trace, job.warmup, events=True)
    _count_replay(backend, started)
    return ReplayOutcome(events=events, result=result, backend=backend)
