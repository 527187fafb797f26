"""The worker-process telemetry handoff protocol.

The engine's process pool (:class:`~repro.engine.executor.PoolExecutor`)
runs work in forked workers; they hand their telemetry home through
this three-step protocol:

1. :func:`worker_begin` -- shed inherited parent state (a fork-started
   worker inherits the parent's registry *contents* and its open trace
   sink; both must go, otherwise the parent's pre-fork counters would be
   merged back a second time and worker spans would interleave into the
   parent's trace file), then arm the worker-local collection the caller
   asked for;
2. :func:`worker_collect` -- drain everything collected since
   :func:`worker_begin` into a picklable :class:`WorkerShipment`;
3. :func:`absorb_shipment` -- parent side: fold a shipment into the
   local registry/trace/profile state.

The *capture* decision (should span events be buffered for the parent
to re-emit?) is sticky per worker process: a forked worker decides from
the parent's fork-time trace sink on its first job, and the decision
must outlive that sink's closure because later jobs land on the same
worker.

The *count* flag says whether the worker counts at all: with
``count=True`` it counts into its own registry and ships a drained
snapshot home per job; with ``count=False`` it stays silent and only
captured spans ride the shipment.  The engine's job pool counts exactly
when the parent is collecting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.telemetry import profile as _profile
from repro.telemetry.registry import (
    MetricsSnapshot,
    disable,
    enable,
    get_registry,
)
from repro.telemetry.spans import (
    begin_span_capture,
    close_trace,
    drain_span_capture,
    replay_captured,
    tracing_active,
)

__all__ = [
    "WorkerShipment",
    "worker_begin",
    "worker_collect",
    "absorb_shipment",
]


#: Sticky per-worker decision: should spans be captured for the parent?
#: Decided once per worker process (from the fork-time trace sink) and
#: reused for every later job on that worker.
_worker_capture: Optional[bool] = None


@dataclass
class WorkerShipment:
    """Everything one unit of worker-side work sends home (picklable).

    ``metrics`` and ``profile`` are ``None`` when the worker ran in the
    parent-counts regime (``count=False``); ``events`` is empty when
    span capture was not armed.
    """

    metrics: Optional[MetricsSnapshot] = None
    events: List[dict] = field(default_factory=list)
    profile: Optional[dict] = None

    @property
    def empty(self) -> bool:
        return (
            (self.metrics is None or self.metrics.empty)
            and not self.events
            and not self.profile
        )


def worker_begin(count: bool) -> None:
    """Start one worker-side collection window.

    Sheds the inherited trace sink, then either enables a fresh
    worker-local registry (``count=True``: the worker counts and ships
    a snapshot home) or disables it (``count=False``: the parent owns
    all counting).  The first call in a process makes the sticky
    span-capture decision from the fork-inherited trace state.
    """
    global _worker_capture
    if _worker_capture is None:
        _worker_capture = tracing_active()
    close_trace()
    if count:
        registry = enable()
        registry.reset()
        _profile.reset_profile()
    else:
        disable()
    if _worker_capture:
        begin_span_capture()


def worker_collect(count: bool) -> WorkerShipment:
    """Drain the current collection window into a shipment.

    Must mirror the ``count`` passed to the window's
    :func:`worker_begin`; draining resets the worker state, so per-job
    shipments never double count.
    """
    events = drain_span_capture() if _worker_capture else []
    metrics = get_registry().drain() if count else None
    prof = _profile.drain_profile() if count else None
    return WorkerShipment(metrics=metrics, events=events, profile=prof)


def absorb_shipment(shipment: Optional[WorkerShipment]) -> None:
    """Fold a worker shipment into this process's telemetry state.

    ``None`` (work that ran in-process and shipped nothing) is a no-op.
    Captured span events are re-emitted under the currently open span
    (see :func:`~repro.telemetry.spans.replay_captured`); metric and
    profile merges are plain additions, so parent totals are
    independent of how work was scheduled across workers.
    """
    if shipment is None:
        return
    if shipment.metrics is not None:
        get_registry().merge(shipment.metrics)
    if shipment.events:
        replay_captured(shipment.events)
    if shipment.profile:
        _profile.merge_profile(shipment.profile)
