"""The submitter side of the fleet: enqueue, wait, absorb, yield.

:class:`FleetExecutor` plugs into the engine like any other
:class:`~repro.engine.executor.Executor`, but the work runs in
detached ``python -m repro.fleet worker`` processes that may belong to
other users entirely.  The split of responsibilities:

- the **queue** carries job descriptions out and telemetry shipments
  back;
- the **shared disk caches** carry the outcomes: workers replay into
  the engine's content-addressed replay cache, and the submitter reads
  each done job back from the same ``cache_dir`` -- which is also why
  two submitters of one fingerprint share a single execution.

Liveness is the submitter's problem: while waiting it periodically
reaps expired leases (a dead worker's job goes back to ``pending``
with a counter and a ``log_event``), and a job that exhausts its
attempt budget -- or a wait that exceeds ``wait_timeout`` -- raises a
typed :class:`FleetJobError` instead of hanging the sweep.
"""

from __future__ import annotations

import pickle
import time
from typing import Optional

from repro import telemetry
from repro.engine.executor import Executor
from repro.fleet.queue import (
    DEFAULT_LEASE_SECONDS,
    DEFAULT_MAX_ATTEMPTS,
    WorkQueue,
)
from repro.telemetry.workers import absorb_shipment

__all__ = ["FleetExecutor", "FleetJobError"]


class FleetJobError(RuntimeError):
    """A fleet job cannot complete (failed permanently or timed out)."""

    def __init__(self, fingerprint: str, attempts: int, error: str):
        self.fingerprint = fingerprint
        self.attempts = attempts
        self.error = error
        super().__init__(
            f"fleet job {fingerprint[:12]} failed after "
            f"{attempts} attempt(s): {error}"
        )


class FleetExecutor(Executor):
    """Run the engine's pending jobs through a fleet queue."""

    name = "fleet"
    distributes = True

    def __init__(
        self,
        queue_path: str,
        poll: float = 0.2,
        wait_timeout: Optional[float] = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
    ):
        self.queue_path = queue_path
        self.poll = poll
        self.wait_timeout = wait_timeout
        self.max_attempts = max_attempts
        self.lease_seconds = lease_seconds

    def will_distribute(self, n_jobs: int) -> bool:
        # Even a single job goes through the queue: cross-submitter
        # dedup only works when everyone always asks the queue.
        return n_jobs > 0

    def execute(self, jobs, engine):
        if engine.cache_dir is None:
            raise ValueError(
                "the fleet executor needs the engine's cache_dir: the "
                "shared disk replay cache is how workers hand outcomes "
                "back to submitters"
            )
        queue = WorkQueue(self.queue_path)
        try:
            for job in jobs:
                queue.enqueue(job, max_attempts=self.max_attempts)
            self._wait(queue, jobs)
            for job in jobs:
                absorb_shipment(self._shipment(queue, job.fingerprint))
                yield job, self._outcome(engine, job)
        finally:
            queue.close()

    def _wait(self, queue: WorkQueue, jobs) -> None:
        """Block until every job is done; raise FleetJobError otherwise."""
        pending = {job.fingerprint for job in jobs}
        deadline = (
            time.monotonic() + self.wait_timeout
            if self.wait_timeout is not None
            else None
        )
        with telemetry.trace_span("fleet.wait", jobs=len(jobs)):
            while pending:
                queue.reap_expired()
                states = queue.states(pending)
                for fp in list(pending):
                    state, error, attempts = states.get(
                        fp, ("missing", "job vanished from the queue", 0)
                    )
                    if state == "done":
                        pending.discard(fp)
                    elif state in ("failed", "missing"):
                        raise FleetJobError(fp, attempts, error or state)
                if not pending:
                    return
                if deadline is not None and time.monotonic() > deadline:
                    fp = sorted(pending)[0]
                    raise FleetJobError(
                        fp,
                        states.get(fp, ("", None, 0))[2],
                        f"timed out after {self.wait_timeout}s waiting for "
                        f"{len(pending)} job(s) (no live workers?)",
                    )
                time.sleep(self.poll)

    @staticmethod
    def _shipment(queue: WorkQueue, fingerprint: str):
        raw = queue.take_shipment(fingerprint)
        if not raw:
            return None
        try:
            return pickle.loads(raw)
        except Exception:
            # A malformed shipment only loses observability, never
            # results -- those live in the shared replay cache.
            telemetry.log_event(
                "fleet_shipment_unreadable", fingerprint=fingerprint[:12]
            )
            return None

    @staticmethod
    def _outcome(engine, job):
        """Read a done job's outcome back from the shared disk cache.

        A missing or corrupt cache entry (evicted between completion
        and pickup, say) heals by re-executing locally -- same
        fingerprint, bit-identical result.
        """
        outcome = engine._replays.get(job.fingerprint)
        if outcome is not None:
            return outcome
        telemetry.log_event(
            "fleet_outcome_missing",
            message="done job absent from shared cache; re-executing",
            fingerprint=job.fingerprint[:12],
        )
        return engine.execute(job)
