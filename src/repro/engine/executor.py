"""The engine's one fan-out seam: serial or a local process pool.

Every place the stack runs simulation work "somewhere else" goes
through one :class:`Executor`:

- :class:`SerialExecutor` -- in the submitting process.
- :class:`PoolExecutor` -- a per-call ``ProcessPoolExecutor``, the
  single home of the worker-bootstrap / telemetry-drain /
  result-marshalling protocol: workers speak
  :mod:`repro.telemetry.workers` shipments through :func:`_pool_entry`.

``--jobs N`` picks between them (:func:`resolve_executor`): a pool
when N > 1, serial otherwise.

:meth:`Executor.execute` runs a batch of :class:`SimJob` s, yielding
``(job, outcome)`` pairs in submission order as they land (the
engine's per-outcome crash-resume contract).

Executors are throughput knobs only.  Replay is deterministic in the
job description, so every strategy produces bit-identical events and
results; the verify layers enforce it.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Iterator, Sequence, Tuple

from repro import telemetry
from repro.telemetry.workers import absorb_shipment, worker_begin, worker_collect

__all__ = [
    "EXECUTOR_NAMES",
    "Executor",
    "SerialExecutor",
    "PoolExecutor",
    "resolve_executor",
]

#: Names accepted by :func:`resolve_executor`.  ``auto`` picks pool or
#: serial from the worker budget.
EXECUTOR_NAMES = ("auto", "serial", "pool")


def _pool_entry(payload):
    """Worker-process entry: one task under the shipment protocol.

    Module-level so pools can pickle it by reference.  ``payload`` is
    ``(count, fn, args)``; the task's return value comes back paired
    with the drained :class:`~repro.telemetry.workers.WorkerShipment`.
    """
    count, fn, args = payload
    worker_begin(count=count)
    value = fn(*args)
    return value, worker_collect(count=count)


class Executor:
    """Strategy interface: where and how submitted work runs."""

    #: Short name used in telemetry labels.
    name = "base"

    def will_distribute(self, n_jobs: int) -> bool:
        """Would a batch of ``n_jobs`` actually leave this process?"""
        return False

    def execute(self, jobs: Sequence, engine) -> Iterator[Tuple[object, object]]:
        """Run ``jobs`` through ``engine``'s caches; yield per outcome."""
        raise NotImplementedError


class SerialExecutor(Executor):
    """Run everything in the submitting process.

    ``local_workers`` records the worker budget the executor was built
    from, so every executor constructs from the same argument; serial
    execution never fans out.
    """

    name = "serial"

    def __init__(self, local_workers: int = 1):
        self.local_workers = local_workers

    def execute(self, jobs, engine):
        for job in jobs:
            yield job, engine.execute(job)


class PoolExecutor(Executor):
    """Fan work out over a per-call ``ProcessPoolExecutor``.

    Pools are scoped to one ``execute`` call, so forked workers inherit
    the caller's telemetry state as of that call -- the fork-time
    capture decision the shipment protocol relies on.  A batch that
    cannot benefit (one job, or one worker) runs in-process through
    :class:`SerialExecutor`.
    """

    name = "pool"

    def __init__(self, max_workers: int = 2):
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers

    def _pool_size(self, n_jobs: int) -> int:
        return min(self.max_workers, n_jobs) if n_jobs > 1 else 1

    def will_distribute(self, n_jobs: int) -> bool:
        return self._pool_size(n_jobs) > 1

    def execute(self, jobs, engine):
        from repro.engine.engine import _traced_execute_job

        n = self._pool_size(len(jobs))
        if n <= 1:
            yield from SerialExecutor().execute(jobs, engine)
            return
        # Workers count into their own registries only when the parent
        # is collecting; each job ships a drained shipment home.
        count = telemetry.get_registry().enabled
        payloads = [(count, _traced_execute_job, (job,)) for job in jobs]
        with ProcessPoolExecutor(max_workers=n) as pool:
            for job, (outcome, shipment) in zip(
                jobs, pool.map(_pool_entry, payloads, chunksize=1)
            ):
                absorb_shipment(shipment)
                yield job, outcome


def resolve_executor(spec, workers: int = 1) -> Executor:
    """Turn an executor spec into an instance.

    ``spec`` may be an :class:`Executor` (returned as-is), ``None`` or
    ``"auto"`` (pool when ``workers > 1``, else serial), or one of the
    names in :data:`EXECUTOR_NAMES`.
    """
    if isinstance(spec, Executor):
        return spec
    if spec is None or spec == "auto":
        return PoolExecutor(workers) if workers > 1 else SerialExecutor(workers)
    if spec == "serial":
        return SerialExecutor(workers)
    if spec == "pool":
        return PoolExecutor(workers)
    raise ValueError(
        f"unknown executor {spec!r} (expected one of {EXECUTOR_NAMES} "
        "or an Executor instance)"
    )
