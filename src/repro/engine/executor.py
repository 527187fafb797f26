"""Pluggable execution strategies for the engine's fan-out.

Every place the stack runs simulation work "somewhere else" goes
through one :class:`Executor`:

- :class:`SerialExecutor` -- in the submitting process.
- :class:`PoolExecutor` -- a per-call ``ProcessPoolExecutor``, the
  single home of the local worker-bootstrap / telemetry-drain /
  result-marshalling protocol: workers speak
  :mod:`repro.telemetry.workers` shipments through :func:`_pool_entry`.
- ``FleetExecutor`` (:mod:`repro.fleet.executor`) -- a sqlite work
  queue drained by detached ``python -m repro.fleet worker``
  processes, resolved lazily here so the engine has no import-time
  dependency on the fleet tier.

:meth:`Executor.execute` runs a batch of :class:`SimJob` s, yielding
``(job, outcome)`` pairs in submission order as they land (the
engine's per-outcome crash-resume contract).

Executors are throughput knobs only.  Replay is deterministic in the
job description, so every strategy produces bit-identical events and
results; the verify layers enforce it.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Iterator, Optional, Sequence, Tuple

from repro import telemetry
from repro.telemetry.workers import absorb_shipment, worker_begin, worker_collect

__all__ = [
    "EXECUTOR_NAMES",
    "Executor",
    "SerialExecutor",
    "PoolExecutor",
    "resolve_executor",
]

#: Names accepted by :func:`resolve_executor` (and the ``--executor``
#: CLI flags).  ``auto`` picks pool or serial from the worker budget.
EXECUTOR_NAMES = ("auto", "serial", "pool", "fleet")


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

    #: Short name used in CLI flags and telemetry labels.
    name = "base"
    #: True when :meth:`execute` can run jobs outside the submitting
    #: process (feeds the engine's parallel-execution tallies).
    distributes = False

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
    distributes = False

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
    distributes = True

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


def resolve_executor(
    spec,
    workers: int = 1,
    cache_dir: Optional[str] = None,
    fleet_queue: Optional[str] = None,
) -> Executor:
    """Turn an executor spec into an instance.

    ``spec`` may be an :class:`Executor` (returned as-is), ``None`` or
    ``"auto"`` (pool when ``workers > 1``, else serial), or one of the
    names in :data:`EXECUTOR_NAMES`.  ``"fleet"`` resolves lazily
    against :mod:`repro.fleet` and needs a queue path -- explicit via
    ``fleet_queue``, or the conventional ``<cache_dir>/fleet/queue.sqlite``
    beside the shared replay cache the fleet requires anyway.
    """
    if isinstance(spec, Executor):
        return spec
    if spec is None or spec == "auto":
        return PoolExecutor(workers) if workers > 1 else SerialExecutor(workers)
    if spec == "serial":
        return SerialExecutor(workers)
    if spec == "pool":
        return PoolExecutor(workers)
    if spec == "fleet":
        from repro.fleet import FleetExecutor, default_queue_path

        if fleet_queue is None:
            if cache_dir is None:
                raise ValueError(
                    "executor 'fleet' needs a queue: pass fleet_queue or "
                    "configure a cache_dir (shared caches are how fleet "
                    "workers hand results back)"
                )
            fleet_queue = default_queue_path(cache_dir)
        return FleetExecutor(fleet_queue)
    raise ValueError(
        f"unknown executor {spec!r} (expected one of {EXECUTOR_NAMES} "
        "or an Executor instance)"
    )
