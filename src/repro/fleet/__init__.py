"""Distributed experiment fleet: a sqlite work queue plus workers.

The fleet tier turns the engine's single-machine fan-out into a
many-machine, many-user one with two shared artifacts:

- a :class:`~repro.fleet.queue.WorkQueue` (sqlite) keyed by
  :class:`~repro.engine.job.SimJob` fingerprints, drained by detached
  ``python -m repro.fleet worker`` loops;
- the engine's content-addressed disk caches under a shared
  ``--cache-dir``, through which workers hand outcomes back and two
  submitters of the same fingerprint share one execution.

Submit with ``--executor fleet``, one of the run flags that ``python -m
repro.sweeps run`` and its alias ``python -m repro.experiments`` share,
or programmatically via :class:`~repro.fleet.executor.FleetExecutor`.  See
``docs/distributed.md`` for the queue schema and lease protocol.
"""

from repro.fleet.executor import FleetExecutor, FleetJobError
from repro.fleet.queue import (
    FLEET_SCHEMA,
    FleetSchemaError,
    LeasedJob,
    WorkQueue,
    default_queue_path,
)
from repro.fleet.worker import FleetWorker

__all__ = [
    "FLEET_SCHEMA",
    "FleetExecutor",
    "FleetJobError",
    "FleetSchemaError",
    "FleetWorker",
    "LeasedJob",
    "WorkQueue",
    "default_queue_path",
]
