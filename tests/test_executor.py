"""The pluggable executor layer: serial and pool.

The refactor contract: all process fan-out goes through
:mod:`repro.engine.executor` (no direct ``ProcessPoolExecutor`` usage
left in the engine), and executor choice is a throughput knob only --
serial, pool and auto produce bit-identical outcomes.
"""

import inspect

import pytest

from repro import telemetry
from repro.engine import (
    Engine,
    PoolExecutor,
    SerialExecutor,
    SimJob,
    resolve_executor,
)
from repro.engine.canonical import canonical_metrics


def _jobs(n=3, n_branches=1500):
    return [
        SimJob(benchmark="gzip", n_branches=n_branches, warmup=100, seed=s)
        for s in range(1, n + 1)
    ]


class TestNoDirectPoolUsage:
    """Acceptance criterion: fan-out only via the Executor abstraction."""

    @pytest.mark.parametrize("module_name", ["engine"])
    def test_no_process_pool_executor(self, module_name):
        import importlib

        module = importlib.import_module(f"repro.engine.{module_name}")
        source = inspect.getsource(module)
        assert "ProcessPoolExecutor" not in source


class TestResolveExecutor:
    def test_auto_picks_by_workers(self):
        assert isinstance(resolve_executor("auto", workers=1), SerialExecutor)
        assert isinstance(resolve_executor(None, workers=1), SerialExecutor)
        pool = resolve_executor("auto", workers=4)
        assert isinstance(pool, PoolExecutor)
        assert pool.max_workers == 4

    def test_explicit_names(self):
        serial = resolve_executor("serial", workers=4)
        assert isinstance(serial, SerialExecutor)
        assert serial.local_workers == 4
        assert isinstance(resolve_executor("pool", workers=1), PoolExecutor)

    def test_instance_passthrough(self):
        executor = PoolExecutor(2)
        assert resolve_executor(executor, workers=8) is executor

    def test_unknown_name_rejected(self):
        for name in ("carrier-pigeon", "fleet"):
            with pytest.raises(ValueError, match="unknown executor"):
                resolve_executor(name)

    def test_engine_validates_executor_name(self):
        with pytest.raises(ValueError, match="executor"):
            Engine(executor="carrier-pigeon")


class TestExecutorEquivalence:
    def test_serial_pool_auto_agree(self):
        jobs = _jobs()
        serial = Engine(max_workers=2, executor="serial").run(jobs)
        pool = Engine(max_workers=2, executor="pool").run(jobs)
        auto = Engine(max_workers=2).run(jobs)
        for a, b, c in zip(serial, pool, auto):
            assert a.events == b.events == c.events
            assert (
                canonical_metrics(a.result)
                == canonical_metrics(b.result)
                == canonical_metrics(c.result)
            )

    def test_pool_delegates_single_job_inline(self):
        pool = PoolExecutor(4)
        assert not pool.will_distribute(1)
        assert pool.will_distribute(2)
        assert not PoolExecutor(1).will_distribute(5)
        assert not SerialExecutor(4).will_distribute(5)

    def test_parallel_tally_counts_distributed_batches_only(self):
        jobs = _jobs(2)
        engine = Engine(max_workers=2, executor="pool")
        engine.run(jobs)
        assert engine.stats.parallel_executed == 2
        serial = Engine(max_workers=2, executor="serial")
        serial.run(jobs)
        assert serial.stats.parallel_executed == 0
        assert serial.stats.executed == 2


class TestPoolTelemetryShipments:
    def test_worker_metrics_merge_home(self):
        jobs = _jobs(2)
        registry = telemetry.enable()
        registry.reset()
        try:
            Engine(max_workers=2, executor="pool").run(jobs)
            snap = registry.snapshot()
            replays = sum(
                snap.counter_series("engine_replays_total").values()
            )
            assert replays == len(jobs)
            assert snap.counter("engine_jobs_parallel_total") == len(jobs)
        finally:
            telemetry.disable()
            registry.reset()
