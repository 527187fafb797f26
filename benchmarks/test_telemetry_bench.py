"""Telemetry overhead guard.

The telemetry package promises to be cheap while disabled: every
instrumented call site pays one attribute check and ``trace_span``
returns a shared no-op context.  This guard holds that promise to a
budget -- the *estimated* total disabled-path cost over a cold engine
batch must stay within 2% of the batch's runtime.

The estimate is per-op cost (measured over a tight loop) times the
number of instrument operations the same batch performs when telemetry
is on.  Estimating instead of A/B-timing two whole batches keeps the
guard deterministic on noisy shared runners: a sub-1% real effect
cannot be resolved by comparing two ~seconds-long wall times.
"""

import time

from repro import telemetry
from repro.engine import Engine, EstimatorSpec, SimJob

OVERHEAD_BUDGET = 0.02  # disabled telemetry may cost at most 2%


def _jobs():
    return [
        SimJob(
            benchmark="gzip",
            n_branches=14_000,
            warmup=5_000,
            seed=1,
            estimator=EstimatorSpec.of("perceptron", threshold=t),
        )
        for t in (25, 0, -25, -50)
    ]


def _operation_count() -> tuple:
    """(instrument ops, batch seconds) for one cold batch, telemetry on."""
    telemetry.reset()
    telemetry.enable()
    try:
        start = time.perf_counter()
        Engine().run(_jobs())
        seconds = time.perf_counter() - start
        snap = telemetry.get_registry().snapshot()
        ops = sum(snap.counters.values()) + sum(
            hist["count"] for hist in snap.histograms.values()
        )
    finally:
        telemetry.disable()
        telemetry.reset()
    return ops, seconds


def _disabled_per_op_seconds(iterations: int = 200_000) -> float:
    """Measured cost of one disabled call site (check + no-op instrument)."""
    reg = telemetry.get_registry()
    assert not reg.enabled
    start = time.perf_counter()
    for _ in range(iterations):
        if reg.enabled:  # the one attribute check every call site pays
            reg.counter("never").inc()
        telemetry.trace_span("never")
    return (time.perf_counter() - start) / iterations


def test_disabled_overhead_within_budget():
    ops, batch_seconds = _operation_count()
    assert ops > 0, "the batch performed no instrument operations"
    per_op = _disabled_per_op_seconds()
    estimated = ops * per_op
    budget = OVERHEAD_BUDGET * batch_seconds
    print(
        f"\ndisabled-telemetry estimate: {ops} ops x {per_op * 1e9:.0f}ns "
        f"= {estimated * 1e3:.2f}ms vs budget {budget * 1e3:.0f}ms "
        f"({OVERHEAD_BUDGET:.0%} of {batch_seconds:.2f}s batch)"
    )
    assert estimated <= budget, (
        f"disabled telemetry is too expensive: estimated "
        f"{estimated:.4f}s over a {batch_seconds:.2f}s batch "
        f"(> {OVERHEAD_BUDGET:.0%})"
    )

