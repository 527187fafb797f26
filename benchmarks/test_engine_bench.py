"""Fast-backend speedup guard.

The vectorized replay must stay measurably faster than the reference
loop *and* bit-identical to it; CI's ``bench-guard`` job fails on
either regression.  A plain pytest test: run it with ``-s`` to see the
measured ratio.
"""

import time

from repro.engine import Engine, EstimatorSpec, SimJob

THRESHOLDS = (25, 0, -25, -50)


def _jobs():
    return [
        SimJob(
            benchmark="gzip",
            n_branches=14_000,
            warmup=5_000,
            seed=1,
            estimator=EstimatorSpec.of("perceptron", threshold=t),
        )
        for t in THRESHOLDS
    ]


def test_fast_vs_reference_speedup():
    """Speedup guard: the fast backend must beat the reference loop.

    Both batches replay the same pre-generated trace, so the timings
    compare the replay loops only.  The outcomes must be bit-identical
    (same events, same canonical metrics, same digests); the speedup
    floor is set well below the 8-17x measured on a 2-vCPU VM so
    scheduler noise on shared CI runners cannot flake it.
    """
    engine = Engine()
    engine.trace("gzip", 14_000, 1)  # pre-warm: time replays, not tracegen
    reference_jobs = _jobs()
    fast_jobs = [job.with_(backend="fast") for job in reference_jobs]

    start = time.perf_counter()
    reference = engine.run(reference_jobs)
    reference_seconds = time.perf_counter() - start

    start = time.perf_counter()
    fast = engine.run(fast_jobs)
    fast_seconds = time.perf_counter() - start

    for ref, quick in zip(reference, fast):
        assert ref.backend == "reference"
        assert quick.backend == "fast"
        assert ref.canonical_metrics() == quick.canonical_metrics()
        assert ref.metrics_digest() == quick.metrics_digest()
        assert ref.events == quick.events

    ratio = reference_seconds / fast_seconds
    print(
        f"\nfast backend speedup: {ratio:.1f}x "
        f"({reference_seconds:.2f}s reference vs {fast_seconds:.2f}s fast)"
    )
    assert ratio >= 3.0, (
        f"fast backend is no longer measurably faster: {ratio:.2f}x "
        f"({reference_seconds:.2f}s reference vs {fast_seconds:.2f}s fast)"
    )
