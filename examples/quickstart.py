#!/usr/bin/env python
"""Quickstart: estimate branch confidence on a synthetic benchmark.

Builds the paper's setup declaratively: a :class:`SimJob` names the
workload (a SPECint2000-like trace), the Table 1 baseline hybrid
predictor, and the perceptron confidence estimator; the engine replays
it (cached -- run this twice and the second run is instant) and
reports the Section 2.2 quality metrics.

Run:  python examples/quickstart.py [benchmark] [n_branches]
"""

import sys

from repro.engine import EstimatorSpec, SimJob, get_engine


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "gcc"
    n_branches = int(sys.argv[2]) if len(sys.argv) > 2 else 60_000

    job = SimJob(
        benchmark=benchmark,
        n_branches=n_branches,
        warmup=n_branches // 3,
        seed=1,
        estimator=EstimatorSpec.of("perceptron", threshold=0),
    )
    print(f"job fingerprint: {job.fingerprint[:16]}...")

    engine = get_engine()
    trace = engine.trace(*job.trace_key)
    stats = trace.stats()
    print(
        f"  {stats.branches} branches, {stats.total_uops} uops, "
        f"{stats.taken_fraction:.0%} taken, "
        f"{stats.static_branches} static branches"
    )

    predictor = job.predictor.build()
    estimator = job.estimator.build()
    print(
        f"replaying through {predictor.name} "
        f"({predictor.storage_kib:.0f} KiB) + {estimator.name} "
        f"({estimator.storage_kib:.1f} KiB)..."
    )

    result = engine.replay(job).result
    matrix = result.matrix

    print()
    print(f"branches measured     : {result.branches}")
    print(f"misprediction rate    : {result.misprediction_rate:.2%}")
    print(f"flagged low confidence: {matrix.flagged_low} "
          f"({matrix.flagged_low / matrix.total:.2%} of branches)")
    print(f"PVN (accuracy)        : {matrix.pvn:.1%}  "
          "(probability a low-confidence flag is right)")
    print(f"Spec (coverage)       : {matrix.spec:.1%}  "
          "(share of mispredicts flagged)")


if __name__ == "__main__":
    main()
