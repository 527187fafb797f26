#!/usr/bin/env python
"""Pipeline-gating design study: the U-vs-P frontier.

Sweeps the perceptron confidence estimator's threshold and the
low-confidence branch-counter threshold (PL) on a chosen machine,
reporting the reduction in executed uops (U) against the performance
loss (P) for each design point -- the exploration behind Table 4's
"spectrum of interesting design options".

Each estimator threshold is replayed exactly once through the engine;
both PL values reuse the same cached event stream, since PL only
affects the pipeline timing model, not the front-end replay.

Run:  python examples/pipeline_gating_study.py [benchmark] [machine]
      machine in {20c4w, 20c8w, 40c4w}
"""

import sys

from repro import format_table
from repro.engine import (
    ALWAYS_HIGH,
    GATING_POLICY,
    EstimatorSpec,
    SimJob,
    get_engine,
)
from repro.experiments.common import simulate_events
from repro.pipeline.config import PIPELINE_PRESETS

THRESHOLDS = (25, 0, -25, -50, -75)
COUNTERS = (1, 2)


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "gzip"
    machine = sys.argv[2] if len(sys.argv) > 2 else "40c4w"
    config = PIPELINE_PRESETS[machine]
    n_branches, warmup = 60_000, 20_000

    print(f"workload {benchmark!r} on the {config.label()} machine")
    base_job = SimJob(
        benchmark=benchmark, n_branches=n_branches, warmup=warmup, seed=1,
        estimator=ALWAYS_HIGH,
    )
    jobs = [base_job] + [
        base_job.with_(
            estimator=EstimatorSpec.of("perceptron", threshold=t),
            policy=GATING_POLICY,
        )
        for t in THRESHOLDS
    ]
    engine = get_engine()
    outcomes = engine.run(jobs)
    base = simulate_events(outcomes[0].events, config)

    rows = []
    for pl in COUNTERS:
        gated = config.with_gating(pl)
        for threshold, outcome in zip(THRESHOLDS, outcomes[1:]):
            stats = simulate_events(outcome.events, gated)
            u, p = stats.cost_vs(base)
            rows.append(
                {
                    "lambda": threshold,
                    "PL": pl,
                    "U %": round(u, 1),
                    "P %": round(p, 1),
                    "stalls": stats.gating_stalls,
                    "wrong-path saved": round(stats.wrong_path_uops_saved),
                }
            )

    print(format_table(rows, title="Gating design-space frontier"))
    best = max(
        (r for r in rows if r["P %"] <= 1.0),
        key=lambda r: r["U %"],
        default=None,
    )
    if best:
        print(
            f"\nbest design point at <=1% loss: lambda={best['lambda']}, "
            f"PL{best['PL']} -> {best['U %']}% fewer uops executed"
        )
    else:
        print("\nno design point achieved <=1% loss at this trace size")


if __name__ == "__main__":
    main()
