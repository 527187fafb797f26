#!/usr/bin/env python
"""Pipeline-gating design study: the U-vs-P frontier.

Sweeps the perceptron confidence estimator's threshold and the
low-confidence branch-counter threshold (PL) on a chosen machine,
reporting the reduction in executed uops (U) against the performance
loss (P) for each design point -- the exploration behind Table 4's
"spectrum of interesting design options".

Each estimator threshold is replayed exactly once through the engine
(``run_gating``); both PL values time the same event stream, since PL
only affects the pipeline timing model, not the front-end replay.

Run:  python examples/pipeline_gating_study.py [benchmark] [machine]
      machine in {20c4w, 20c8w, 40c4w}
"""

import sys

from repro import format_table
from repro.experiments.common import (
    ExperimentSettings,
    gated_perceptrons,
    run_gating,
)
from repro.pipeline.config import PIPELINE_PRESETS

THRESHOLDS = (25, 0, -25, -50, -75)
COUNTERS = (1, 2)


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "gzip"
    machine = sys.argv[2] if len(sys.argv) > 2 else "40c4w"
    config = PIPELINE_PRESETS[machine]
    settings = ExperimentSettings(
        n_branches=60_000, warmup=20_000, benchmarks=(benchmark,)
    )

    print(f"workload {benchmark!r} on the {config.label()} machine")
    machines = [config.with_gating(pl) for pl in COUNTERS]
    times = run_gating(
        settings, gated_perceptrons(THRESHOLDS), config,
        [machines] * len(THRESHOLDS),
    )
    base = times.bases[0]

    rows = []
    for j, pl in enumerate(COUNTERS):
        for i, threshold in enumerate(THRESHOLDS):
            stats = times.stats[0][i][j]
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
