#!/usr/bin/env python
"""Branch reversal walkthrough (Section 5.5).

Shows why correct/incorrect training enables reversal: plots (as text)
the cic output density split by prediction outcome, locates the
empirical region where mispredictions dominate, then applies the
three-region policy (reverse / gate / pass) and reports the outcome
against gating alone.  All replays go through the engine, so the
density pass and the policy passes share one generated trace.

Run:  python examples/branch_reversal.py [benchmark]
"""

import sys

from repro.analysis.density import OutputDensity
from repro.engine import GATING_POLICY, THREE_REGION_POLICY, EstimatorSpec
from repro.experiments.common import (
    ExperimentSettings,
    replay_benchmark,
    run_gating,
)
from repro.pipeline.config import BASELINE_40X4


def text_histogram(density, bins=24, width=50):
    """Two-column ASCII density plot (CB vs MB per output bin)."""
    edges, cb, mb = density.histogram(bins=bins)
    cb_max, mb_max = max(cb.max(), 1), max(mb.max(), 1)
    lines = ["output      CB                         | MB"]
    for i in range(bins):
        centre = (edges[i] + edges[i + 1]) / 2
        cb_bar = "#" * int(width * cb[i] / cb_max / 2)
        mb_bar = "*" * int(width * mb[i] / mb_max / 2)
        lines.append(f"{centre:8.0f}  {cb_bar:<25}| {mb_bar}")
    return "\n".join(lines)


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "twolf"
    settings = ExperimentSettings(
        n_branches=100_000, warmup=33_000, benchmarks=(benchmark,)
    )

    # Step 1: collect the output density (Figure 4/5 analysis).
    result = replay_benchmark(
        benchmark,
        settings,
        EstimatorSpec.of("perceptron", threshold=0),
        collect_outputs=True,
    ).result
    density = OutputDensity.from_frontend_result(result)
    print(f"perceptron_cic output density on {benchmark!r}:")
    print(text_histogram(density))

    crossover = density.crossover_output()
    print(f"\nempirical crossover (MB > CB) at output ~ {crossover}")

    # Step 2: pick thresholds from the density, as Section 5.5 does.
    reverse_at = crossover if crossover is not None else 40.0
    gate_at = -90.0
    reversal_region = density.region(reverse_at, float("inf"))
    print(
        f"region y>{reverse_at:.0f}: {reversal_region.mispredicted} MB vs "
        f"{reversal_region.correct} CB "
        f"(mispredict fraction {reversal_region.mispredict_fraction:.0%})"
    )

    # Step 3: combined policy vs gating alone, on one shared baseline.
    machine = BASELINE_40X4.with_gating(2)
    times = run_gating(
        settings,
        [
            (
                EstimatorSpec.of(
                    "perceptron",
                    threshold=gate_at,
                    strong_threshold=float(reverse_at),
                ),
                THREE_REGION_POLICY,
            ),
            (EstimatorSpec.of("perceptron", threshold=gate_at), GATING_POLICY),
        ],
        BASELINE_40X4,
        [[machine], [machine]],
    )
    base = times.bases[0]
    (combined,), (gating_only,) = times.stats[0]

    print(
        f"\nreversals: {combined.reversals} "
        f"({combined.reversals_correcting} fixed, "
        f"{combined.reversals_breaking} broken)"
    )
    for label, stats in (("gating alone   ", gating_only),
                         ("gating+reversal", combined)):
        u, p = stats.cost_vs(base)
        print(f"{label}: U = {u:5.1f}%   P = {p:5.1f}%")


if __name__ == "__main__":
    main()
