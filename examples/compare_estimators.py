#!/usr/bin/env python
"""Compare every confidence estimator in the paper's lineage.

Replays one benchmark through the original JRS, enhanced JRS, Smith
self-confidence, Tyson pattern-based, and perceptron (cic and tnt)
estimators, printing one accuracy/coverage row per estimator -- an
extended version of the paper's Table 3 comparison.

Run:  python examples/compare_estimators.py [benchmark]
"""

import sys

from repro import FrontEnd, format_table, generate_benchmark_trace
from repro.core.frontend import FrontEndResult, aggregate_event
from repro.core.jrs import JRSEstimator
from repro.core.pattern import PatternEstimator
from repro.core.perceptron_estimator import PerceptronConfidenceEstimator
from repro.core.smith import SmithEstimator
from repro.predictors.hybrid import make_baseline_hybrid
from repro.predictors.local import LocalPredictor


def measure(trace, warmup, estimator, substrate=None, predictor=None):
    """Replay the trace; ``substrate`` (the pattern estimator's PAs
    predictor) observes every branch alongside the main predictor; the
    Smith estimator passes its host as ``predictor`` so it reads the
    live counters it classifies."""
    frontend = FrontEnd(predictor or make_baseline_hybrid(), estimator)
    result = FrontEndResult()
    for i, rec in enumerate(trace):
        event = frontend.process(rec)
        if substrate is not None:
            substrate.update(rec.pc, rec.taken, substrate.predict(rec.pc))
        if i >= warmup:
            aggregate_event(result, event)
    return result.metrics.overall


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "gzip"
    n_branches, warmup = 60_000, 20_000
    trace = generate_benchmark_trace(benchmark, n_branches=n_branches, seed=1)

    local = LocalPredictor()
    smith_host = make_baseline_hybrid()
    candidates = [
        ("JRS (original)", JRSEstimator(threshold=7, enhanced=False), None),
        ("enhanced JRS", JRSEstimator(threshold=7, enhanced=True), None),
        ("Smith", SmithEstimator(smith_host), None),
        ("Tyson pattern", PatternEstimator(local), local),
        ("perceptron_tnt",
         PerceptronConfidenceEstimator(threshold=30, mode="tnt"), None),
        ("perceptron_cic",
         PerceptronConfidenceEstimator(threshold=0, mode="cic"), None),
    ]

    rows = []
    for name, estimator, substrate in candidates:
        predictor = smith_host if name == "Smith" else None
        matrix = measure(trace, warmup, estimator, substrate, predictor)
        rows.append(
            {
                "estimator": name,
                "PVN %": round(100 * matrix.pvn, 1),
                "Spec %": round(100 * matrix.spec, 1),
                "flagged %": round(
                    100 * matrix.flagged_low / max(matrix.total, 1), 2
                ),
                "storage KiB": round(estimator.storage_kib, 2),
            }
        )

    print(
        format_table(
            rows,
            title=(
                f"Confidence estimator comparison on {benchmark!r} "
                f"({n_branches} branches, {warmup} warm-up)"
            ),
        )
    )
    print(
        "\nExpected shape (Table 3): perceptron_cic leads on PVN, "
        "enhanced JRS leads on Spec,\nSmith/pattern/tnt trail both."
    )


if __name__ == "__main__":
    main()
