"""Offline calibration of benchmark class weights.

Thin driver over :mod:`repro.trace.calibration` (the solver lives in
the library).  Prints ready-to-paste weight dicts for
``src/repro/trace/benchmarks.py``; run after changing behaviour
mechanics:

    python tools/calibrate.py [benchmark ...]
"""

import argparse

from repro.trace.benchmarks import BENCHMARK_NAMES, benchmark_profile
from repro.trace.calibration import calibrate_profile


def main(argv=None) -> int:
    known = ", ".join(BENCHMARK_NAMES)
    parser = argparse.ArgumentParser(
        prog="python tools/calibrate.py",
        description=(
            "Solve each benchmark's class weights against its Table 2 "
            "misprediction target and print them as Python dicts."
        ),
    )
    parser.add_argument(
        "benchmarks",
        nargs="*",
        metavar="benchmark",
        help=f"benchmarks to calibrate (default: all of {known})",
    )
    args = parser.parse_args(argv)
    unknown = [name for name in args.benchmarks if name not in BENCHMARK_NAMES]
    if unknown:
        parser.error(
            f"unknown benchmarks: {', '.join(unknown)}; known: {known}"
        )
    names = args.benchmarks or list(BENCHMARK_NAMES)
    final = {}
    for name in names:
        result = calibrate_profile(
            benchmark_profile(name), n_branches=60_000, warmup=20_000
        )
        final[name] = result.profile.class_weights
        print(
            f"{name:8s} measured={result.measured_rate:.4f} "
            f"target={result.target_rate:.4f} ratio={result.ratio:.2f} "
            f"({result.iterations} iterations)"
        )
        print(f"  -> {result.profile.class_weights}")
    print("\n# FINAL WEIGHTS")
    for name, weights in final.items():
        print(f"{name!r}: {weights},")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
