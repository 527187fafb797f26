"""Trace tooling CLI: generate, inspect and convert branch traces.

Usage (``python -m repro.trace <command> ...``):

- ``generate <benchmark> <out.{btrace,npz}> [--branches N] [--seed S]``
  synthesise one Table 2 benchmark workload and save it;
- ``inspect <trace>`` print summary statistics and the hottest static
  branches of a saved trace;
- ``convert <in> <out>`` re-serialise between the text and binary
  formats;
- ``ingest <in> <out.{npz,btrace}>`` save an external
  (ChampSim/CBP-style) branch trace as one trace file and print the
  ``recorded:`` job token that names it;
- ``export <in> <out.btr>`` write a saved trace in the external format
  (fixture generation, interchange with other simulators);
- ``list`` show the available benchmark profiles and their calibration
  targets.
"""

from __future__ import annotations

import argparse
from collections import Counter
from typing import Optional, Sequence

from repro.common.cli import positive_int
from repro.trace.benchmarks import (
    BENCHMARK_NAMES,
    TABLE2_MISPREDICTS_PER_KUOP,
    benchmark_profile,
    generate_benchmark_trace,
)
from repro.trace.h2p import H2P_PROFILE_NAMES
from repro.trace.ingest import ingest_external_trace, write_external_trace
from repro.trace.io import job_token, load_trace, save_trace
from repro.trace.record import Trace

__all__ = ["main"]


def _cmd_generate(args) -> int:
    trace = generate_benchmark_trace(
        args.benchmark, n_branches=args.branches, seed=args.seed
    )
    save_trace(trace, args.output)
    stats = trace.stats()
    print(
        f"wrote {args.output}: {stats.branches} branches, "
        f"{stats.total_uops} uops, {stats.static_branches} statics"
    )
    return 0


def _cmd_inspect(args) -> int:
    trace = load_trace(args.trace)
    stats = trace.stats()
    print(f"name            : {trace.name}")
    print(f"seed            : {trace.seed}")
    print(f"dynamic branches: {stats.branches}")
    print(f"static branches : {stats.static_branches}")
    print(f"total uops      : {stats.total_uops}")
    print(f"taken fraction  : {stats.taken_fraction:.2%}")
    print(f"branches/kuop   : {stats.branches_per_kuop:.1f}")
    counts = Counter(r.pc for r in trace)
    taken = Counter(r.pc for r in trace if r.taken)
    print(f"\nhottest {args.top} static branches:")
    print(f"{'pc':>12}  {'execs':>8}  {'share':>7}  {'taken':>7}")
    for pc, n in counts.most_common(args.top):
        print(
            f"{pc:#12x}  {n:8d}  {n / stats.branches:6.2%}  "
            f"{taken.get(pc, 0) / n:6.1%}"
        )
    return 0


def _cmd_convert(args) -> int:
    trace = load_trace(args.input)
    save_trace(trace, args.output)
    print(f"converted {args.input} -> {args.output} ({len(trace)} branches)")
    return 0


def _cmd_ingest(args) -> int:
    trace = ingest_external_trace(args.input, args.output, name=args.name)
    print(
        f"ingested {args.input} -> {args.output}: "
        f"{len(trace)} records, token {job_token(trace, args.output)}"
    )
    return 0


def _cmd_export(args) -> int:
    trace = load_trace(args.input)
    count = write_external_trace(trace.records, args.output)
    print(f"exported {args.input} -> {args.output} ({count} records)")
    return 0


def _cmd_list(args) -> int:
    print(f"{'benchmark':<10} {'target m/kuop':>14}  {'uops/branch':>12}  statics")
    for name in BENCHMARK_NAMES:
        profile = benchmark_profile(name)
        statics = sum(
            count
            for cls, count in profile.static_counts.items()
            if profile.class_weights.get(cls, 0) > 0
        )
        print(
            f"{name:<10} {TABLE2_MISPREDICTS_PER_KUOP[name]:>14}  "
            f"{profile.uops_per_branch:>12}  {statics}"
        )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description="Generate and inspect synthetic branch traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesise a benchmark trace")
    gen.add_argument("benchmark", choices=BENCHMARK_NAMES + H2P_PROFILE_NAMES)
    gen.add_argument("output", help="output path (.btrace or .npz)")
    gen.add_argument("--branches", type=positive_int, default=100_000)
    gen.add_argument("--seed", type=int, default=1)
    gen.set_defaults(func=_cmd_generate)

    ins = sub.add_parser("inspect", help="summarise a saved trace")
    ins.add_argument("trace")
    ins.add_argument("--top", type=int, default=10)
    ins.set_defaults(func=_cmd_inspect)

    conv = sub.add_parser("convert", help="re-serialise a trace")
    conv.add_argument("input")
    conv.add_argument("output")
    conv.set_defaults(func=_cmd_convert)

    ing = sub.add_parser("ingest", help="ingest an external branch trace")
    ing.add_argument("input", help="external trace file (CBPBT01 format)")
    ing.add_argument("output", help="output trace file (.npz or .btrace)")
    ing.add_argument("--name", default=None, help="trace name (default: stem)")
    ing.set_defaults(func=_cmd_ingest)

    exp = sub.add_parser("export", help="write a trace in the external format")
    exp.add_argument("input", help="saved trace (.btrace or .npz)")
    exp.add_argument("output", help="external trace file to write")
    exp.set_defaults(func=_cmd_export)

    lst = sub.add_parser("list", help="list benchmark profiles")
    lst.set_defaults(func=_cmd_list)

    args = parser.parse_args(argv)
    return args.func(args)
