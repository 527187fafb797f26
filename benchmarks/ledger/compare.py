"""Compare two ledger result files: parent (A) against change (B).

Usage (from the repository root)::

    python benchmarks/ledger/compare.py A.json B.json

For every workload and end-to-end metric it prints one verdict, using
the bounds in BENCHMARK.json and the rule of the choosing-metrics guide
(sections 6.5 and 8):

- ``unresolved``: the run-to-run spread (quartile distance over median,
  the wider of the two sides) exceeds the bound, and not every run of B
  beats every run of A;
- ``worse``: B's median is worse than A's by more than the bound;
- ``better``: B wins at least nine tenths of at least ten rep pairs
  (ties count for neither) and the medians differ by more than A's
  quartile distance -- or, under a spread wider than the bound, every
  run of B beats every run of A;
- ``unchanged``: none of the above.

``failed_ops_ratio`` and ``paper_mae_pp`` have bound 0: any difference
is a verdict.  The first table has one row per workload; the second
gives each verdict's medians, quartiles, relative change, spread and
win share over pairs (rep *i* of A against rep *i* of B).  Exits 1 when
any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Tuple

import ledger

#: Pairs and win share a gain claim needs.
MIN_PAIRS = 10
WIN_SHARE = 0.9


def _better(x: float, y: float, direction: str) -> bool:
    """True when ``y`` is better than ``x``."""
    return y < x if direction == "lower" else y > x


def _spread(summary: dict) -> float:
    median = summary["median"]
    return (summary["q3"] - summary["q1"]) / abs(median) if median else 0.0


def verdict(a: List[float], b: List[float], direction: str, bound: float,
            exact: bool) -> Tuple[str, dict]:
    """One metric's verdict plus the numbers it rests on."""
    sa, sb = ledger.summarize(a), ledger.summarize(b)
    ma, mb = sa["median"], sb["median"]
    pairs = list(zip(a, b))
    wins = sum(_better(x, y, direction) for x, y in pairs)
    worsening = (mb - ma if direction == "lower" else ma - mb) / abs(ma) if ma else (
        0.0 if mb == ma else float("inf") if _better(mb, ma, direction) else float("-inf")
    )
    spread = max(_spread(sa), _spread(sb))
    detail = {"a": sa, "b": sb, "change": (mb - ma) / abs(ma) if ma else 0.0,
              "spread": spread,
              "pairs": len(pairs), "wins": wins}
    if exact:
        if ma == mb:
            return "unchanged", detail
        return ("better" if _better(ma, mb, direction) else "worse"), detail
    if spread > bound:
        dominates = all(_better(x, y, direction) for x in a for y in b)
        return ("better" if dominates else "unresolved"), detail
    if worsening > bound:
        return "worse", detail
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and _better(ma, mb, direction)
        and abs(mb - ma) > sa["q3"] - sa["q1"]
    ):
        return "better", detail
    return "unchanged", detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/ledger/compare.py",
        description="Compare two ledger result files (A = parent, B = change).",
    )
    parser.add_argument("a", help="result file of the parent commit")
    parser.add_argument("b", help="result file of the change")
    args = parser.parse_args(argv)

    docs = []
    for path in (args.a, args.b):
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    a_doc, b_doc = docs
    if a_doc["size"] != b_doc["size"]:
        print(f"error: sizing differs ({a_doc['size']} vs {b_doc['size']}); "
              "compare runs made with the same benchmark settings", file=sys.stderr)
        return 2
    bounds = ledger.bounds(ledger.load_benchmark())
    print(f"A: {args.a} (git {a_doc['stamp']['git_sha'][:12]}, seed {a_doc['seed']})")
    print(f"B: {args.b} (git {b_doc['stamp']['git_sha'][:12]}, seed {b_doc['seed']})")
    if a_doc["seed"] != b_doc["seed"]:
        print("note: the two runs used different seeds")

    metrics = [m for m in ledger.END_TO_END if m in bounds]
    workloads = [w for w in a_doc["workloads"] if w in b_doc["workloads"]]
    summary_rows, detail_rows = [], []
    any_worse = False
    for workload in workloads:
        row = [workload]
        for metric in metrics:
            unit, direction = ledger.END_TO_END[metric]
            result, d = verdict(
                a_doc["workloads"][workload]["samples"][metric],
                b_doc["workloads"][workload]["samples"][metric],
                direction,
                bounds[metric],
                metric in ledger.EXACT_METRICS,
            )
            any_worse |= result == "worse"
            row.append(result)
            sa, sb = d["a"], d["b"]
            detail_rows.append([
                workload, metric, unit, result,
                f"{ledger.fmt(sa['median'])} [{ledger.fmt(sa['q1'])}, {ledger.fmt(sa['q3'])}] n={sa['n']}",
                f"{ledger.fmt(sb['median'])} [{ledger.fmt(sb['q1'])}, {ledger.fmt(sb['q3'])}] n={sb['n']}",
                f"{d['change'] * 100:+.1f}%",
                f"{d['spread'] * 100:.1f}%",
                f"{bounds[metric] * 100:.0f}%",
                f"{d['wins']}/{d['pairs']}",
            ])
        summary_rows.append(row)
    print()
    print(ledger.table(["workload"] + metrics, summary_rows))
    print()
    print(ledger.table(
        ["workload", "metric", "unit", "verdict", "A median [q1, q3]",
         "B median [q1, q3]", "change", "spread", "bound", "B wins"],
        detail_rows,
    ))
    return 1 if any_worse else 0


if __name__ == "__main__":
    raise SystemExit(main())
