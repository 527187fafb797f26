"""Layer ledger: end-to-end and per-layer benchmark of the reproduction.

Runs four named workloads (see ``workloads.py`` and README.md), each in
one fresh interpreter (``rep.py``): set-up, one untimed warm-up rep,
then timed reps, each a batch submitted once by one client on a fresh
engine, cache and store.  Prints every end-to-end metric by name with
its unit (median, quartiles, sample count), checks every rep's outputs
against recorded digests, and writes a stamped result file.

Usage (from the repository root)::

    python benchmarks/ledger/run.py [--workload NAME ...] [--seed N]
        [--reps N | --seconds S] [--traced] [--size quick|bench|smoke]
        [--smoke] [--out PATH]
    python benchmarks/ledger/run.py --record-expected [--seed N ...]
    python benchmarks/ledger/run.py --workload NAME --seed N \\
        --seconds S --trace 0|1

``--traced`` (or ``--trace 1``) adds one traced rep per workload and
prints the per-layer table.  When exactly one workload runs, the last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the BENCHMARK.json end-to-end metrics, or
its per-layer metrics for a traced run).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from itertools import zip_longest
from pathlib import Path
from typing import Dict, List, Optional

import ledger
import probe as host_probe
from workloads import WORKLOADS, Workload

REP = ledger.HERE / "rep.py"

#: A single child process (one workload run) may not run longer than this.
CHILD_TIMEOUT_S = 175

#: setup_s samples wanted per workload: the run's own set-up, topped up
#: with set-up-only probes.
SETUP_SAMPLES = 5

#: Seeds ``--record-expected`` writes digests for: 1 is the default
#: seed, 2 is held out for confirming claims.
EXPECTED_SEEDS = (1, 2)


def _child(cmd_args: List[str], out: Path, tmp: Path,
           cpus: Optional[List[int]] = None) -> tuple:
    """Run ``rep.py`` once, pinned to ``cpus`` if given; returns
    ``(report or None, error text)``.  The report carries the
    ``spawn_ts`` its ``setup_s`` counts from."""
    spawn_ts = time.monotonic()
    cmd = [sys.executable, str(REP), *cmd_args,
           "--spawn-ts", repr(spawn_ts), "--out", str(out)]
    proc = subprocess.Popen(
        cmd,
        cwd=ledger.ROOT,
        env=ledger.child_env(tmp),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
        preexec_fn=(lambda: os.sched_setaffinity(0, cpus)) if cpus else None,
    )
    try:
        _, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException as exc:
        # Timed out, or this process is being stopped: stop the child's
        # whole session (it and its pool workers) first.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            return None, f"rep timed out after {CHILD_TIMEOUT_S}s"
        raise
    if proc.returncode != 0:
        return None, stderr.strip().splitlines()[-1] if stderr.strip() else (
            f"rep exited with {proc.returncode}"
        )
    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)
    report["spawn_ts"] = spawn_ts
    return report, ""


def size_key(n_branches: int, warmup: int) -> str:
    return f"{n_branches}/{warmup}"


def expected_path(workload: str, seed: int) -> Path:
    return ledger.EXPECTED_DIR / f"{workload}-seed{seed}.json"


def load_expected(workload: str, seed: int, key: str) -> Optional[dict]:
    """Recorded digests for this workload, seed and sizing, if any."""
    try:
        doc = json.loads(expected_path(workload, seed).read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    return doc.get("sizes", {}).get(key)


class WorkloadRun:
    """Every child process of one workload in one benchmark run."""

    def __init__(self, workload: Workload, seed: int, size: str, tmp: Path,
                 backend: Optional[str] = None):
        self.workload = workload
        self.seed = seed
        self.n_branches, self.warmup = ledger.SIZES[size]
        self.dir = tmp / workload.name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.tmp = tmp
        self.backend = backend
        self._count = 0
        self.errors: List[str] = []

    def child(self, mode: str = "run", reps: int = 1, seconds: Optional[float] = None,
              traced: bool = False, timeline: Optional[Path] = None,
              cpus: Optional[List[int]] = None) -> Optional[dict]:
        self._count += 1
        work = self.dir / f"{mode}-{self._count}"
        work.mkdir()
        args = ["--workload", self.workload.name, "--seed", str(self.seed),
                "--branches", str(self.n_branches), "--warmup", str(self.warmup),
                "--mode", mode, "--work-dir", str(work), "--reps", str(reps)]
        if seconds is not None:
            args += ["--seconds", repr(seconds)]
        if self.backend:
            args += ["--backend", self.backend]
        if traced:
            (work / "spans").mkdir()
            args += ["--span-dir", str(work / "spans")]
            if timeline is not None:
                args += ["--timeline", str(timeline)]
        report, error = _child(args, work / "report.json", self.tmp, cpus)
        shutil.rmtree(work)
        if report is None:
            self.errors.append(f"{self.workload.name} {mode}: {error}")
        return report


def _ops(outputs: dict, reference: dict) -> tuple:
    """``(attempted, failed)`` ops of one rep: rows, then job digests."""
    pairs = list(zip_longest(outputs["rows"], reference["rows"]))
    attempted = len(pairs) + len(set(outputs["jobs"]) | set(reference["jobs"]))
    failed = sum(a != b for a, b in pairs)
    return attempted, failed + _dict_mismatches(outputs["jobs"], reference["jobs"])


def run_workload(workload: Workload, seed: int, size: str, tmp: Path,
                 reps: int, seconds: Optional[float], traced: bool,
                 timeline: Optional[Path]) -> dict:
    """Run one workload's reps and checks; returns its result entry."""
    run = WorkloadRun(workload, seed, size, tmp)
    # Every timed child runs pinned to the first ``workers`` CPUs, each
    # watched by a host-speed probe; its times are normalised by the
    # slowdown the probes saw over the same window.
    cpus = sorted(os.sched_getaffinity(0))[:max(1, workload.workers)]
    with host_probe.HostProbe(cpus, str(run.dir)) as host:
        report = run.child(reps=reps, seconds=seconds, traced=traced,
                           timeline=timeline, cpus=cpus)
        setup_runs = [report] if report else []
        for _ in range(max(0, SETUP_SAMPLES - len(setup_runs))):
            setup_run = run.child(mode="setup", cpus=cpus)
            if setup_run:
                setup_runs.append(setup_run)
    probed = host.samples()
    setups = [
        r["setup_s"] / host_probe.slowdown(probed, r["spawn_ts"], r["spawn_ts"] + r["setup_s"])
        for r in setup_runs
    ]

    key = size_key(run.n_branches, run.warmup)
    expected = load_expected(workload.name, seed, key)
    timed = report["reps"] if report else []
    traced_report = report.get("traced") if report else None
    for rep in timed + ([traced_report] if traced_report else []):
        rep["slowdown"] = host_probe.slowdown(probed, rep["start"], rep["end"])
        rep["norm_wall_s"] = rep["wall_s"] / rep["slowdown"]
        rep["norm_cpu_s"] = rep["cpu_s"] / rep["slowdown"]
    # Without recorded digests the warm-up rep is the reference: for
    # gating-warm it is the cold run, so cache hits must equal replays.
    reference = expected or (report["warmup"] if report else None)
    attempted = failed = 0
    if reference is None:
        attempted = failed = 1
    elif report is None:
        attempted = failed = len(reference["rows"]) + len(reference["jobs"])
    for rep in timed:
        rep_attempted, rep_failed = _ops(rep, reference)
        attempted += rep_attempted
        failed += rep_failed
    if expected is None and report:
        spot = run.child(mode="spot")
        if spot is None:
            attempted += 1
            failed += 1
        else:
            produced = report["warmup"]["jobs"]
            attempted += len(spot["jobs"])
            failed += sum(produced.get(k) != v for k, v in spot["jobs"].items())

    samples: Dict[str, List[float]] = {name: [] for name in ledger.END_TO_END}
    samples["setup_s"] = setups
    for rep in timed:
        samples["norm_wall_s"].append(rep["norm_wall_s"])
        samples["norm_cpu_s"].append(rep["norm_cpu_s"])
        samples["norm_branches_per_s"].append(report["unique_branches"] / rep["norm_wall_s"])
        samples["paper_mae_pp"].append(rep["paper_mae_pp"])
    if report:
        samples["peak_rss_mb"].append(report["peak_rss_mb"])
    samples["failed_ops_ratio"] = [failed / attempted if attempted else 1.0]

    layers = None
    timeline_problems: List[str] = []
    if traced_report is not None:
        layers = dict(traced_report["layers"])
        layers["engine.jobs.digest_mismatches"] = (
            _dict_mismatches(traced_report["jobs"], reference["jobs"])
            if reference else len(traced_report["jobs"])
        )
        layers["pipeline.simulate.digest_mismatches"] = (
            _list_mismatches(traced_report["simulate"], expected["simulate"])
            if expected else 0
        )
        wall = ledger.summarize(samples["norm_wall_s"])["median"]
        layers["trace_overhead_pct"] = (
            (traced_report["norm_wall_s"] - wall) / wall * 100.0 if wall else 0.0
        )
        layers["paper_mae_pp"] = traced_report["paper_mae_pp"]
        timeline_problems = traced_report.get("timeline_problems", [])
        if traced_report["min_self_s"] < -1e-9:
            run.errors.append(f"{workload.name}: negative span self time")
    elif traced:
        run.errors.append(f"{workload.name}: traced rep failed")

    mismatches = (
        layers["engine.jobs.digest_mismatches"]
        + layers["pipeline.simulate.digest_mismatches"]
    ) if layers else 0
    correct = (
        failed == 0 and mismatches == 0 and not run.errors and not timeline_problems
    )
    return {
        "samples": samples,
        "summary": {name: ledger.summarize(v) for name, v in samples.items()},
        # What the norm_* samples were derived from, rep by rep.
        "host": {
            "cpus": cpus,
            **{key: [rep[key] for rep in timed] for key in ("wall_s", "cpu_s", "slowdown")},
            "setup_s": [r["setup_s"] for r in setup_runs],
        },
        "attempted": attempted,
        "failed": failed,
        "checked_against": "expected" if expected else "warm-up-rep+spot-check",
        "reps": len(timed),
        "layers": layers,
        "timeline": str(timeline) if traced_report and timeline else None,
        "timeline_problems": timeline_problems,
        "errors": run.errors,
        "correct": correct,
    }


def _dict_mismatches(got: Dict[str, str], want: Dict[str, str]) -> int:
    return sum(got.get(k) != v for k, v in want.items()) + len(set(got) - set(want))


def _list_mismatches(got: List[str], want: List[str]) -> int:
    return sum(a != b for a, b in zip_longest(got, want))


# -- recording ----------------------------------------------------------------


def _traced_outputs(workload: Workload, seed: int, size: str, tmp: Path,
                    backend: str) -> Optional[dict]:
    run = WorkloadRun(workload, seed, size, tmp / backend, backend=backend)
    report = run.child(reps=0, traced=True)
    if report is None:
        print("\n".join(run.errors), file=sys.stderr)
        return None
    return report["traced"]


def record_expected(names: List[str], seeds: List[int], sizes: List[str],
                    tmp: Path) -> int:
    """Record digests from the reference backend, cross-checked on fast.

    Nothing is written unless every workload, seed and size agrees
    across backends on every row, job and timing-model call.
    """
    recorded: Dict[tuple, dict] = {}
    disagreements = []
    for name in names:
        workload = WORKLOADS[name]
        for seed in seeds:
            for size in sizes:
                label = f"{name} seed {seed} {size}"
                print(f"recording {label} ...", flush=True)
                ref = _traced_outputs(workload, seed, size, tmp, "reference")
                fast = _traced_outputs(workload, seed, size, tmp, "fast")
                if ref is None or fast is None:
                    disagreements.append(f"{label}: a recording rep failed")
                    continue
                diffs = {
                    "rows": _list_mismatches(fast["rows"], ref["rows"]),
                    "jobs": _dict_mismatches(fast["jobs"], ref["jobs"]),
                    "simulate": _list_mismatches(fast["simulate"], ref["simulate"]),
                }
                if any(diffs.values()):
                    disagreements.append(f"{label}: fast backend disagrees {diffs}")
                    continue
                recorded[(name, seed, size_key(*ledger.SIZES[size]))] = {
                    key: ref[key] for key in ("rows", "jobs", "simulate", "paper_mae_pp")
                }
    if disagreements:
        print("refusing to record expected digests:", file=sys.stderr)
        for line in disagreements:
            print("  " + line, file=sys.stderr)
        return 1
    for (name, seed, key), entry in recorded.items():
        path = expected_path(name, seed)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            doc = {"workload": name, "seed": seed, "sizes": {}}
        doc["sizes"][key] = entry
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(ledger.ROOT)} [{key}]")
    return 0


# -- reporting ----------------------------------------------------------------


def print_end_to_end(results: Dict[str, dict]) -> None:
    rows = []
    for workload, entry in results.items():
        for name, (unit, _) in ledger.END_TO_END.items():
            s = entry["summary"][name]
            rows.append([workload, name, unit, ledger.fmt(s["median"]),
                         ledger.fmt(s["q1"]), ledger.fmt(s["q3"]), str(s["n"])])
    print(ledger.table(
        ["workload", "metric", "unit", "median", "q1", "q3", "n"], rows))
    print()
    for workload, entry in results.items():
        status = "ok" if entry["correct"] else "FAILED"
        print(f"{workload}: {status}, {entry['attempted'] - entry['failed']}/"
              f"{entry['attempted']} ops match ({entry['checked_against']}), "
              f"{entry['reps']} reps")
        for error in entry["errors"] + entry["timeline_problems"]:
            print(f"  {error}")


def print_layers(results: Dict[str, dict]) -> None:
    traced = {w: e["layers"] for w, e in results.items() if e["layers"]}
    if not traced:
        return
    rows = [
        [name, unit] + [ledger.fmt(layers[name]) for layers in traced.values()]
        for name, (unit, _) in ledger.LAYERS.items()
    ]
    print()
    print(ledger.table(["layer metric", "unit"] + list(traced), rows))
    for workload, entry in results.items():
        if entry["timeline"]:
            print(f"timeline {workload}: {entry['timeline']}")


def contract_line(entry: dict, traced: bool, benchmark: dict) -> str:
    """The one-line JSON result for a single-workload run."""
    if traced:
        values = entry["layers"] or {}
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in benchmark["per_layer"] if m["name"] in values
        }
    else:
        metrics = {
            m["name"]: {"value": entry["summary"][m["name"]]["median"], "unit": m["unit"]}
            for m in benchmark["end_to_end"]
        }
    return json.dumps({
        "correct": entry["correct"],
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": metrics,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/ledger/run.py",
        description="Layer ledger benchmark (see benchmarks/ledger/README.md).",
    )
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, action="append",
                        help="trace seed (default 1; repeatable with --record-expected)")
    parser.add_argument("--reps", type=int, default=3,
                        help="timed untraced reps per workload (default 3)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="start timed untraced reps while one more as long as the "
                             "last still ends within this many seconds "
                             "(at least one; overrides --reps)")
    parser.add_argument("--size", choices=sorted(ledger.SIZES), default=None,
                        help="trace sizing (default quick: 30000 branches, 10000 warm-up; "
                             "--record-expected records every sizing unless given)")
    parser.add_argument("--smoke", action="store_true",
                        help="self-test sizing: --size smoke --reps 1")
    parser.add_argument("--traced", action="store_true",
                        help="add one traced rep per workload and print per-layer metrics")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="same as --traced when 1")
    parser.add_argument("--out", default=None,
                        help="result file (default .benchmarks/ledger/<stamp>-seed<N>.json)")
    parser.add_argument("--record-expected", action="store_true",
                        help="record expected digests for seeds 1 and 2 (or --seed)")
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so running children are stopped and the
    # scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ledger.SRC / "repro").is_dir():
        print(f"error: no program sources at {ledger.SRC}", file=sys.stderr)
        return 2
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    if args.smoke:
        args.size, args.reps = "smoke", 1
    traced = args.traced or args.trace == 1
    names = args.workload or list(WORKLOADS)
    size = args.size or "quick"

    tmp = ledger.RESULTS_DIR / "tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if args.record_expected:
            sizes = [args.size] if args.size else list(ledger.SIZES)
            return record_expected(names, args.seed or list(EXPECTED_SEEDS), sizes, tmp)
        seed = (args.seed or [1])[-1]
        stamp = ledger.stamp()
        run_id = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime()) + f"-{os.getpid()}"
        results = {}
        for name in names:
            timeline = ledger.RESULTS_DIR / f"{run_id}-{name}-seed{seed}.timeline.jsonl"
            results[name] = run_workload(
                WORKLOADS[name], seed, size, tmp, args.reps, args.seconds,
                traced, timeline,
            )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    n_branches, warmup = ledger.SIZES[size]
    out = Path(args.out) if args.out else ledger.RESULTS_DIR / f"{run_id}-seed{seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "schema": 1,
        "kind": "ledger-result",
        "stamp": stamp,
        "seed": seed,
        "size": {"name": size, "n_branches": n_branches, "warmup": warmup},
        "units": {name: unit for name, (unit, _) in ledger.END_TO_END.items()},
        "layer_units": {name: unit for name, (unit, _) in ledger.LAYERS.items()},
        "workloads": results,
    }
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print(f"ledger: seed {seed}, {size} sizing ({n_branches} branches, "
          f"{warmup} warm-up), nproc {stamp['nproc']}, git {stamp['git_sha'][:12]}")
    print()
    print_end_to_end(results)
    if traced:
        print_layers(results)
    print(f"\nwrote {out}")
    if len(results) == 1:
        print(contract_line(next(iter(results.values())), traced, ledger.load_benchmark()))
    return 0 if all(entry["correct"] for entry in results.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
