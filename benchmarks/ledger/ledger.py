"""Shared definitions for the layer-ledger benchmark.

Paths, workload sizings, the metric catalog (names, units, directions),
the quartile summary every table and comparison uses, and the stamp
written into every result file.  Nothing here imports :mod:`repro`, so
``run.py``, the comparison tool and the self-test can load it cheaply.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
EXPECTED_DIR = HERE / "expected"
RESULTS_DIR = ROOT / ".benchmarks" / "ledger"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: Named sizings as (n_branches, warmup).  ``quick`` is the experiment
#: runner's ``--quick`` scale (1/5 of the paper-sized default); ``bench``
#: is the smaller per-rep size the time-boxed runs in BENCHMARK.json use, so a
#: run holds a dozen or so reps; ``smoke`` is for the self-test.  Warm-up
#: branches train structures but are excluded from every metric.
SIZES: Dict[str, tuple] = {
    "quick": (30_000, 10_000),
    "bench": (5_000, 2_000),
    "smoke": (3_000, 1_000),
}

#: End-to-end metrics: name -> (unit, better).  ``norm_*`` are rep times
#: divided by the host's slowdown during the rep (``probe.py``).
#: ``failed_ops_ratio`` and ``paper_mae_pp`` are printed and compared
#: here but live outside BENCHMARK.json's end-to-end list (see
#: README.md, "Metrics").
END_TO_END: Dict[str, tuple] = {
    "setup_s": ("s", "lower"),
    "norm_wall_s": ("s", "lower"),
    "norm_cpu_s": ("s", "lower"),
    "norm_branches_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "failed_ops_ratio": ("ratio", "lower"),
    "paper_mae_pp": ("pp", "lower"),
}

#: Metrics that must not move at all between two runs of one seed:
#: any difference is a regression (or an improvement), never noise.
EXACT_METRICS = ("failed_ops_ratio", "paper_mae_pp")

#: Per-layer metrics from the traced rep: name -> (unit, better).
LAYERS: Dict[str, tuple] = {
    "pipeline.simulate.calls": ("count", "lower"),
    "pipeline.simulate.s": ("s", "lower"),
    "pipeline.simulate.ms_p50": ("ms", "lower"),
    "pipeline.simulate.ms_p70": ("ms", "lower"),
    "pipeline.simulate.digest_mismatches": ("count", "lower"),
    "pipeline.events": ("count", "lower"),
    "pipeline.us_per_event": ("us", "lower"),
    "pipeline.sim.cycles": ("cycles", "lower"),
    "pipeline.sim.wrong_path_uops": ("uops", "lower"),
    "pipeline.sim.gating_stalls": ("count", "lower"),
    "pipeline.sim.gated_cycles": ("cycles", "lower"),
    "pipeline.sim.reversals": ("count", "lower"),
    "trace.generate.calls": ("count", "lower"),
    "trace.generate.s": ("s", "lower"),
    "trace.generate.per_key": ("ratio", "lower"),
    "fastpath.replay.calls": ("count", "lower"),
    "fastpath.replay.self_s": ("s", "lower"),
    "fastpath.predictor_pass.s": ("s", "lower"),
    "fastpath.predictor_pass.reuse_ratio": ("ratio", "higher"),
    "fastpath.estimator_pass.s": ("s", "lower"),
    "fastpath.fallbacks": ("count", "lower"),
    "engine.run.calls": ("count", "lower"),
    "engine.run.s": ("s", "lower"),
    "engine.jobs.submitted": ("count", "lower"),
    "engine.jobs.executed": ("count", "lower"),
    "engine.jobs.digest_mismatches": ("count", "lower"),
    "engine.dedup_ratio": ("ratio", "higher"),
    "engine.replay.reference.s": ("s", "lower"),
    "engine.replay.reference.us_per_branch": ("us", "lower"),
    "cache.replay.hit_ratio": ("ratio", "higher"),
    "cache.replay.disk_hits": ("count", "higher"),
    "cache.replay.cached_events": ("count", "lower"),
    "cache.replay_get.s": ("s", "lower"),
    "cache.replay_get.ms_per_disk_hit": ("ms", "lower"),
    "cache.replay_put.s": ("s", "lower"),
    "cache.disk_write_mb": ("MB", "lower"),
    "executor.execute_s": ("s", "lower"),
    "executor.wait_s": ("s", "lower"),
    "executor.worker_busy_s": ("s", "lower"),
    "executor.utilization": ("ratio", "higher"),
    "executor.result_mb": ("MB", "lower"),
    "store.put_job.calls": ("count", "lower"),
    "store.put_job.s": ("s", "lower"),
    "store.put_experiment.s": ("s", "lower"),
    "store.missing.s": ("s", "lower"),
    "sweeps.run_sweep.self_s": ("s", "lower"),
    "experiments.self_s": ("s", "lower"),
    "trace_overhead_pct": ("%", "lower"),
    "paper_mae_pp": ("pp", "lower"),
}


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of one metric's samples.

    Quartiles are ``statistics.quantiles(values, n=4)`` (the exclusive
    method); a single sample is its own quartiles.
    """
    values = [float(v) for v in values]
    if not values:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def load_benchmark() -> dict:
    """The checked-in BENCHMARK.json."""
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))


def bounds(benchmark: dict) -> Dict[str, float]:
    """Allowed worsening per end-to-end metric, as a share of the median."""
    out = {name: 0.0 for name in EXACT_METRICS}
    for metric in benchmark["end_to_end"]:
        out[metric["name"]] = float(metric["bound"])
    return out


def nproc() -> int:
    """CPUs this process may run on (the container's share, not the host's)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def git_sha() -> str:
    """HEAD of the checkout, or ``"unknown"`` outside a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def stamp() -> Dict[str, object]:
    """Machine and code identity written into every result file."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git_sha(),
        "platform": platform.platform(),
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def child_env(tmp_dir: Path) -> Dict[str, str]:
    """Environment for benchmark child processes.

    ``PYTHONPATH`` points at the checkout's sources and ``TMPDIR`` at the
    run's scratch directory, so nothing a child writes leaves the
    checkout.  String hashing is fixed, so every child lays out its
    dicts and sets alike.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp_dir)
    env["PYTHONHASHSEED"] = "0"
    return env


def fmt(value: float) -> str:
    """Compact human formatting for tables (result files keep full digits)."""
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:.0f}"
    if abs(value) >= 1:
        return f"{value:.3f}"
    return f"{value:.4g}"


def table(header: List[str], rows: List[List[str]]) -> str:
    """Left-aligned plain-text table."""
    widths = [
        max(len(str(row[i])) for row in [header] + rows)
        for i in range(len(header))
    ]
    lines = [
        "  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in [header] + rows
    ]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)
