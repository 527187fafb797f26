"""Self-test of the layer-ledger benchmark.

Run from the repository root: ``PYTHONPATH=src pytest benchmarks/ledger -q``.
Every workload runs once at ``--smoke`` sizing (3 000 branches, one
rep, plus one traced rep); the assertions check the printed metrics,
the output checks, the per-layer predictions stated in README.md and
the exported timeline.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import layers  # noqa: E402
import ledger  # noqa: E402
import probe  # noqa: E402


def _run(*args, cwd=ledger.ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks" / "ledger" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=900,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    proc = _run("--smoke", "--traced", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout, json.loads(out.read_text(encoding="utf-8")), out


def test_benchmark_json_matches_catalog():
    benchmark = ledger.load_benchmark()
    assert set(benchmark) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in benchmark["workloads"]] == [
        "gating-cold", "gating-warm", "ladder-cold", "sweep-reference-pool"
    ]
    for metric in benchmark["end_to_end"]:
        assert (metric["unit"], metric["better"]) == ledger.END_TO_END[metric["name"]]
        assert 0 < metric["bound"] <= 0.25
    for metric in benchmark["per_layer"]:
        assert (metric["unit"], metric["better"]) == ledger.LAYERS[metric["name"]]


def test_every_metric_printed_with_unit(smoke):
    stdout, _, _ = smoke
    benchmark = ledger.load_benchmark()
    names = benchmark["end_to_end"] + benchmark["per_layer"]
    for metric in names + [
        {"name": n, "unit": ledger.END_TO_END[n][0]} for n in ledger.EXACT_METRICS
    ]:
        pattern = rf"(^|\s){re.escape(metric['name'])}\s+{re.escape(metric['unit'])}\s"
        assert re.search(pattern, stdout, re.M), metric["name"]


def test_outputs_match(smoke):
    _, doc, _ = smoke
    for name, entry in doc["workloads"].items():
        assert entry["correct"], (name, entry["errors"])
        assert entry["summary"]["failed_ops_ratio"]["median"] == 0
        assert entry["attempted"] > 0
        assert entry["checked_against"] == "expected", name


def test_predicted_zeros(smoke):
    _, doc, _ = smoke
    layer = {name: entry["layers"] for name, entry in doc["workloads"].items()}
    for name in ("ladder-cold", "sweep-reference-pool"):
        assert layer[name]["pipeline.simulate.calls"] == 0
    for name in ("gating-cold", "gating-warm"):
        assert layer[name]["pipeline.simulate.calls"] > 0
    warm = layer["gating-warm"]
    assert warm["fastpath.replay.calls"] == 0
    assert warm["trace.generate.calls"] == 0
    assert warm["cache.replay.disk_hits"] > 0
    assert layer["sweep-reference-pool"]["fastpath.replay.calls"] == 0
    assert layer["sweep-reference-pool"]["executor.worker_busy_s"] > 0


def test_timelines_valid_with_nonnegative_self_times(smoke, tmp_path):
    from repro.telemetry.schema import validate_trace_file

    _, doc, _ = smoke
    for name, entry in doc["workloads"].items():
        path = entry["timeline"]
        assert validate_trace_file(path) == [], name
        with open(path, encoding="utf-8") as fh:
            events = [json.loads(line) for line in fh][1:]
        assert min(layers.self_times(events).values()) >= -1e-9, name
        proc = subprocess.run(
            [sys.executable, "-m", "repro.telemetry", "timeline", path,
             "-o", str(tmp_path / f"{name}.json")],
            cwd=ledger.ROOT, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
    pids = {
        json.loads(line)["pid"]
        for line in open(doc["workloads"]["sweep-reference-pool"]["timeline"], encoding="utf-8")
    }
    assert len(pids) >= 2  # pool-worker spans were merged in


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_contract_line(trace, section):
    proc = _run("--workload", "ladder-cold", "--seed", "1", "--seconds", "1",
                "--size", "smoke", "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {
        name: m["unit"] for name, m in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in ledger.load_benchmark()[section]}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ledger.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "ladder-cold", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_same_run_is_unchanged(smoke):
    _, _, out = smoke
    proc = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(out), str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "unchanged" in proc.stdout
    assert "worse" not in proc.stdout and "better" not in proc.stdout


def test_probe_slowdown_and_stop(tmp_path):
    ref = probe.REFERENCE_S
    samples = [(1.0, 2 * ref), (2.0, 4 * ref), (9.0, ref)]
    power = probe.SENSITIVITY
    assert probe.slowdown(samples, 0.5, 2.5) == pytest.approx(3.0 ** power)
    assert probe.slowdown(samples, 3.0, 4.0) == pytest.approx((7 / 3) ** power)  # whole run
    cpu = sorted(os.sched_getaffinity(0))[0]
    with probe.HostProbe([cpu], str(tmp_path)) as host:
        procs = list(host._procs)
        time.sleep(0.5)
    assert all(proc.returncode is not None for proc in procs)
    measured = host.samples()
    assert measured and all(cost > 0 for _, cost in measured)


def test_compare_verdicts():
    parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    assert compare.verdict(parent, parent, "lower", 0.1, False)[0] == "unchanged"
    slower = [v * 1.2 for v in parent]
    assert compare.verdict(parent, slower, "lower", 0.1, False)[0] == "worse"
    faster = [v * 0.8 for v in parent]
    assert compare.verdict(parent, faster, "lower", 0.1, False)[0] == "better"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(parent, noisy, "lower", 0.1, False)[0] == "unresolved"
    assert compare.verdict([0.0], [0.1], "lower", 0.0, True)[0] == "worse"
