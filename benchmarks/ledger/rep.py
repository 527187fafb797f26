"""One run of one ledger workload, in a fresh interpreter.

``run.py`` starts this script and reads the JSON it writes to
``--out``.  Modes:

- ``run`` (default): set up, run one untimed warm-up rep, then timed
  reps (``--reps`` of them, or as many as fit in ``--seconds``), each
  on a fresh engine, cache and store (:meth:`workloads.Prepared.reset`).
  Reports end-to-end numbers and every rep's outputs to check.  With
  ``--span-dir`` one traced rep follows the timed ones; it also reports
  per-layer metrics and per-call ``SimStats`` digests, and writes the
  merged span timeline to ``--timeline``;
- ``setup``: set up and exit (extra ``setup_s`` samples);
- ``spot``: replay a few of the workload's jobs on the other backend
  (the correctness cross-check for seeds without recorded digests).

The warm-up rep pays lazy imports and first-call costs, which a user
running the workload repeatedly pays once; for ``gating-warm`` it also
fills the disk cache the timed reps read.  ``setup_s`` runs from
``--spawn-ts`` (``run.py``'s ``time.monotonic()`` just before it started
this process; the clock is system-wide) to the moment the first rep's
engine, store and settings are ready.  ``wall_s`` and ``cpu_s`` (user +
system, this process plus the pool workers it reaped) cover one rep's
workload body only; each rep also reports its ``start`` and ``end``
(``time.monotonic()``), the window ``run.py`` matches against its
host-speed probe (``probe.py``).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from ledger import SRC


def _cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _timed(prepared, recorder=None) -> dict:
    """Run the workload body once; its times, then its outputs."""
    cpu_before = _cpu()
    start = time.monotonic()
    if recorder is not None:
        with recorder.span("experiments", workload=prepared.workload.name):
            results = prepared.run()
    else:
        results = prepared.run()
    end = time.monotonic()
    rep = {"start": start, "end": end, "wall_s": end - start, "cpu_s": _cpu() - cpu_before}
    rep.update(prepared.outputs(results))
    return rep


def _traced(prepared, span_dir: str, timeline) -> dict:
    """One traced rep: per-layer metrics, simulator digests, timeline."""
    import layers
    import workloads

    recorder = layers.install(span_dir)
    engine_before = prepared.engine.stats.snapshot()
    disk_before = workloads.disk_bytes(prepared.cache_dir)
    try:
        rep = _timed(prepared, recorder)
    finally:
        recorder.uninstall()
    delta = prepared.engine.stats.since(engine_before)
    extra = {
        "hits": delta.replay.hits,
        "misses": delta.replay.misses,
        "disk_hits": delta.replay.disk_hits,
        "cached_events": prepared.engine._replays.cached_events,
        "disk_write_bytes": workloads.disk_bytes(prepared.cache_dir) - disk_before,
        "result_bytes": layers.pool_result_bytes(recorder),
        "workers": prepared.workload.workers,
    }
    events = recorder.events()
    rep["layers"] = layers.derive(events, recorder.owner, extra)
    rep["simulate"] = [workloads.sim_digest(s) for s in recorder.sim_stats]
    rep["min_self_s"] = min(layers.self_times(events).values(), default=0.0)
    if timeline:
        rep["timeline_problems"] = layers.write_timeline(events, recorder.owner, timeline)
    return rep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--branches", type=int, required=True)
    parser.add_argument("--warmup", type=int, required=True)
    parser.add_argument("--backend", default=None)
    parser.add_argument("--work-dir", required=True,
                        help="scratch directory for disk caches and stores")
    parser.add_argument("--spawn-ts", type=float, required=True)
    parser.add_argument("--mode", choices=("run", "setup", "spot"), default="run")
    parser.add_argument("--reps", type=int, default=1,
                        help="timed reps (without --seconds; may be 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="start timed reps while one more as long as the "
                             "last still ends within this many seconds (at least one)")
    parser.add_argument("--span-dir", default=None)
    parser.add_argument("--timeline", default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    settings = workloads.settings_for(
        workload, args.seed, args.branches, args.warmup, args.backend
    )
    if args.mode == "spot":
        report = {"jobs": workloads.spot_check(workload, settings)}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
        return 0

    prepared = workloads.Prepared(workload, settings, args.work_dir)
    report = {"setup_s": time.monotonic() - args.spawn_ts}
    if args.mode == "setup":
        prepared.close()
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
        return 0

    report["warmup"] = prepared.outputs(prepared.run())
    reps = []
    deadline = None if args.seconds is None else time.monotonic() + args.seconds
    last = 0.0
    while (
        len(reps) < args.reps if deadline is None
        else not reps or time.monotonic() + last <= deadline
    ):
        started = time.monotonic()
        prepared.reset()
        reps.append(_timed(prepared))
        last = time.monotonic() - started
    report["reps"] = reps
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["unique_branches"] = report["warmup"]["unique_branches"]

    if args.span_dir is not None:
        prepared.reset()
        report["traced"] = _traced(prepared, args.span_dir, args.timeline)
    prepared.close()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
