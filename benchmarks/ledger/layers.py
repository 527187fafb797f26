"""Per-layer spans, recorded from outside the program.

:func:`install` wraps public functions of each layer module in spans,
by attribute replacement on the module or class, so the program's own
code is unchanged and untraced reps run it untouched.  The wrapped
boundaries, by layer:

- ``repro.pipeline``: ``PipelineSimulator.simulate``;
- ``repro.trace``: ``benchmarks.generate_benchmark_trace``;
- ``repro.fastpath``: ``replay``, ``supports`` and the
  ``fastpath.driver`` passes ``run_predictor`` / ``run_estimator``;
- ``repro.engine``: ``Engine.run``, ``ReplayCache.get`` / ``put``,
  ``execute_job`` (the pool-worker entry) and the executors' ``execute``
  generators, where each step of the generator is one replay (serial)
  or one wait for a worker's result (pool);
- ``repro.results`` / ``repro.sweeps``: ``ResultStore.put_job`` /
  ``put_experiment`` / ``missing`` and ``executor.run_sweep``.

Spans are schema-2 trace events (:mod:`repro.telemetry.schema`): each
has a pid-namespaced ``span_id``, its ``parent_id``, the emitting
``pid`` and a system-wide monotonic start ``ts``.  The submitting
process keeps its spans in memory.  Pool workers are forked from it, so
they inherit the wrappers; each worker appends its spans to
``spans-<pid>.jsonl`` in the run's span directory whenever a top-level
task ends, and :meth:`Recorder.events` merges those files back in.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import pickle
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List

#: Span ids are ``(pid & _PID_MASK) << _ID_BITS`` plus a counter, the
#: same namespacing the program's own tracer uses.
_ID_BITS = 40
_PID_MASK = 0xFFFFFF


class Recorder:
    """In-memory span recorder shared by every installed wrapper."""

    def __init__(self, span_dir: str):
        self.span_dir = span_dir
        self.owner = os.getpid()
        self._pid = self.owner
        self._next_id = (self._pid & _PID_MASK) << _ID_BITS
        self._stack: List[dict] = []
        self._base = 0
        self.spans: List[dict] = []
        self.sim_stats: list = []
        self.pool_outcomes: list = []
        self._undo: list = []

    def _adopt_pid(self) -> None:
        """Start a fresh span namespace in a forked worker.

        The worker inherits the parent's finished spans and open stack;
        the finished ones are the parent's to write, and the open ones
        only supply the parent id of the worker's first span.
        """
        pid = os.getpid()
        if pid != self._pid:
            self._pid = pid
            self._next_id = (pid & _PID_MASK) << _ID_BITS
            self.spans = []
            self.sim_stats = []
            self.pool_outcomes = []
            self._base = len(self._stack)

    def open(self, name: str, **fields) -> dict:
        self._adopt_pid()
        self._next_id += 1
        span = {
            "event": "span",
            "name": name,
            "span_id": self._next_id,
            "parent_id": self._stack[-1]["span_id"] if self._stack else None,
            "pid": self._pid,
            "ts": time.monotonic(),
            "ok": False,
            "fields": fields,
        }
        self._stack.append(span)
        return span

    def close(self, span: dict, ok: bool = True, **fields) -> None:
        span["duration_s"] = time.monotonic() - span["ts"]
        span["ok"] = ok
        span["fields"].update(fields)
        for i in range(len(self._stack) - 1, -1, -1):
            if self._stack[i] is span:
                del self._stack[i]
                break
        self.spans.append(span)
        if self._pid != self.owner and len(self._stack) <= self._base:
            self._flush_worker()

    def _flush_worker(self) -> None:
        path = os.path.join(self.span_dir, f"spans-{self._pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")
        self.spans = []

    @contextmanager
    def span(self, name: str, **fields):
        handle = self.open(name, **fields)
        try:
            yield handle
        except BaseException:
            self.close(handle, ok=False)
            raise
        self.close(handle)

    def events(self) -> List[dict]:
        """This process's spans plus every worker's, ordered by start."""
        events = list(self.spans)
        for path in sorted(glob.glob(os.path.join(self.span_dir, "spans-*.jsonl"))):
            with open(path, encoding="utf-8") as fh:
                events.extend(json.loads(line) for line in fh if line.strip())
        return sorted(events, key=lambda e: e["ts"])

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` with a spanned call of the original.

        ``before(*args, **kwargs)`` and ``after(result, *args,
        **kwargs)`` return extra span fields.  A raised exception closes
        the span with ``ok=False`` and its type in ``error``.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        rec = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = rec.open(name, **(before(*args, **kwargs) if before else {}))
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                rec.close(span, ok=False, error=type(exc).__name__)
                raise
            rec.close(span, **(after(result, *args, **kwargs) if after else {}))
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def wrap_executor(self, cls, step_name: str) -> None:
        """Span an executor's ``execute`` generator and each of its steps."""
        original = cls.__dict__["execute"]
        rec = self

        def execute(executor, jobs, engine):
            outer = rec.open(
                "executor.execute",
                executor=executor.name,
                jobs=len(jobs),
                workers=getattr(executor, "max_workers", 1),
            )
            steps = original(executor, jobs, engine)
            ok = False
            try:
                while True:
                    step = rec.open(step_name)
                    try:
                        job, outcome = next(steps)
                    except StopIteration:
                        rec.close(step, final=True)
                        break
                    except BaseException as exc:
                        rec.close(step, ok=False, error=type(exc).__name__)
                        raise
                    rec.close(
                        step, backend=outcome.backend, n_branches=job.n_branches
                    )
                    if executor.name == "pool":
                        rec.pool_outcomes.append(outcome)
                    yield job, outcome
                ok = True
            finally:
                steps.close()
                rec.close(outer, ok=ok)

        setattr(cls, "execute", execute)
        self._undo.append((cls, "execute", original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _trace_key(name, n_branches=100_000, seed=0):
    return {"benchmark": name, "n_branches": n_branches, "seed": seed}


def install(span_dir: str) -> Recorder:
    """Wrap every layer boundary listed in the module docstring."""
    import repro.engine.engine as engine_mod
    import repro.fastpath as fastpath
    import repro.sweeps.executor as sweeps_executor
    import repro.trace.benchmarks as trace_benchmarks
    from repro.engine.cache import ReplayCache
    from repro.engine.executor import PoolExecutor, SerialExecutor
    from repro.pipeline.simulator import PipelineSimulator
    from repro.results.store import ResultStore

    rec = Recorder(span_dir)

    def simulated(stats, *args, **kwargs):
        rec.sim_stats.append(stats)
        return {
            "events": stats.branches,
            "cycles": stats.total_cycles,
            "wrong_path_uops": stats.wrong_path_uops,
            "gating_stalls": stats.gating_stalls,
            "gated_cycles": stats.gated_cycles,
            "reversals": stats.reversals,
        }

    rec.wrap(PipelineSimulator, "simulate", "pipeline.simulate", after=simulated)
    rec.wrap(
        trace_benchmarks,
        "generate_benchmark_trace",
        "trace.generate",
        before=_trace_key,
    )
    rec.wrap(
        fastpath,
        "replay",
        "fastpath.replay",
        before=lambda job, trace: {"n_branches": job.n_branches},
    )
    rec.wrap(
        fastpath,
        "supports",
        "fastpath.supports",
        after=lambda supported, job: {"supported": supported},
    )
    if fastpath.available():
        import repro.fastpath.driver as fastpath_driver

        rec.wrap(fastpath_driver, "run_predictor", "fastpath.predictor_pass")
        rec.wrap(fastpath_driver, "run_estimator", "fastpath.estimator_pass")

    def run_fields(engine, jobs, *args, **kwargs):
        return {
            "jobs": len(jobs),
            "unique": len({job.fingerprint for job in jobs}),
            "executed_before": engine.stats.executed,
        }

    def run_after(outcomes, engine, *args, **kwargs):
        return {"executed_after": engine.stats.executed}

    rec.wrap(engine_mod.Engine, "run", "engine.run", before=run_fields, after=run_after)
    rec.wrap(
        engine_mod,
        "execute_job",
        "engine.replay",
        before=lambda job: {"n_branches": job.n_branches},
        after=lambda outcome, job: {"backend": outcome.backend},
    )
    rec.wrap_executor(SerialExecutor, "engine.replay")
    rec.wrap_executor(PoolExecutor, "executor.wait")
    rec.wrap(ReplayCache, "get", "cache.replay_get")
    rec.wrap(ReplayCache, "put", "cache.replay_put")
    rec.wrap(ResultStore, "put_job", "store.put_job")
    rec.wrap(ResultStore, "put_experiment", "store.put_experiment")
    rec.wrap(ResultStore, "missing", "store.missing")
    rec.wrap(sweeps_executor, "run_sweep", "sweeps.run_sweep")
    return rec


# -- derivation ---------------------------------------------------------------


def self_times(events: List[dict]) -> Dict[int, float]:
    """Span id -> duration minus the part covered by same-process children.

    Children in another process (pool workers) run concurrently and are
    not subtracted.
    """
    spans = [e for e in events if e.get("event") == "span"]
    by_id = {(s["pid"], s["span_id"]): s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if (s["pid"], s["parent_id"]) in by_id:
            children[(s["pid"], s["parent_id"])].append(s)
    out = {}
    for s in spans:
        start, end = s["ts"], s["ts"] + s["duration_s"]
        covered = 0.0
        cursor = start
        for c in sorted(children[(s["pid"], s["span_id"])], key=lambda c: c["ts"]):
            lo = max(c["ts"], cursor)
            hi = min(c["ts"] + c["duration_s"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["span_id"]] = s["duration_s"] - covered
    return out


def _has_ancestor(span: dict, name: str, by_id: Dict[tuple, dict]) -> bool:
    parent = by_id.get((span["pid"], span["parent_id"]))
    while parent is not None:
        if parent["name"] == name:
            return True
        parent = by_id.get((parent["pid"], parent["parent_id"]))
    return False


def _quantile_ms(durations: List[float], tenth: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=10, method="inclusive")[tenth - 1] * 1e3


def derive(events: List[dict], owner: int, extra: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics from a traced rep's merged span list.

    ``extra`` carries what spans cannot show: replay-cache counters
    (``hits``, ``misses``, ``disk_hits``, ``cached_events``), bytes the
    disk cache grew by (``disk_write_bytes``), pickled bytes of pool
    outcomes (``result_bytes``) and the pool size (``workers``).
    """
    spans = [e for e in events if e.get("event") == "span"]
    selfs = self_times(spans)
    by_id = {(s["pid"], s["span_id"]): s for s in spans}
    named = defaultdict(list)
    for s in spans:
        named[s["name"]].append(s)

    def total(name, pred=lambda s: True):
        return sum(s["duration_s"] for s in named[name] if pred(s))

    def self_total(name, pred=lambda s: True):
        return sum(selfs[s["span_id"]] for s in named[name] if pred(s))

    def field_sum(name, key):
        return sum(s["fields"].get(key, 0) for s in named[name])

    m: Dict[str, float] = {}

    sim = named["pipeline.simulate"]
    sim_s = total("pipeline.simulate")
    events_n = field_sum("pipeline.simulate", "events")
    durations = sorted(s["duration_s"] for s in sim)
    m["pipeline.simulate.calls"] = len(sim)
    m["pipeline.simulate.s"] = sim_s
    m["pipeline.simulate.ms_p50"] = _quantile_ms(durations, 5)
    m["pipeline.simulate.ms_p70"] = _quantile_ms(durations, 7)
    m["pipeline.events"] = events_n
    m["pipeline.us_per_event"] = sim_s / events_n * 1e6 if events_n else 0.0
    m["pipeline.sim.cycles"] = field_sum("pipeline.simulate", "cycles")
    m["pipeline.sim.wrong_path_uops"] = field_sum("pipeline.simulate", "wrong_path_uops")
    m["pipeline.sim.gating_stalls"] = field_sum("pipeline.simulate", "gating_stalls")
    m["pipeline.sim.gated_cycles"] = field_sum("pipeline.simulate", "gated_cycles")
    m["pipeline.sim.reversals"] = field_sum("pipeline.simulate", "reversals")

    gen = named["trace.generate"]
    keys = {(s["fields"]["benchmark"], s["fields"]["n_branches"], s["fields"]["seed"]) for s in gen}
    m["trace.generate.calls"] = len(gen)
    m["trace.generate.s"] = total("trace.generate")
    m["trace.generate.per_key"] = len(gen) / len(keys) if keys else 0.0

    replays = named["fastpath.replay"]
    m["fastpath.replay.calls"] = len(replays)
    m["fastpath.replay.self_s"] = self_total("fastpath.replay")
    m["fastpath.predictor_pass.s"] = total("fastpath.predictor_pass")
    m["fastpath.predictor_pass.reuse_ratio"] = (
        1.0 - len(named["fastpath.predictor_pass"]) / len(replays) if replays else 0.0
    )
    m["fastpath.estimator_pass.s"] = total("fastpath.estimator_pass")
    m["fastpath.fallbacks"] = sum(
        1 for s in named["fastpath.supports"] if s["fields"].get("supported") is False
    ) + sum(
        1 for s in replays if s["fields"].get("error") == "FastPathUnsupported"
    )

    runs = named["engine.run"]
    submitted = field_sum("engine.run", "jobs")
    m["engine.run.calls"] = len(runs)
    m["engine.run.s"] = total("engine.run", lambda s: not _has_ancestor(s, "engine.run", by_id))
    m["engine.jobs.submitted"] = submitted
    m["engine.jobs.executed"] = sum(
        s["fields"].get("executed_after", 0) - s["fields"]["executed_before"] for s in runs
    )
    m["engine.dedup_ratio"] = (
        (submitted - field_sum("engine.run", "unique")) / submitted if submitted else 0.0
    )
    reference = [
        s for s in named["engine.replay"] if s["fields"].get("backend") == "reference"
    ]
    reference_s = sum(selfs[s["span_id"]] for s in reference)
    reference_branches = sum(s["fields"].get("n_branches", 0) for s in reference)
    m["engine.replay.reference.s"] = reference_s
    m["engine.replay.reference.us_per_branch"] = (
        reference_s / reference_branches * 1e6 if reference_branches else 0.0
    )

    lookups = extra["hits"] + extra["misses"]
    get_s = total("cache.replay_get")
    m["cache.replay.hit_ratio"] = extra["hits"] / lookups if lookups else 0.0
    m["cache.replay.disk_hits"] = extra["disk_hits"]
    m["cache.replay.cached_events"] = extra["cached_events"]
    m["cache.replay_get.s"] = get_s
    m["cache.replay_get.ms_per_disk_hit"] = (
        get_s / extra["disk_hits"] * 1e3 if extra["disk_hits"] else 0.0
    )
    m["cache.replay_put.s"] = total("cache.replay_put")
    m["cache.disk_write_mb"] = extra["disk_write_bytes"] / 1e6

    def top_level(s):
        return s["pid"] == owner and not _has_ancestor(s, "executor.execute", by_id)

    execute_s = total("executor.execute", top_level)
    steps = [
        s
        for name in ("engine.replay", "executor.wait")
        for s in named[name]
        if s["pid"] == owner
        and by_id.get((s["pid"], s["parent_id"]), {}).get("name") == "executor.execute"
        and top_level(by_id[(s["pid"], s["parent_id"])])
    ]
    busy = total("engine.replay", lambda s: s["pid"] != owner)
    workers = extra["workers"]
    m["executor.execute_s"] = execute_s
    m["executor.wait_s"] = sum(s["duration_s"] for s in steps)
    m["executor.worker_busy_s"] = busy
    m["executor.utilization"] = (
        busy / (workers * execute_s) if workers > 1 and execute_s else 0.0
    )
    m["executor.result_mb"] = extra["result_bytes"] / 1e6

    m["store.put_job.calls"] = len(named["store.put_job"])
    m["store.put_job.s"] = total("store.put_job")
    m["store.put_experiment.s"] = total("store.put_experiment")
    m["store.missing.s"] = total("store.missing")
    m["sweeps.run_sweep.self_s"] = self_total("sweeps.run_sweep")
    m["experiments.self_s"] = self_total("experiments")
    return m


def pool_result_bytes(rec: Recorder) -> int:
    """Pickled size of every outcome a pool worker sent back."""
    return sum(
        len(pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL))
        for outcome in rec.pool_outcomes
    )


def write_timeline(events: List[dict], owner: int, path: str) -> List[str]:
    """Write a schema-2 JSON-lines trace (``meta`` first); returns problems.

    Every event is checked with ``repro.telemetry.schema.validate_event``
    so ``python -m repro.telemetry timeline`` can render the file.
    """
    from repro.telemetry.schema import EVENT_SCHEMA, validate_event

    meta = {"event": "meta", "schema": EVENT_SCHEMA, "pid": owner}
    problems = []
    with open(path, "w", encoding="utf-8") as fh:
        for event in [meta] + events:
            problems.extend(validate_event(event))
            fh.write(json.dumps(event, sort_keys=True) + "\n")
    return problems
