"""The four ledger workloads and the outputs each one is checked on.

Each workload submits one fixed batch of paper experiments through the
repository's public entry points (``repro.experiments.<id>.run`` or
``repro.sweeps.executor.run_sweep``).  Its inputs are the synthetic
benchmark traces generated from the run's seed; the program under test
receives only the resulting settings.

Outputs checked against recorded digests:

- result rows: every row of every experiment table the workload
  produces, hashed one by one (an *op* of the failure ratio);
- per-job front-end metrics: ``ReplayOutcome.metrics_digest()`` of each
  unique job, keyed by a backend-independent job identity, read back
  from the engine's cache after the timed body;
- per-call timing-model statistics: a digest of every ``SimStats`` the
  pipeline simulator returned, in call order (traced rep only).

:mod:`repro` is imported inside functions only, so ``run.py`` can read
the workload table without loading the program.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

#: Benchmarks with the fewest and the most mispredictions per kilo-uop
#: in Table 2 (0.2 and 16.0): wrong-path work and in-flight load span
#: the whole range the timing model sees.
GATING_BENCHMARKS = ("vortex", "mcf")

#: Two mid-range benchmarks for the pooled sweep (one job per worker
#: keeps both workers busy for the whole batch).
SWEEP_BENCHMARKS = ("gzip", "twolf")

#: Row columns holding a reproduced value and its paper-reported value.
PAPER_COLUMNS = (
    ("U %", "paper U"),
    ("P %", "paper P"),
    ("PVN %", "paper PVN"),
    ("Spec %", "paper Spec"),
)


@dataclass(frozen=True)
class Workload:
    """One named workload.

    Attributes:
        name: Stable name (results and comparisons are keyed by it).
        experiments: Experiment ids run, in order.
        benchmarks: Benchmarks, or ``None`` for all twelve Table 2 ones.
        backend: Engine backend of every job.
        workers: Pool workers; 1 means the serial executor.
        cache: ``"fresh"`` (new empty disk cache per rep),
            ``"prefilled"`` (disk cache filled by the run's untimed
            warm-up rep) or ``"none"`` (memory cache only).
        sweep: Run through ``run_sweep`` into a fresh sqlite store.
        paper_table: Experiment whose rows carry paper-reported values.
    """

    name: str
    experiments: Tuple[str, ...]
    benchmarks: Optional[Tuple[str, ...]]
    backend: str
    workers: int
    cache: str
    sweep: bool
    paper_table: str


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("gating-cold", ("table4", "figure8"), GATING_BENCHMARKS,
                 "fast", 1, "fresh", False, "table4"),
        Workload("gating-warm", ("table4", "figure8"), GATING_BENCHMARKS,
                 "fast", 1, "prefilled", False, "table4"),
        Workload("ladder-cold", ("table3",), None,
                 "fast", 1, "none", False, "table3"),
        Workload("sweep-reference-pool", ("table3",), SWEEP_BENCHMARKS,
                 "reference", 2, "none", True, "table3"),
    )
}


def digest(obj) -> str:
    """Short SHA-256 of an object's canonical JSON encoding."""
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def job_ident(job) -> str:
    """Backend-independent identity of a job (reference fingerprint)."""
    return job.with_(backend="reference").fingerprint[:16]


def sim_digest(stats) -> str:
    """Digest of one ``SimStats`` (every field, exact float repr)."""
    return digest(asdict(stats))


def settings_for(workload: Workload, seed: int, n_branches: int,
                 warmup: int, backend: Optional[str] = None):
    """The ``ExperimentSettings`` the workload's experiments run with."""
    from repro.experiments.common import ExperimentSettings
    from repro.trace.benchmarks import BENCHMARK_NAMES

    return ExperimentSettings(
        n_branches=n_branches,
        warmup=warmup,
        seed=seed,
        benchmarks=workload.benchmarks or BENCHMARK_NAMES,
        backend=backend or workload.backend,
    )


def unique_jobs(workload: Workload, settings) -> list:
    """The workload's job set, deduplicated by fingerprint, in order."""
    from repro.experiments.runner import EXPERIMENT_JOBS

    jobs = {}
    for experiment in workload.experiments:
        for job in EXPERIMENT_JOBS[experiment](settings):
            jobs.setdefault(job.fingerprint, job)
    return list(jobs.values())


def _sweep_spec(workload: Workload):
    from repro.sweeps import SweepInstance, SweepSpec

    return SweepSpec(
        name=f"ledger-{workload.name}",
        description="ledger benchmark workload",
        experiments=workload.experiments,
        instances=(SweepInstance("default"),),
    )


class Prepared:
    """A workload configured in this process and ready to run.

    Construction is the benchmark's set-up: it imports what the workload
    calls and builds the first rep's state.  :meth:`reset` builds the
    state of each further rep: a fresh default engine (executor, worker
    count, empty in-memory caches) with the workload's disk cache, and
    for sweeps a fresh result store.  Disk caches and stores live under
    ``work_dir``: a ``"fresh"`` workload gets a new empty cache per rep,
    a ``"prefilled"`` one reuses a single cache that its first (untimed)
    rep fills.
    """

    def __init__(self, workload: Workload, settings, work_dir: str):
        import importlib

        self.workload = workload
        self.settings = settings
        self.work_dir = work_dir
        self._runs = [
            importlib.import_module(f"repro.experiments.{name}")
            for name in workload.experiments
        ]
        if workload.sweep:
            from repro.sweeps import executor as sweep_executor

            # run_sweep resolves experiment ids through the runner;
            # import it here so the timed body does not pay for it.
            importlib.import_module("repro.experiments.runner")
            self._sweep_executor = sweep_executor
        self._count = 0
        self._scratch: List[str] = []
        self.cache_dir: Optional[str] = None
        self.engine = None
        self.store = None
        self.reset()

    def reset(self) -> None:
        """Drop the last rep's engine, cache and store; build the next's."""
        from repro.engine import configure_engine
        from repro.engine.executor import PoolExecutor, SerialExecutor

        self.close()
        self._count += 1
        self.cache_dir = None
        if self.workload.cache == "prefilled":
            self.cache_dir = os.path.join(self.work_dir, "cache")
        elif self.workload.cache == "fresh":
            self.cache_dir = os.path.join(self.work_dir, f"cache-{self._count}")
            self._scratch.append(self.cache_dir)
        if self.cache_dir:
            os.makedirs(self.cache_dir, exist_ok=True)
        executor = (
            PoolExecutor(self.workload.workers)
            if self.workload.workers > 1
            else SerialExecutor(1)
        )
        self.engine = configure_engine(
            max_workers=self.workload.workers,
            cache_dir=self.cache_dir,
            executor=executor,
            reset=True,
        )
        if self.workload.sweep:
            from repro.results import ResultStore

            path = os.path.join(self.work_dir, f"store-{self._count}.sqlite")
            self._scratch.append(path)
            self.store = ResultStore(path)

    def _experiments(self) -> Dict[str, object]:
        return {
            name: module.run(self.settings)
            for name, module in zip(self.workload.experiments, self._runs)
        }

    def run(self) -> Dict[str, object]:
        """The timed body: submit the workload once; returns results."""
        if self.store is not None:
            self._sweep_executor.run_sweep(
                _sweep_spec(self.workload), self.store, self.settings
            )
            return {}
        return self._experiments()

    def rows(self, results: Dict[str, object]) -> Dict[str, List[dict]]:
        """Result rows per experiment.

        A sweep persists its tables in the store, not in ``results``:
        the tables are rebuilt from the engine's in-memory cache (no
        replay runs) and each stored record's rendered text is one more
        row, so the store's copy is checked too.
        """
        stored = {}
        if self.store is not None:
            from repro.sweeps import SweepDag

            dag = SweepDag.from_spec(_sweep_spec(self.workload), self.settings)
            for node in dag.experiments:
                record = self.store.get_experiment(node.key)
                stored[node.experiment] = record.formatted if record else None
            results = self._experiments()
        out = {name: _result_rows(result) for name, result in results.items()}
        for name, formatted in stored.items():
            out[name].append({"stored": formatted})
        return out

    def outputs(self, results: Dict[str, object]) -> Dict[str, object]:
        """Everything ``run.py`` checks and reports about this rep.

        Job digests come from re-submitting the job set after the timed
        body: every job is then an in-memory cache hit, so this reads
        back the outcomes the body produced rather than recomputing them.
        """
        rows = self.rows(results)
        errors = [
            abs(float(row[mine]) - float(row[paper]))
            for row in rows.get(self.workload.paper_table, [])
            for mine, paper in PAPER_COLUMNS
            if mine in row and paper in row
        ]
        jobs = unique_jobs(self.workload, self.settings)
        return {
            "rows": [digest(row) for name in rows for row in rows[name]],
            "jobs": {
                job_ident(job): outcome.metrics_digest()
                for job, outcome in zip(jobs, self.engine.run(jobs))
            },
            "paper_mae_pp": sum(errors) / len(errors) if errors else 0.0,
            "unique_branches": sum(job.n_branches for job in jobs),
        }

    def close(self) -> None:
        """Close the store and delete the last rep's cache and store files."""
        if self.store is not None:
            self.store.close()
            self.store = None
        for path in self._scratch:
            if os.path.isdir(path):
                shutil.rmtree(path)
            elif os.path.exists(path):
                os.unlink(path)
        self._scratch = []


def _result_rows(result) -> List[dict]:
    """Table rows of one experiment result (Table 3 keeps two ladders)."""
    from repro.analysis.export import rows_from_result

    if hasattr(result, "jrs") and hasattr(result, "perceptron"):
        return [point.as_dict() for point in result.jrs + result.perceptron]
    return rows_from_result(result)


def spot_check(workload: Workload, settings, count: int = 2) -> Dict[str, str]:
    """Front-end digests of a few jobs replayed on the *other* backend.

    The first and last job of the workload's batch (different
    benchmarks, estimators and policies) run in a cache-less engine on
    the backend the workload does not use; the caller compares them
    with the digests the timed reps produced.  Bit-identity across
    backends is the engine's contract, so any difference is an error.
    """
    from repro.engine import Engine

    jobs = unique_jobs(workload, settings)
    picks = [jobs[0], jobs[-1]][:count] if len(jobs) > 1 else jobs
    other = "fast" if settings.backend == "reference" else "reference"
    engine = Engine(max_workers=1, executor="serial")
    outcomes = engine.run([job.with_(backend=other) for job in picks])
    return {
        job_ident(job): outcome.metrics_digest()
        for job, outcome in zip(picks, outcomes)
    }


def disk_bytes(path: Optional[str]) -> int:
    """Bytes of cache entries under ``path`` (0 when there is none)."""
    if not path:
        return 0
    total = 0
    for dirpath, _, filenames in os.walk(path):
        for name in filenames:
            if name.endswith(".pkl"):
                total += os.path.getsize(os.path.join(dirpath, name))
    return total
