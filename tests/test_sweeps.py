"""End-to-end tests for the sweep layer (spec -> DAG -> store).

The contract under test is the ISSUE's acceptance set: a sweep
populates the store, re-running executes nothing, a crashed sweep
resumes with only the missing jobs (proved via telemetry counters),
and the report re-rendered purely from the store is bit-identical to
one rendered from fresh results.
"""

import json

import pytest

import repro.engine.engine as engine_module
from repro import telemetry
from repro.engine import configure_engine
from repro.experiments.common import ExperimentSettings
from repro.experiments.runner import (
    EXPERIMENT_JOBS,
    EXPERIMENTS,
    EXTENSION_EXPERIMENTS,
    PAPER_EXPERIMENTS,
)
from repro.results import ResultStore
from repro.sweeps import (
    SweepDag,
    SweepInstance,
    SweepSpec,
    SweepSpecError,
    builtin_spec_names,
    load_spec,
    record_key,
    render_from_store,
    report_markdown,
    resolve_instance,
    run_sweep,
)
from repro.sweeps.cli import main as sweeps_main

BASE = ExperimentSettings(n_branches=4_000, warmup=1_200, benchmarks=("gzip",))

SPEC = SweepSpec(
    name="tiny",
    description="test sweep",
    experiments=("table2", "figure4_5"),
    instances=(SweepInstance(name="default"),),
)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.close_trace()
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.close_trace()
    telemetry.disable()
    telemetry.reset()


@pytest.fixture()
def fresh_engine(tmp_path):
    """A cold default engine with a disk replay cache, restored after."""
    engine = configure_engine(reset=True, cache_dir=str(tmp_path / "cache"))
    yield engine
    configure_engine(reset=True)


class TestSpec:
    def test_builtin_specs_load_and_validate(self):
        names = builtin_spec_names()
        assert {"paper", "extensions", "quick"} <= set(names)
        for name in names:
            spec = load_spec(name)
            assert spec.experiments
            for experiment in spec.experiments:
                assert experiment in EXPERIMENT_JOBS

    def test_paper_spec_matches_full_suite(self):
        assert load_spec("paper").experiments == tuple(PAPER_EXPERIMENTS)

    def test_extension_specs_cover_retired_suites(self):
        covered = set(load_spec("extensions").experiments) | set(
            load_spec("h2p").experiments
        )
        assert covered == set(EXTENSION_EXPERIMENTS)

    def test_load_rejects_bad_specs(self, tmp_path):
        def _load(doc):
            path = tmp_path / "s.json"
            path.write_text(json.dumps(doc))
            return load_spec(str(path))

        with pytest.raises(SweepSpecError, match="schema"):
            _load({"schema": 99, "name": "x", "experiments": ["table2"]})
        with pytest.raises(SweepSpecError, match="unknown experiments"):
            _load({"schema": 1, "name": "x", "experiments": ["nonesuch"]})
        with pytest.raises(SweepSpecError, match="unknown settings"):
            _load({
                "schema": 1, "name": "x", "experiments": ["table2"],
                "instances": [{"name": "i", "settings": {"bogus": 1}}],
            })
        with pytest.raises(SweepSpecError, match="not a builtin"):
            load_spec("nonesuch-spec")

    def test_resolve_instance_applies_scale_then_overrides(self):
        instance = SweepInstance(
            name="i",
            settings=(("benchmarks", ("gzip",)), ("scale", 0.5), ("seed", 9)),
        )
        settings = resolve_instance(BASE, instance)
        assert settings.n_branches == 2_000
        assert settings.seed == 9
        assert settings.benchmarks == ("gzip",)

    def test_record_key_tracks_settings(self):
        a = record_key("table2", BASE)
        assert a == record_key("table2", BASE)
        assert a != record_key("table3", BASE)
        assert a != record_key("table2", BASE.scaled(0.5))


class TestDag:
    def test_shared_jobs_deduplicate(self):
        spec = SweepSpec(
            name="shared",
            description="",
            experiments=("figure8", "figure9"),  # figure9 reuses figure8's jobs
            instances=(SweepInstance(name="default"),),
        )
        dag = SweepDag.from_spec(spec, BASE)
        assert dag.submitted_jobs == 2 * len(dag.jobs)
        assert len(dag.experiments) == 2


class TestRunSweep:
    def test_populates_store_and_resumes_with_zero_work(self, fresh_engine):
        with ResultStore(":memory:") as store:
            outcome = run_sweep(SPEC, store, BASE)
            assert outcome.executed_jobs == outcome.planned_jobs > 0
            assert outcome.experiments_run == 2
            assert store.job_count() == outcome.planned_jobs
            again = run_sweep(SPEC, store, BASE)
            assert again.executed_jobs == 0
            assert again.experiments_run == 0
            assert again.experiments_cached == 2

    def test_render_from_store_is_bit_identical_to_fresh(self, fresh_engine):
        with ResultStore(":memory:") as store:
            run_sweep(SPEC, store, BASE)
            stored_md = render_from_store(SPEC, store, BASE)
        fresh_results = {
            section: EXPERIMENTS[experiment](resolve_instance(BASE, instance))
            for experiment, instance, section in SPEC.section_names
        }
        fresh_md = report_markdown(SPEC, BASE, fresh_results)
        assert stored_md == fresh_md

    def test_render_from_store_names_missing_sections(self, fresh_engine):
        with ResultStore(":memory:") as store:
            with pytest.raises(KeyError, match="table2"):
                render_from_store(SPEC, store, BASE)

    def test_crash_resume_executes_only_missing_jobs(
        self, tmp_path, fresh_engine
    ):
        path = str(tmp_path / "r.sqlite")
        jobs = SweepDag.from_spec(SPEC, BASE).job_list()
        assert len(jobs) >= 2
        # The sweep dies after its first job: store and disk cache hold
        # exactly that completed prefix (both are written per-outcome).
        with ResultStore(path) as store:
            fresh_engine.result_sink = lambda job, outcome: store.put_job(
                job, outcome.canonical_metrics()
            )
            try:
                fresh_engine.run(jobs[:1])
            finally:
                fresh_engine.result_sink = None
            assert store.job_count() == 1

        # Fresh process: memory caches gone, disk cache + store survive.
        configure_engine(reset=True, cache_dir=str(tmp_path / "cache"))
        telemetry.enable()
        before = telemetry.get_registry().snapshot()
        with ResultStore(path) as store:
            outcome = run_sweep(SPEC, store, BASE)
            assert store.job_count() == len(jobs)
        delta = telemetry.get_registry().snapshot().since(before)
        executed = delta.counter(
            "engine_replays_total", backend="reference"
        ) + delta.counter("engine_replays_total", backend="fast")
        # Only the jobs lost to the crash replayed; the stored one was
        # served by the disk cache during the experiment phase.
        assert executed == len(jobs) - 1
        assert outcome.executed_jobs == len(jobs) - 1

    def test_sink_crash_mid_batch_preserves_completed_work(
        self, tmp_path, fresh_engine
    ):
        path = str(tmp_path / "r.sqlite")

        class CrashingStore(ResultStore):
            """Dies while persisting the second outcome."""

            puts = 0

            def put_job(self, job, metrics):
                if self.puts >= 1:
                    raise KeyboardInterrupt("simulated crash")
                CrashingStore.puts += 1
                return super().put_job(job, metrics)

        with CrashingStore(path) as store:
            with pytest.raises(KeyboardInterrupt):
                run_sweep(SPEC, store, BASE)
            # The first outcome landed before the crash: persistence is
            # incremental, not batch-end.
            assert store.job_count() == 1

        configure_engine(reset=True, cache_dir=str(tmp_path / "cache"))
        with ResultStore(path) as store:
            outcome = run_sweep(SPEC, store, BASE)
            total = len(SweepDag.from_spec(SPEC, BASE).jobs)
            assert store.job_count() == total
            # The in-flight outcome reached the disk cache before its
            # sink call crashed, so resume re-executes nothing.
            assert outcome.executed_jobs == 0

    def test_corrupt_row_heals_by_reexecution(self, fresh_engine):
        with ResultStore(":memory:") as store:
            first = run_sweep(SPEC, store, BASE)
            victim = store.query_jobs()[0].fingerprint
            store.corrupt_job(victim)
            # Fully cold engine (no disk cache): the corrupt row's job
            # must genuinely re-execute, not replay from a cache.
            configure_engine(reset=True)
            healed = run_sweep(SPEC, store, BASE)
            assert healed.executed_jobs == 1
            assert store.get_job(victim) is not None
            assert first.planned_jobs == store.job_count()

    def test_single_pass_replays_each_job_once(self, monkeypatch):
        # A memory cache too small to hold any outcome: a job the sweep
        # needed twice (to persist it, then to run its experiment)
        # would replay twice.
        monkeypatch.setattr(engine_module, "DEFAULT_EVENT_BUDGET", 1)
        configure_engine(reset=True)
        try:
            telemetry.enable()
            before = telemetry.get_registry().snapshot()
            with ResultStore(":memory:") as store:
                outcome = run_sweep(SPEC, store, BASE)
                assert store.job_count() == outcome.planned_jobs
            delta = telemetry.get_registry().snapshot().since(before)
        finally:
            monkeypatch.undo()
            configure_engine(reset=True)
        replays = sum(delta.counter_series("engine_replays_total").values())
        assert outcome.executed_jobs == outcome.planned_jobs == 2
        assert replays == 2

    def test_leaves_disabled_telemetry_uncounted(self, fresh_engine):
        # Telemetry is off unless the caller turns it on: a sweep must
        # not count into a registry that nothing writes out.
        with ResultStore(":memory:") as store:
            run_sweep(SPEC, store, BASE)
        registry = telemetry.get_registry()
        assert not registry.enabled
        assert registry.snapshot().empty


def _write_tiny_spec(tmp_path) -> str:
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({
        "schema": 1,
        "name": "tiny",
        "description": "cli test sweep",
        "experiments": ["table2"],
        "instances": [{
            "name": "default",
            "settings": {
                "n_branches": 4000, "warmup": 1200, "benchmarks": ["gzip"],
            },
        }],
    }))
    return str(path)


class TestCli:
    def test_run_render_status_query(self, tmp_path, fresh_engine, capsys):
        spec = _write_tiny_spec(tmp_path)
        store = str(tmp_path / "r.sqlite")
        cache = str(tmp_path / "cli-cache")
        run_md = str(tmp_path / "run.md")
        assert sweeps_main([
            "run", spec, "--store", store, "--cache-dir", cache,
            "--markdown", run_md,
        ]) == 0
        out = capsys.readouterr().out
        assert "1 experiment(s) rendered" in out

        render_md = str(tmp_path / "render.md")
        assert sweeps_main([
            "render", spec, "--store", store, "--markdown", render_md,
        ]) == 0
        with open(run_md, "rb") as a, open(render_md, "rb") as b:
            assert a.read() == b.read()

        assert sweeps_main(["status", "--store", store]) == 0
        assert "1 experiment record(s)" in capsys.readouterr().out

        assert sweeps_main([
            "query", "--store", store, "--benchmark", "gzip", "--json",
        ]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows and rows[0]["benchmark"] == "gzip"

    def test_render_fails_cleanly_on_empty_store(self, tmp_path, capsys):
        spec = _write_tiny_spec(tmp_path)
        status = sweeps_main([
            "render", spec, "--store", str(tmp_path / "empty.sqlite"),
        ])
        assert status == 1
        assert "missing" in capsys.readouterr().err

    def test_unknown_spec_is_a_usage_error(self, tmp_path, capsys):
        assert sweeps_main([
            "run", "nonesuch-spec", "--store", str(tmp_path / "r.sqlite"),
        ]) == 2

    def test_runner_rejects_executor_flag(self, fresh_engine, capsys):
        from repro.experiments.runner import main as runner_main

        with pytest.raises(SystemExit) as exc:
            runner_main(["--executor", "serial", "--branches", "2000", "table2"])
        assert exc.value.code == 2
        assert "--executor" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--fleet-queue", "--profile"])
    def test_sweeps_run_rejects_fleet_queue_flag(
        self, tmp_path, fresh_engine, capsys, flag
    ):
        with pytest.raises(SystemExit) as exc:
            sweeps_main([
                "run", "quick", flag, str(tmp_path / "q.sqlite"),
                "--branches", "2000", "--store", str(tmp_path / "r.sqlite"),
                "--cache-dir", str(tmp_path / "cli-cache"),
            ])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_runner_report_matches_sweeps_run_of_its_spec(
        self, tmp_path, fresh_engine
    ):
        from repro.experiments.runner import main as runner_main
        from repro.experiments.runner import selection_spec

        selection = selection_spec(["table2"])
        spec = tmp_path / "selection.json"
        spec.write_text(json.dumps({
            "schema": 1,
            "name": selection.name,
            "description": selection.description,
            "experiments": list(selection.experiments),
        }))
        runner_md = tmp_path / "runner.md"
        sweeps_md = tmp_path / "sweeps.md"
        assert runner_main([
            "--branches", "4000", "table2", "--markdown", str(runner_md),
        ]) == 0
        assert sweeps_main([
            "run", str(spec), "--branches", "4000",
            "--store", str(tmp_path / "r.sqlite"),
            "--cache-dir", str(tmp_path / "cli-cache"),
            "--markdown", str(sweeps_md),
        ]) == 0
        assert runner_md.read_bytes() == sweeps_md.read_bytes()

    def test_read_only_commands_refuse_a_missing_store(
        self, tmp_path, capsys
    ):
        store = str(tmp_path / "typo" / "r.sqlite")
        for argv in (["render", "quick"], ["status"], ["query"]):
            assert sweeps_main(argv + ["--store", store]) == 1
            err = capsys.readouterr().err
            assert f"error: result store {store} is missing" in err
        assert list(tmp_path.iterdir()) == []
