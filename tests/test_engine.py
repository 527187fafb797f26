"""Tests for the declarative simulation engine.

Covers the spec registries, job fingerprinting, the budgeted replay and
trace caches (memory and disk), batch execution with deduplication, and
the determinism contract: serial, parallel and cached runs of the same
jobs must be bit-identical.
"""

import copy
import logging
import os
import pickle

import pytest

from repro.core.frontend import FrontEndEvents
from repro.engine import (
    ALWAYS_HIGH,
    BASELINE_PREDICTOR,
    GATING_POLICY,
    NO_POLICY,
    Engine,
    EstimatorSpec,
    PolicySpec,
    PredictorSpec,
    ReplayCache,
    ReplayOutcome,
    SimJob,
    SpecError,
    TraceCache,
    configure_engine,
    get_engine,
)
from repro.engine.cache import DEFAULT_EVENT_BUDGET, _LruBudget

JOB = SimJob(
    benchmark="gzip",
    n_branches=3_000,
    warmup=1_000,
    seed=1,
    estimator=EstimatorSpec.of("perceptron", threshold=0),
)


class TestSpecs:
    def test_registries_are_separate(self):
        assert "perceptron" in EstimatorSpec.kinds()
        assert "perceptron" not in PolicySpec.kinds()
        assert "baseline_hybrid" in PredictorSpec.kinds()

    def test_unknown_kind(self):
        with pytest.raises(SpecError):
            EstimatorSpec.of("nonesuch")

    def test_params_are_order_insensitive(self):
        a = EstimatorSpec.of("jrs", threshold=7, enhanced=True)
        b = EstimatorSpec.of("jrs", enhanced=True, threshold=7)
        assert a == b
        assert hash(a) == hash(b)

    def test_build_constructs_component(self):
        est = EstimatorSpec.of("jrs", threshold=7).build()
        assert est.name.startswith("jrs") or "JRS" in type(est).__name__

    def test_build_rejects_bad_params(self):
        with pytest.raises(TypeError):
            EstimatorSpec.of("jrs", nonesuch=1).build()

    def test_nested_fusion_spec(self):
        fused = EstimatorSpec.of(
            "agreement",
            primary=EstimatorSpec.of("perceptron", threshold=0),
            secondary=EstimatorSpec.of("jrs", threshold=7),
            mode="union",
        )
        built = fused.build()
        assert type(built).__name__ == "AgreementEstimator"
        # Nested specs appear in the canonical form (fingerprintable).
        assert "jrs" in repr(fused.canonical())

    def test_arguments_fill_in_constructor_defaults(self):
        assert EstimatorSpec.of("jrs", threshold=5).arguments() == {
            "entries": 8192,
            "counter_bits": 4,
            "threshold": 5,
            "history_length": 13,
            "enhanced": True,
        }
        assert ALWAYS_HIGH.arguments() == {}

    def test_arguments_keep_nested_specs(self):
        primary = EstimatorSpec.of("perceptron", threshold=0)
        secondary = EstimatorSpec.of("jrs", threshold=7)
        fused = EstimatorSpec.of("cascade", primary=primary, secondary=secondary)
        assert fused.arguments() == {
            "primary": primary,
            "secondary": secondary,
            "neutral_band": 30.0,
            "primary_threshold": 0.0,
        }

    def test_arguments_name_an_unknown_param(self):
        with pytest.raises(SpecError, match="nonesuch"):
            EstimatorSpec.of("jrs", nonesuch=1).arguments()
        with pytest.raises(SpecError, match="primary"):
            EstimatorSpec.of("agreement").arguments()

    def test_specs_are_picklable(self):
        spec = EstimatorSpec.of("perceptron", threshold=0)
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_unhashable_param_rejected(self):
        with pytest.raises(SpecError):
            EstimatorSpec.of("perceptron", weights=[1, 2, 3], bad=object())


class TestSimJob:
    def test_fingerprint_is_stable_and_sensitive(self):
        same = SimJob(
            benchmark="gzip",
            n_branches=3_000,
            warmup=1_000,
            seed=1,
            estimator=EstimatorSpec.of("perceptron", threshold=0),
        )
        assert same.fingerprint == JOB.fingerprint
        for changed in (
            JOB.with_(seed=2),
            JOB.with_(n_branches=4_000),
            JOB.with_(warmup=999),
            JOB.with_(benchmark="gcc"),
            JOB.with_(estimator=EstimatorSpec.of("perceptron", threshold=1)),
            JOB.with_(policy=GATING_POLICY),
            JOB.with_(collect_outputs=True),
            JOB.with_(backend="fast"),
        ):
            assert changed.fingerprint != JOB.fingerprint

    def test_defaults(self):
        job = SimJob(benchmark="gzip", n_branches=100, warmup=0, seed=1)
        assert job.predictor == BASELINE_PREDICTOR
        assert job.estimator == ALWAYS_HIGH
        assert job.policy == NO_POLICY

    def test_validation(self):
        with pytest.raises(ValueError):
            SimJob(benchmark="gzip", n_branches=0, warmup=0, seed=1)
        with pytest.raises(ValueError):
            SimJob(benchmark="gzip", n_branches=10, warmup=10, seed=1)
        with pytest.raises(ValueError):
            SimJob(
                benchmark="gzip", n_branches=10, warmup=0, seed=1,
                backend="turbo",
            )

    def test_job_is_picklable_and_hashable(self):
        assert pickle.loads(pickle.dumps(JOB)) == JOB
        assert JOB in {JOB}


class TestLruBudget:
    def test_evicts_oldest_over_budget(self):
        lru = _LruBudget(budget=10)
        lru.put("a", 1, cost=4)
        lru.put("b", 2, cost=4)
        lru.put("c", 3, cost=4)  # spends 12 > 10: evicts "a"
        assert lru.get("a") is None
        assert lru.get("b") == 2
        assert lru.evictions == 1

    def test_get_refreshes_recency(self):
        lru = _LruBudget(budget=10)
        lru.put("a", 1, cost=4)
        lru.put("b", 2, cost=4)
        assert lru.get("a") == 1  # "b" is now the LRU entry
        lru.put("c", 3, cost=4)
        assert lru.get("b") is None
        assert lru.get("a") == 1

    def test_oversized_entry_still_admitted(self):
        lru = _LruBudget(budget=10)
        lru.put("big", 1, cost=100)
        assert lru.get("big") == 1


class TestReplayCacheDisk:
    def test_roundtrip(self, tmp_path):
        outcome = Engine().replay(JOB)
        cache = ReplayCache(disk_dir=str(tmp_path))
        cache.put(JOB.fingerprint, outcome)
        cache.clear()  # drop memory; the disk layer must serve it

        restored = cache.get(JOB.fingerprint)
        assert restored is not None
        assert restored.from_cache
        assert cache.stats.disk_hits == 1
        assert restored.events == outcome.events
        assert restored.result == outcome.result

    def test_disk_layout(self, tmp_path):
        """Entries pickle a plain pair at a fixed path, so cache
        directories written by earlier versions stay readable."""
        outcome = Engine().replay(JOB)
        fp = JOB.fingerprint
        ReplayCache(disk_dir=str(tmp_path)).put(fp, outcome)
        assert (tmp_path / fp[:2] / f"{fp}.pkl").read_bytes() == pickle.dumps(
            (outcome.events, outcome.result), protocol=pickle.HIGHEST_PROTOCOL
        )

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_entry_loads_back_as_columns(self, tmp_path, backend):
        outcome = Engine().replay(JOB.with_(backend=backend))
        assert isinstance(outcome.events, FrontEndEvents)
        cache = ReplayCache(disk_dir=str(tmp_path))
        cache.put(JOB.fingerprint, outcome)
        cache.clear()

        restored = cache.get(JOB.fingerprint)
        assert cache.stats.disk_hits == 1
        assert isinstance(restored.events, FrontEndEvents)
        assert restored.events == outcome.events
        assert list(restored.events) == list(outcome.events)

    def test_miss_on_empty_dir(self, tmp_path):
        cache = ReplayCache(disk_dir=str(tmp_path))
        assert cache.get(JOB.fingerprint) is None
        assert cache.stats.misses == 1

    def test_engine_level_disk_reuse(self, tmp_path):
        a = Engine(cache_dir=str(tmp_path))
        first = a.replay(JOB)
        b = Engine(cache_dir=str(tmp_path))  # separate engine, same dir
        second = b.replay(JOB)
        assert second.from_cache
        assert b.stats.replay.disk_hits == 1
        assert second.events == first.events


class TestTraceCache:
    def test_same_key_same_object(self):
        cache = TraceCache()
        assert cache.get("gzip", 2_000, 1) is cache.get("gzip", 2_000, 1)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_distinct_keys(self):
        cache = TraceCache()
        assert cache.get("gzip", 2_000, 1) is not cache.get("gzip", 2_000, 2)


class TestEngineRun:
    def test_dedup_executes_once(self):
        engine = Engine()
        outcomes = engine.run([JOB, JOB, JOB])
        assert engine.stats.executed == 1
        assert len(outcomes) == 3
        assert outcomes[0].events is outcomes[1].events

    def test_results_in_submission_order(self):
        engine = Engine()
        jobs = [JOB.with_(seed=s) for s in (3, 1, 2)]
        outcomes = engine.run(jobs)
        again = engine.run(list(reversed(jobs)))
        assert [o.result for o in outcomes] == [o.result for o in reversed(again)]
        assert all(o.from_cache for o in again)

    def test_outcome_unpacks_as_events_result(self):
        events, result = Engine().replay(JOB)
        assert len(events) == JOB.n_branches - JOB.warmup
        assert result.branches == len(events)

    def test_serial_parallel_cached_identical(self):
        jobs = [
            JOB.with_(estimator=EstimatorSpec.of("perceptron", threshold=t))
            for t in (0, -25)
        ]
        serial = Engine().run(jobs)
        parallel_engine = Engine(max_workers=2)
        parallel = parallel_engine.run(jobs)
        assert parallel_engine.stats.parallel_executed == len(jobs)
        cached = parallel_engine.run(jobs)
        assert all(o.from_cache for o in cached)
        for s, p, c in zip(serial, parallel, cached):
            assert s.events == p.events == c.events
            assert s.result == p.result == c.result

    def test_worker_validation(self):
        with pytest.raises(ValueError):
            Engine(max_workers=0)


class TestConfigureEngine:
    """Both paths of ``configure_engine`` validate the same way."""

    @pytest.fixture(autouse=True)
    def _restore_default_engine(self):
        configure_engine(reset=True)
        yield
        configure_engine(reset=True)

    @pytest.mark.parametrize("reset", [True, False])
    @pytest.mark.parametrize(
        "setting",
        [
            {"max_workers": 0},
            {"executor": "carrier-pigeon"},
        ],
        ids=["workers", "executor"],
    )
    def test_invalid_setting_rejected_unchanged(self, reset, setting):
        engine = get_engine()
        before = (
            engine.max_workers,
            engine._replays._lru.budget,
            engine.executor,
        )
        with pytest.raises(ValueError):
            configure_engine(reset=reset, **setting)
        assert get_engine() is engine
        assert (
            engine.max_workers,
            engine._replays._lru.budget,
            engine.executor,
        ) == before

    @pytest.mark.parametrize("reset", [True, False])
    def test_none_means_default_or_unchanged(self, reset):
        configure_engine(max_workers=3, executor="serial")
        engine = configure_engine(reset=reset)
        assert engine._replays._lru.budget == DEFAULT_EVENT_BUDGET
        if reset:
            assert engine.max_workers == 1
            assert engine.executor is None
        else:
            assert engine.max_workers == 3
            assert engine.executor == "serial"


class TestRunnerFlags:
    def test_branches_wins_over_quick(self):
        from repro.experiments.runner import resolve_settings

        assert resolve_settings(quick=True).n_branches == 30_000
        settings = resolve_settings(quick=True, branches=9_000)
        assert settings.n_branches == 9_000
        assert settings.warmup == 3_000
        # --quick still contributed nothing else; defaults otherwise.
        assert settings.seed == resolve_settings().seed

    def test_branches_below_one_is_rejected(self):
        from repro.experiments.runner import resolve_settings

        for branches in (0, -5):
            with pytest.raises(ValueError):
                resolve_settings(branches=branches)

    @pytest.mark.parametrize("branches", ["0", "-5"])
    def test_branches_below_one_is_a_usage_error(
        self, tmp_path, capsys, branches
    ):
        from repro.experiments.runner import main as runner_main
        from repro.sweeps.cli import main as sweeps_main

        store = str(tmp_path / "r.sqlite")
        for main, argv in (
            (sweeps_main, ["render", "quick", "--store", store]),
            (runner_main, ["table2"]),
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--branches", branches])
            assert exc.value.code == 2
            assert "--branches" in capsys.readouterr().err

    def test_extensions_append_to_selection(self):
        from repro.experiments.runner import (
            EXTENSION_EXPERIMENTS,
            PAPER_EXPERIMENTS,
            select_experiments,
        )

        assert select_experiments() == list(PAPER_EXPERIMENTS)
        both = select_experiments(extensions=True)
        assert both == list(PAPER_EXPERIMENTS) + list(EXTENSION_EXPERIMENTS)
        explicit = select_experiments(["smt", "table2"], extensions=True)
        assert explicit[:2] == ["smt", "table2"]
        assert "smt" not in explicit[2:]  # no repeats
        assert set(EXTENSION_EXPERIMENTS) <= set(explicit)

    def test_unknown_selection(self):
        from repro.experiments.runner import select_experiments

        with pytest.raises(KeyError):
            select_experiments(["bogus"])


class TestCorruptDiskCache:
    """A damaged disk entry must be dropped and recomputed, not raised."""

    def _plant(self, tmp_path, payload: bytes):
        cache = ReplayCache(disk_dir=str(tmp_path))
        path = cache._disk_path(JOB.fingerprint)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(payload)
        return cache

    def test_truncated_pickle_recovers(self, tmp_path, caplog):
        outcome = Engine().replay(JOB)
        good = pickle.dumps((outcome.events, outcome.result))
        cache = self._plant(tmp_path, good[: len(good) // 2])
        with caplog.at_level(logging.WARNING, logger="repro.engine.cache"):
            assert cache.lookup(JOB.fingerprint) == (None, None)
        assert cache.stats.corrupt == 1
        assert cache.stats.misses == 1
        assert not os.path.exists(cache._disk_path(JOB.fingerprint))
        message = f"{cache.kind} cache: dropping corrupt entry; recomputing"
        assert any(message in r.message for r in caplog.records)

    def test_wrong_structure_recovers(self, tmp_path):
        cache = self._plant(tmp_path, pickle.dumps("not an outcome tuple"))
        assert cache.lookup(JOB.fingerprint) == (None, None)
        assert cache.stats.corrupt == 1

    def test_entry_of_earlier_versions_is_recomputed(self, tmp_path, monkeypatch):
        """Results pickled before ``FrontEndResult.matrix`` reference the
        deleted ``MetricsCollector``: such an entry cannot load, so it is
        dropped and recomputed like any unreadable one."""
        import repro.core.metrics as metrics_module

        class MetricsCollector:
            pass

        MetricsCollector.__module__ = metrics_module.__name__
        MetricsCollector.__qualname__ = "MetricsCollector"
        monkeypatch.setattr(
            metrics_module, "MetricsCollector", MetricsCollector, raising=False
        )
        outcome = Engine().replay(JOB)
        stale = copy.copy(outcome.result)
        del stale.matrix
        stale.metrics = MetricsCollector()
        payload = pickle.dumps((outcome.events, stale))
        monkeypatch.undo()

        self._plant(tmp_path, payload)
        engine = Engine(cache_dir=str(tmp_path))
        served = engine.replay(JOB)
        assert not served.from_cache
        assert engine.stats.replay.corrupt == 1
        assert served.result == outcome.result
        assert Engine(cache_dir=str(tmp_path)).replay(JOB).from_cache

    def test_engine_recomputes_and_repairs(self, tmp_path, caplog):
        # Warm a valid cache dir, then truncate the entry on disk.
        warm = Engine(cache_dir=str(tmp_path))
        expected = warm.replay(JOB)
        path = warm._replays._disk_path(JOB.fingerprint)
        with open(path, "rb") as fh:
            good = fh.read()
        with open(path, "wb") as fh:
            fh.write(good[: len(good) // 3])

        engine = Engine(cache_dir=str(tmp_path))
        with caplog.at_level(logging.WARNING, logger="repro.engine.cache"):
            outcome = engine.replay(JOB)
        assert not outcome.from_cache  # recomputed, not served corrupt
        assert outcome.events == expected.events
        assert engine.stats.replay.corrupt == 1
        # The corrupt file was unlinked so the recompute re-wrote it;
        # a third engine must now get a clean disk hit.
        again = Engine(cache_dir=str(tmp_path)).replay(JOB)
        assert again.from_cache
        assert again.events == expected.events


class TestDeterminismExtended:
    """Serial == parallel == cached beyond front-end metrics.

    The engine contract says *everything derived from an outcome* is
    reproducible; SMT and energy-model numbers exercise the jitter
    hashing and uops accounting on top of the raw event streams.
    """

    JOBS = [
        SimJob(
            benchmark=benchmark,
            n_branches=3_000,
            warmup=1_000,
            seed=1,
            estimator=EstimatorSpec.of("perceptron", threshold=0),
            policy=GATING_POLICY,
        )
        for benchmark in ("gzip", "twolf")
    ]

    @staticmethod
    def _derived(outcomes):
        from repro.pipeline.config import STANDARD_20X4
        from repro.pipeline.energy import EnergyModel
        from repro.pipeline.simulator import PipelineSimulator
        from repro.pipeline.smt import SmtSimulator

        config = STANDARD_20X4.with_gating(1)
        events_a, events_b = (o.events for o in outcomes)
        smt = SmtSimulator(config, gate_yields=True).simulate(
            events_a, events_b
        )
        single = SmtSimulator(config, gate_yields=True).simulate(events_a)
        stats = PipelineSimulator(config).simulate(events_a)
        energy = EnergyModel().evaluate(stats, estimator_active=True)
        return {
            "smt_cycles": smt.total_cycles,
            "smt_correct": smt.combined_correct_uops,
            "smt_wrong": smt.combined_wrong_path_uops,
            "smt_gated": tuple(t.gated_cycles for t in smt.threads),
            "single_cycles": single.total_cycles,
            "sim": stats.as_dict(),
            "energy": (energy.total, energy.energy_delay_product),
        }

    def test_smt_and_energy_serial_parallel_cached(self):
        serial = self._derived(Engine().run(self.JOBS))
        parallel_engine = Engine(max_workers=2)
        parallel = self._derived(parallel_engine.run(self.JOBS))
        assert parallel_engine.stats.parallel_executed == len(self.JOBS)
        cached_outcomes = parallel_engine.run(self.JOBS)
        assert all(o.from_cache for o in cached_outcomes)
        cached = self._derived(cached_outcomes)
        assert serial == parallel == cached

    def test_smt_and_energy_disk_cache_roundtrip(self, tmp_path):
        direct = self._derived(Engine(cache_dir=str(tmp_path)).run(self.JOBS))
        revived_outcomes = Engine(cache_dir=str(tmp_path)).run(self.JOBS)
        assert all(o.from_cache for o in revived_outcomes)
        assert self._derived(revived_outcomes) == direct

    def test_canonical_metrics_digest_stable(self):
        fresh, = Engine().run([self.JOBS[0]])
        cached, = Engine().run([self.JOBS[0]])
        assert fresh.metrics_digest() == cached.metrics_digest()
        metrics = fresh.canonical_metrics()
        assert all(isinstance(v, int) for v in metrics.values())
        assert metrics["branches"] == fresh.result.branches
