"""Property-based tests for sweep expansion (hypothesis).

The sweep layer's correctness rests on two invariants the examples
in test_sweeps.py cannot cover exhaustively:

- expansion deduplicates by fingerprint: however many experiments or
  instances request the same replay, the DAG holds it once;
- replay outcomes are independent of execution order and of the
  ``--jobs`` fan-out level, so resuming a sweep in any order is safe.

Execution examples run at tiny sizing (single benchmark, 2k branches)
to keep the suite in tier-1 budget.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.engine import Engine
from repro.experiments.common import ExperimentSettings
from repro.sweeps import SweepDag, SweepInstance, SweepSpec

TINY = ExperimentSettings(n_branches=2_000, warmup=600, benchmarks=("gzip",))

#: Cheap-to-plan experiments with distinct job shapes (shared
#: baselines, ladders, cross-experiment reuse via figure8/figure9).
PLANNABLE = (
    "table2", "table3", "figure4_5", "figure8", "figure9",
    "latency", "oracle_bound",
)

experiment_lists = st.lists(
    st.sampled_from(PLANNABLE), min_size=1, max_size=4, unique=True
)
seed_lists = st.lists(
    st.integers(min_value=1, max_value=3), min_size=1, max_size=2, unique=True
)


def _spec(experiments, seeds):
    return SweepSpec(
        name="prop",
        description="",
        experiments=tuple(experiments),
        instances=tuple(
            SweepInstance(name=f"seed{seed}", settings=(("seed", seed),))
            for seed in seeds
        ),
    )


class TestExpansion:
    @given(experiments=experiment_lists, seeds=seed_lists)
    @settings(max_examples=25, deadline=None)
    def test_identical_fingerprints_expand_to_one_job(
        self, experiments, seeds
    ):
        dag = SweepDag.from_spec(_spec(experiments, seeds), TINY)
        fingerprints = [job.fingerprint for job in dag.jobs.values()]
        assert len(fingerprints) == len(set(fingerprints))
        assert dag.submitted_jobs >= len(dag.jobs)
        # Keys agree with the jobs they hold.
        for fp, job in dag.jobs.items():
            assert fp == job.fingerprint

    @given(experiments=experiment_lists, seeds=seed_lists)
    @settings(max_examples=25, deadline=None)
    def test_duplicating_instances_adds_no_jobs(self, experiments, seeds):
        base = _spec(experiments, seeds)
        doubled = SweepSpec(
            name="prop",
            description="",
            experiments=base.experiments,
            instances=base.instances + tuple(
                SweepInstance(name=f"again{i.name}", settings=i.settings)
                for i in base.instances
            ),
        )
        assert len(SweepDag.from_spec(doubled, TINY).jobs) == len(
            SweepDag.from_spec(base, TINY).jobs
        )


class TestExecutionIndependence:
    @given(
        experiments=st.lists(
            st.sampled_from(("table2", "figure8", "latency")),
            min_size=1,
            max_size=2,
            unique=True,
        ),
        data=st.data(),
    )
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_order_and_fanout_do_not_change_outcomes(
        self, experiments, data
    ):
        dag = SweepDag.from_spec(_spec(experiments, [1]), TINY)
        jobs = dag.job_list()
        shuffled = data.draw(st.permutations(jobs))

        serial = Engine(max_workers=1).run(jobs)
        fanned = Engine(max_workers=2).run(shuffled)

        by_fp_serial = {
            job.fingerprint: outcome.metrics_digest()
            for job, outcome in zip(jobs, serial)
        }
        by_fp_fanned = {
            job.fingerprint: outcome.metrics_digest()
            for job, outcome in zip(shuffled, fanned)
        }
        assert by_fp_serial == by_fp_fanned
