"""Sweep expansion: spec -> deduplicated job/experiment plan.

Expansion is pure planning -- nothing executes here.  Each experiment
instance contributes one :class:`ExperimentNode` that depends on the
fingerprints of every :class:`~repro.engine.job.SimJob` its ``run()``
would submit (as declared by the experiment's ``jobs()`` planner).
Jobs shared across experiments -- baselines, ladders -- collapse to a
single entry of :attr:`SweepDag.jobs` keyed by fingerprint, so the plan
shows the true amount of replay work before anything runs, exactly
mirroring the engine's own dedup.  The graph is bipartite (jobs ->
experiments), so running every job before any experiment is a valid
order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.engine.job import SimJob
from repro.experiments.common import ExperimentSettings

from repro.sweeps.spec import SweepSpec, record_key, resolve_instance

__all__ = ["ExperimentNode", "SweepDag"]


@dataclass(frozen=True)
class ExperimentNode:
    """One experiment x instance, keyed by its record key."""

    key: str
    experiment: str
    instance: str
    section: str
    settings: ExperimentSettings
    job_fingerprints: Tuple[str, ...]


@dataclass
class SweepDag:
    """Deduplicated plan for one sweep."""

    jobs: Dict[str, SimJob] = field(default_factory=dict)
    experiments: List[ExperimentNode] = field(default_factory=list)

    @classmethod
    def from_spec(
        cls, spec: SweepSpec, base: ExperimentSettings
    ) -> "SweepDag":
        """Expand spec x base settings into the deduplicated DAG."""
        from repro.experiments.runner import EXPERIMENT_JOBS

        dag = cls()
        for experiment, instance, section in spec.section_names:
            settings = resolve_instance(base, instance)
            batch = EXPERIMENT_JOBS[experiment](settings)
            fingerprints = []
            for job in batch:
                fp = job.fingerprint
                fingerprints.append(fp)
                dag.jobs.setdefault(fp, job)
            dag.experiments.append(
                ExperimentNode(
                    key=record_key(experiment, settings),
                    experiment=experiment,
                    instance=instance.name,
                    section=section,
                    settings=settings,
                    job_fingerprints=tuple(fingerprints),
                )
            )
        return dag

    def job_list(self) -> List[SimJob]:
        """Unique jobs in first-appearance order."""
        return list(self.jobs.values())

    @property
    def submitted_jobs(self) -> int:
        """Planned job submissions before dedup."""
        return sum(len(n.job_fingerprints) for n in self.experiments)
