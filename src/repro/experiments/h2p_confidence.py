"""Extension: confidence vs coverage on the H2P workload family.

The paper's confidence results average over SPECint-like mixtures where
most branches are easy; the hard-to-predict (H2P) literature argues the
deployment-relevant regime is a few hot, barely-predictable statics.
This experiment runs the perceptron confidence estimator's threshold
ladder over the ``h2p.*`` workloads under two baseline predictors --
the paper's bimodal/gshare hybrid and the TAGE-class baseline -- and
reports the resulting confidence-vs-coverage curves side by side,
annotated with the measured per-branch H2P taxonomy.

Paper-shape expectation: TAGE converts the *learnable* H2P statics
(hidden far-tap correlation, long fixed-trip loops) into correct
predictions, so at matched coverage the mispredictions that remain are
the irreducible data-dependent ones -- the curves quantify how much of
the estimator's work a better predictor absorbs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.branches import profile_events
from repro.analysis.tables import format_table
from repro.engine import EstimatorSpec, PredictorSpec
from repro.experiments.common import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
    job_for,
    run_jobs,
)
from repro.trace.h2p import H2P_PROFILE_NAMES, is_h2p_benchmark

__all__ = ["H2PRow", "H2PConfidenceResult", "jobs", "run", "THRESHOLDS"]

#: Perceptron-estimator threshold ladder traced out per predictor.
THRESHOLDS: Tuple[int, ...] = (30, 15, 0, -15, -30, -50)

#: (label, predictor kind) -- the hybrid-vs-TAGE comparison.
PREDICTORS: Tuple[Tuple[str, str], ...] = (
    ("bimodal-gshare", "baseline_hybrid"),
    ("tage", "tage"),
)


def _h2p_benchmarks(settings: ExperimentSettings) -> Tuple[str, ...]:
    """The ``h2p.*`` names in the settings, else the whole family."""
    selected = tuple(b for b in settings.benchmarks if is_h2p_benchmark(b))
    return selected or H2P_PROFILE_NAMES


@dataclass
class H2PRow:
    """One (benchmark, predictor, lambda) confidence/coverage point."""

    benchmark: str
    predictor: str
    threshold: int
    pvn_pct: float
    spec_pct: float
    coverage_pct: float
    mispredict_rate_pct: float
    h2p_statics: int
    h2p_exec_share_pct: float

    def as_dict(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "predictor": self.predictor,
            "lambda": self.threshold,
            "PVN %": round(self.pvn_pct, 1),
            "Spec %": round(self.spec_pct, 1),
            "coverage %": round(self.coverage_pct, 1),
            "mispr %": round(self.mispredict_rate_pct, 2),
            "h2p statics": self.h2p_statics,
            "h2p exec %": round(self.h2p_exec_share_pct, 1),
        }


@dataclass
class H2PConfidenceResult:
    """The full TAGE-vs-hybrid H2P curve set."""

    rows: List[H2PRow]

    def rows_for(self, predictor: str) -> List[H2PRow]:
        return [r for r in self.rows if r.predictor == predictor]

    def format(self) -> str:
        return format_table(
            [r.as_dict() for r in self.rows],
            title=(
                "H2P confidence vs coverage (extension): "
                "perceptron CE under hybrid and TAGE baselines"
            ),
        )


def _batch(settings: ExperimentSettings):
    """(keys, jobs) in deterministic order; keys are (bench, label, lam)."""
    keys = []
    batch = []
    for label, kind in PREDICTORS:
        predictor = PredictorSpec.of(kind)
        for benchmark in _h2p_benchmarks(settings):
            for lam in THRESHOLDS:
                keys.append((benchmark, label, lam))
                batch.append(
                    job_for(
                        settings,
                        benchmark,
                        EstimatorSpec.of("perceptron", threshold=lam),
                        predictor=predictor,
                    )
                )
    return keys, batch


def jobs(settings: ExperimentSettings = DEFAULT_SETTINGS) -> List:
    """Every :class:`SimJob` this experiment submits, in order."""
    _, batch = _batch(settings)
    return batch


def run(settings: ExperimentSettings = DEFAULT_SETTINGS) -> H2PConfidenceResult:
    """Trace the threshold ladder for both predictors on every workload."""
    keys, batch = _batch(settings)
    outcomes = dict(zip(keys, run_jobs(batch)))

    # The per-branch taxonomy depends only on (benchmark, predictor) --
    # pc/taken/predictor_correct are estimator-independent -- so profile
    # one ladder point per pair and share it across the curve.
    taxonomy: Dict[Tuple[str, str], Tuple[int, float]] = {}
    for (benchmark, label, lam), outcome in outcomes.items():
        if lam != THRESHOLDS[0]:
            continue
        summary = profile_events(outcome.events)
        hot = summary.h2p_branches()
        share = (
            sum(p.executions for p in hot) / summary.total_executions
            if summary.total_executions
            else 0.0
        )
        taxonomy[(benchmark, label)] = (len(hot), 100.0 * share)

    rows: List[H2PRow] = []
    for (benchmark, label, lam), outcome in outcomes.items():
        matrix = outcome.result.matrix
        statics, share_pct = taxonomy[(benchmark, label)]
        rows.append(
            H2PRow(
                benchmark=benchmark,
                predictor=label,
                threshold=lam,
                pvn_pct=100.0 * matrix.pvn,
                spec_pct=100.0 * matrix.spec,
                coverage_pct=100.0 * matrix.flagged_low / max(matrix.total, 1),
                mispredict_rate_pct=100.0 * matrix.misprediction_rate,
                h2p_statics=statics,
                h2p_exec_share_pct=share_pct,
            )
        )
    return H2PConfidenceResult(rows=rows)
