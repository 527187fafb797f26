"""Reproduction of *Perceptron-Based Branch Confidence Estimation*
(Akkary, Srinivasan, Koltur, Patil, Refaai -- HPCA 2004).

The package implements the paper's perceptron confidence estimator and
every substrate its evaluation depends on: baseline branch predictors,
prior confidence estimators, a parametric out-of-order pipeline timing
model with pipeline gating and branch reversal, and a synthetic
SPECint2000-like trace generator.

Quickstart::

    from repro import (
        generate_benchmark_trace,
        make_baseline_hybrid,
        PerceptronConfidenceEstimator,
        FrontEnd,
    )

    trace = generate_benchmark_trace("gcc", n_branches=50_000, seed=1)
    predictor = make_baseline_hybrid()
    estimator = PerceptronConfidenceEstimator(threshold=0)
    result = FrontEnd(predictor, estimator).replay(trace, warmup=10_000)
    m = result.matrix
    print(f"PVN={m.pvn:.0%}  Spec={m.spec:.0%}")

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.analysis import (
    OutputDensity,
    ThresholdPoint,
    format_table,
    sweep_estimator_thresholds,
)
from repro.core import (
    BranchAction,
    ConfidenceEstimator,
    ConfidenceLevel,
    ConfidenceMatrix,
    ConfidenceSignal,
    FrontEnd,
    FrontEndEvent,
    FrontEndEvents,
    FrontEndResult,
    GatingOnlyPolicy,
    JRSEstimator,
    NoSpeculationControl,
    PatternEstimator,
    PerceptronConfidenceEstimator,
    PolicyDecision,
    SmithEstimator,
    SpeculationPolicy,
    ThreeRegionPolicy,
)
from repro.pipeline import (
    BASELINE_40X4,
    PIPELINE_PRESETS,
    STANDARD_20X4,
    WIDE_20X8,
    PipelineConfig,
    PipelineSimulator,
    SimStats,
)
from repro.predictors import (
    BimodalPredictor,
    BranchPredictor,
    CombinedPredictor,
    GSharePredictor,
    LocalPredictor,
    PerceptronPredictor,
    make_baseline_hybrid,
    make_gshare_perceptron_hybrid,
)
from repro.trace import (
    BENCHMARK_NAMES,
    BranchRecord,
    Trace,
    TraceGenerator,
    WorkloadSpec,
    generate_benchmark_trace,
    load_trace,
    save_trace,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # analysis
    "OutputDensity",
    "ThresholdPoint",
    "format_table",
    "sweep_estimator_thresholds",
    # core
    "BranchAction",
    "ConfidenceEstimator",
    "ConfidenceLevel",
    "ConfidenceMatrix",
    "ConfidenceSignal",
    "FrontEnd",
    "FrontEndEvent",
    "FrontEndEvents",
    "FrontEndResult",
    "GatingOnlyPolicy",
    "JRSEstimator",
    "NoSpeculationControl",
    "PatternEstimator",
    "PerceptronConfidenceEstimator",
    "PolicyDecision",
    "SmithEstimator",
    "SpeculationPolicy",
    "ThreeRegionPolicy",
    # pipeline
    "BASELINE_40X4",
    "PIPELINE_PRESETS",
    "STANDARD_20X4",
    "WIDE_20X8",
    "PipelineConfig",
    "PipelineSimulator",
    "SimStats",
    # predictors
    "BimodalPredictor",
    "BranchPredictor",
    "CombinedPredictor",
    "GSharePredictor",
    "LocalPredictor",
    "PerceptronPredictor",
    "make_baseline_hybrid",
    "make_gshare_perceptron_hybrid",
    # trace
    "BENCHMARK_NAMES",
    "BranchRecord",
    "Trace",
    "TraceGenerator",
    "WorkloadSpec",
    "generate_benchmark_trace",
    "load_trace",
    "save_trace",
]
