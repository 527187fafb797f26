"""Synthetic branch-trace substrate.

The paper drives a proprietary IA32 simulator with "LIT" traces of
SPECint2000.  Neither is redistributable, so this subpackage provides
the substitution documented in DESIGN.md: a synthetic trace generator
whose per-benchmark profiles are calibrated to reproduce the branch
*predictability structure* (misprediction rate, correlation mix,
systematically-mispredicted contexts) that the paper's estimators
actually observe.

Public surface:

- :class:`repro.trace.record.BranchRecord` / :class:`repro.trace.record.Trace`
  -- the trace data model.
- :mod:`repro.trace.behaviors` -- per-static-branch outcome models
  (biased, correlated, hidden-correlation, loop, pattern, phased,
  random).
- :class:`repro.trace.generator.TraceGenerator` and
  :class:`repro.trace.generator.WorkloadSpec` -- turn a static branch
  population into a dynamic trace.
- :mod:`repro.trace.benchmarks` -- the twelve SPECint2000-like profiles
  of Table 2 and :func:`generate_benchmark_trace`.
- :mod:`repro.trace.h2p` -- the hard-to-predict (``h2p.*``) workload
  family: few statics, high dynamic counts, tunable predictability.
- :mod:`repro.trace.io` -- text and binary trace serialisation, and
  the ``recorded:`` job tokens that make a saved trace an engine job
  source.
- :mod:`repro.trace.ingest` -- external (ChampSim/CBP-style) branch
  trace ingestion into one trace file.
"""

from repro.trace.behaviors import (
    BiasedBehavior,
    BranchBehavior,
    CorrelatedBehavior,
    HiddenCorrelationBehavior,
    LoopBehavior,
    PatternBehavior,
    PhasedBehavior,
    RandomBehavior,
)
from repro.trace.benchmarks import (
    BENCHMARK_NAMES,
    BenchmarkProfile,
    benchmark_profile,
    generate_benchmark_trace,
)
# NOTE: repro.trace.calibration is importable directly but not
# re-exported here -- it depends on repro.core (a higher layer), and an
# eager import would be circular.
from repro.trace.generator import StaticBranch, TraceGenerator, WorkloadSpec
from repro.trace.h2p import (
    H2P_PROFILE_NAMES,
    H2PBranch,
    H2PProfile,
    build_h2p_workload,
    h2p_profile,
    h2p_record_stream,
    is_h2p_benchmark,
)
from repro.trace.ingest import (
    TraceFormatError,
    ingest_external_trace,
    iter_external_records,
    write_external_trace,
)
from repro.trace.io import load_trace, save_trace
from repro.trace.record import BranchRecord, Trace, TraceStats

__all__ = [
    "BranchBehavior",
    "BiasedBehavior",
    "CorrelatedBehavior",
    "HiddenCorrelationBehavior",
    "LoopBehavior",
    "PatternBehavior",
    "PhasedBehavior",
    "RandomBehavior",
    "BENCHMARK_NAMES",
    "BenchmarkProfile",
    "benchmark_profile",
    "generate_benchmark_trace",
    "H2P_PROFILE_NAMES",
    "H2PBranch",
    "H2PProfile",
    "build_h2p_workload",
    "h2p_profile",
    "h2p_record_stream",
    "is_h2p_benchmark",
    "TraceFormatError",
    "ingest_external_trace",
    "iter_external_records",
    "write_external_trace",
    "StaticBranch",
    "TraceGenerator",
    "WorkloadSpec",
    "load_trace",
    "save_trace",
    "BranchRecord",
    "Trace",
    "TraceStats",
]
