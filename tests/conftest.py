"""Shared fixtures for the test suite.

Traces are expensive to generate, so the commonly used ones are session
scoped; tests must treat them as read-only.
"""

import pytest

from repro.trace.benchmarks import generate_benchmark_trace
from repro.trace.behaviors import BiasedBehavior, RandomBehavior
from repro.trace.generator import StaticBranch, TraceGenerator, WorkloadSpec


@pytest.fixture(scope="session")
def gzip_trace():
    """A small gzip benchmark trace (read-only)."""
    return generate_benchmark_trace("gzip", n_branches=12_000, seed=7)


@pytest.fixture(scope="session")
def gcc_trace():
    """A small gcc benchmark trace (read-only)."""
    return generate_benchmark_trace("gcc", n_branches=12_000, seed=7)


def make_simple_workload(name="simple", extra=None, uops_per_branch=8.0):
    """A deterministic-plus-random workload for predictor tests."""
    behaviors = [
        (BiasedBehavior(1.0 if i % 2 == 0 else 0.0), 1.0) for i in range(10)
    ]
    behaviors.append((RandomBehavior(), 0.5))
    behaviors += extra or []
    branches = [
        StaticBranch(pc=0x40_0000 + 52 * i, behavior=behavior, weight=weight)
        for i, (behavior, weight) in enumerate(behaviors)
    ]
    return WorkloadSpec(
        name=name, branches=branches, uops_per_branch=uops_per_branch
    )


@pytest.fixture()
def simple_trace():
    """A fresh 4k-branch deterministic-plus-random trace."""
    spec = make_simple_workload()
    return TraceGenerator(spec, seed=3).generate(4_000)
