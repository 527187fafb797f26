"""Pinned outputs of the timing experiments, and the jobs()/run() contract.

The ten experiments that call the pipeline timing model run at 3 000
branches (1 000 warm-up) on gzip and mcf on the fast backend.  Each is
pinned by two SHA-256 digests:

- ``result``: ``dataclasses.asdict`` of its result, with every float as
  ``float.hex()``;
- ``calls``: the ordered list of its ``PipelineSimulator.simulate``
  calls, each as ``repr(config)``, the stream length and
  ``dataclasses.asdict`` of the returned ``SimStats`` (floats as hex).

A refactor of the experiment code must leave both unchanged: the same
numbers from the same timing-model calls, in the same order.  A change
that moves a paper number on purpose re-records the digests below.

The contract test holds every experiment's ``run()`` to its planner:
the jobs it submits to the engine are exactly ``EXPERIMENT_JOBS[id]``,
in order, fingerprint by fingerprint.
"""

import dataclasses
import hashlib
import json

import pytest

import repro.engine.engine as engine_mod
from repro.engine import Engine
from repro.experiments.common import ExperimentSettings
from repro.experiments.runner import EXPERIMENT_JOBS, EXPERIMENTS
from repro.pipeline.simulator import PipelineSimulator

PIN_SETTINGS = ExperimentSettings(
    n_branches=3_000, warmup=1_000, benchmarks=("gzip", "mcf"), backend="fast"
)

#: Experiment id -> (result digest, simulate-calls digest).
PINS = {
    "energy": (
        "fc12a4d141baedc052e3aa1b53c581c437e099ebc3dd87340c742cebafe9b1d6",
        "2f817e5e8116b729c006a066095ca84088b4a3324eb1a39765eae8e7bd47b767",
    ),
    "figure8": (
        "41490a35b74cc4022c5ff737f380dfe3913e65317698189ab8cf7200bf5a380d",
        "370f10a9a6964c90d43438532a46b977c6b1188199793a6f3ea198aa8684bb20",
    ),
    "figure9": (
        "0ff52f2b71e63e7c448a0f342ed63e1d13ae2d52279b8ef10fa92f0ccee2ddae",
        "268b81ae9bd4d02e7e4a7a312e896bff2ab706a433e88da3a243d6898689d918",
    ),
    "latency": (
        "5c005ed01deef3d4bf6d05824f94d2aa26b38f4e238b4197097832566bcde5be",
        "0e4ad2c03b2ffa70e38222c161ae2c2a8f9e3ddd3ab60791824d6b5a48b2c805",
    ),
    "oracle_bound": (
        "fb5cf3c76e35bdac554c1529dd9ed8ebf4504db22da64cd3c19047a9091ce9c4",
        "01029a3e0c5b18ac8e9a6ed2f2585e8a5b232b4c82cbc783e724591461b2d131",
    ),
    "table2": (
        "57d936d86c93f20b1ea7f39d3e69178672a9e0c3aad3322721eb09666872e126",
        "024ec994305a1c15a8da4806c03ec388a142a0a0c81ad01800b48c78e71185fe",
    ),
    "table4": (
        "d4a2cb6fea60eee2d87554a74f0a1d13e9bef53437514cc99c99d6d5a816aea8",
        "e6c8f58ef958e946a63afad81e0a36f211f6d4eb5898a5e5f1a66a8a64db459c",
    ),
    "table5": (
        "edb861b1fae912b855bff291f59733e51d50ebb899a734c925079a91e70e1408",
        "e798dbd14761a33ae1f08ee11ef3eb0f89077845b35dbba70e2967967c638c03",
    ),
    "table6": (
        "32606230ea33079d5ae446c4eebf18ab84555c5a2c2ac1b1859dc25ab11698a4",
        "d2dd1df1f4d300a589b46e850f6cea859f06455e69d2f590068135e64335ba2a",
    ),
    "throttle": (
        "70330ff36b030a62c25be49304a7ef26d721b8a99a090ff28693ff235ecd2934",
        "f0f0ab30b228a8592972a87f6882251a27638447a2fcd4f002375889610d4161",
    ),
}

CONTRACT_SETTINGS = ExperimentSettings(
    n_branches=1_500, warmup=500, benchmarks=("gzip", "mcf"), backend="fast"
)

#: h2p_confidence reads only ``h2p.*`` benchmarks (all of them if none
#: is selected), so it gets one of its own.
CONTRACT_OVERRIDES = {
    "h2p_confidence": dataclasses.replace(
        CONTRACT_SETTINGS, benchmarks=("h2p.mix",)
    ),
}

#: One engine for the module: shared replays, isolated from other tests.
_ENGINE = Engine()


@pytest.fixture()
def engine(monkeypatch):
    monkeypatch.setattr(engine_mod, "_default_engine", _ENGINE)
    return _ENGINE


def _canon(value):
    """JSON-ready copy of ``value`` with every float as ``float.hex()``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return [[_canon(k), _canon(v)] for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    return value


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(_canon(value)).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("experiment", sorted(PINS))
def test_timing_experiment_is_pinned(experiment, engine, monkeypatch):
    calls = []
    real = PipelineSimulator.simulate

    def recording(self, events):
        stats = real(self, events)
        calls.append([repr(self.config), len(events), dataclasses.asdict(stats)])
        return stats

    monkeypatch.setattr(PipelineSimulator, "simulate", recording)
    result = EXPERIMENTS[experiment](PIN_SETTINGS)
    assert calls
    assert (_digest(dataclasses.asdict(result)), _digest(calls)) == PINS[experiment]


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_run_submits_exactly_its_planned_jobs(experiment, engine, monkeypatch):
    settings = CONTRACT_OVERRIDES.get(experiment, CONTRACT_SETTINGS)
    submitted = []
    real = Engine.run

    def recording(self, jobs):
        submitted.extend(job.fingerprint for job in jobs)
        return real(self, jobs)

    monkeypatch.setattr(Engine, "run", recording)
    EXPERIMENTS[experiment](settings)
    planned = [job.fingerprint for job in EXPERIMENT_JOBS[experiment](settings)]
    assert submitted == planned
