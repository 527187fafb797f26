"""Recorded traces as engine job sources: one trace file, named by a
``recorded:`` token that pins the content digest of its records."""

import dataclasses
import os

import pytest

from repro.core.frontend import FrontEnd
from repro.engine import Engine, SimJob, canonical_metrics
from repro.engine.cache import TraceCache
from repro.fastpath import driver as fast_driver
from repro.trace import io as trace_io
from repro.trace.benchmarks import generate_benchmark_trace
from repro.trace.io import job_token, load_trace, parse_job_token, save_trace
from repro.trace.record import Trace
from repro.verify.matrix import CASES

N_BRANCHES = 2_000

#: A case with a trained estimator and a reversing policy, so final
#: component states and every event column carry information.
CASE = next(case for case in CASES if case.label == "perceptron-cic-3region")


@pytest.fixture(scope="module")
def trace():
    return generate_benchmark_trace("gzip", n_branches=N_BRANCHES, seed=11)


@pytest.fixture()
def recorded(trace, tmp_path):
    """``(path, token)`` of ``trace`` saved as one ``.npz`` file."""
    path = str(tmp_path / "gzip.npz")
    save_trace(trace, path)
    return path, job_token(trace, path)


def _trace_job(case=CASE, **overrides):
    """A job over the ``trace`` fixture's benchmark, length and seed."""
    base = dict(
        benchmark="gzip",
        n_branches=N_BRANCHES,
        warmup=0,
        seed=11,
        predictor=case.predictor,
        estimator=case.estimator,
        policy=case.policy,
        collect_outputs=True,
    )
    base.update(overrides)
    return SimJob(**base)


def _final_states(job, trace):
    """The predictor's and estimator's final ``state_canonical()``
    after replaying ``trace`` on ``job``'s backend."""
    if job.backend == "fast":
        return fast_driver.replay_trace(job, trace)[2:]
    predictor, estimator = job.predictor.build(), job.estimator.build()
    process = FrontEnd(predictor, estimator, job.policy.build()).process
    for record in trace:
        process(record)
    return predictor.state_canonical(), estimator.state_canonical()


class TestRecordedJobSource:
    def test_job_token_pins_content(self, recorded, trace):
        path, token = recorded
        assert token == (
            f"recorded:{trace.content_digest()[:16]}:{os.path.abspath(path)}"
        )
        assert parse_job_token(token) == (trace.content_digest()[:16], path)

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_engine_replays_from_token(self, recorded, backend):
        _, token = recorded
        engine = Engine(max_workers=1)
        token_job = _trace_job(benchmark=token, backend=backend)
        generated_job = _trace_job(backend=backend)
        from_token = engine.replay(token_job)
        generated = engine.replay(generated_job)
        assert from_token.backend == backend
        assert from_token.events == generated.events
        assert canonical_metrics(from_token.result) == canonical_metrics(
            generated.result
        )
        recorded_trace = engine.trace(*token_job.trace_key)
        generated_trace = engine.trace(*generated_job.trace_key)
        assert _final_states(token_job, recorded_trace) == _final_states(
            generated_job, generated_trace
        )

    def test_one_recording_has_one_fingerprint(self, trace, tmp_path):
        """A recorded replay reads neither the file's path nor the seed,
        so saving one recording at two paths, or running it under two
        seeds, gives one fingerprint and one executed replay."""
        tokens = []
        for name in ("a.npz", "b.npz"):
            path = str(tmp_path / name)
            save_trace(trace, path)
            tokens.append(job_token(trace, path))
        assert tokens[0] != tokens[1]
        jobs = [
            _trace_job(benchmark=tokens[0], seed=1),
            _trace_job(benchmark=tokens[1], seed=1),
            _trace_job(benchmark=tokens[0], seed=2),
        ]
        assert len({job.fingerprint for job in jobs}) == 1
        engine = Engine(max_workers=1)
        outcomes = engine.run(jobs)
        assert engine.stats.executed == 1
        assert outcomes[0].events == outcomes[1].events == outcomes[2].events

    def test_prefix_bounds_job_window(self, recorded):
        _, token = recorded
        engine = Engine(max_workers=1)
        short = engine.replay(_trace_job(benchmark=token, n_branches=700))
        full = engine.replay(_trace_job())
        assert short.events == full.events[:700]

    def test_digest_mismatch_rejected(self, recorded):
        path, _ = recorded
        bad = "recorded:" + "0" * 16 + ":" + path
        with pytest.raises(ValueError, match="digest"):
            Engine(max_workers=1).replay(_trace_job(benchmark=bad))

    @pytest.mark.parametrize("digest", ["", "a"], ids=["empty", "one-char"])
    def test_unpinned_token_rejected(self, recorded, digest):
        """A token must pin the content: the replay cache is looked up
        before the trace is opened, so a job on an unpinned token would
        be served the outcome of whatever the file held before."""
        path, _ = recorded
        token = f"recorded:{digest}:{path}"
        with pytest.raises(ValueError, match="recorded"):
            _trace_job(benchmark=token)
        with pytest.raises(ValueError, match="digest"):
            TraceCache().get(token, N_BRANCHES, 0)

    def test_oversized_window_rejected(self, recorded):
        _, token = recorded
        with pytest.raises(ValueError, match="holds"):
            Engine(max_workers=1).replay(
                _trace_job(benchmark=token, n_branches=N_BRANCHES + 1)
            )


class TestContentDigest:
    def test_token_digest_depends_only_on_records(self, trace, tmp_path):
        """Name, seed, file format and path never move the digest."""
        copies = [
            (Trace(trace, name="a", seed=1), tmp_path / "a.npz"),
            (Trace(trace, name="b", seed=2), tmp_path / "sub" / "b.npz"),
            (Trace(trace, name="c"), tmp_path / "c.btrace"),
        ]
        digests = set()
        for copy, path in copies:
            path.parent.mkdir(exist_ok=True)
            save_trace(copy, str(path))
            token = job_token(load_trace(str(path)), str(path))
            digests.add(parse_job_token(token)[0])
        assert digests == {trace.content_digest()[:16]}

    @pytest.mark.parametrize("field", ["pc", "taken", "uops_before"])
    def test_one_record_change_moves_digest(self, trace, field):
        records = list(trace)
        old = records[1234]
        value = not old.taken if field == "taken" else getattr(old, field) + 4
        records[1234] = dataclasses.replace(old, **{field: value})
        moved = Trace(records, name=trace.name, seed=trace.seed)
        assert moved.content_digest()[:16] != trace.content_digest()[:16]


class TestOneReadPerEngine:
    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_jobs_of_one_length_read_the_file_once(
        self, recorded, monkeypatch, backend
    ):
        _, token = recorded
        reads = []
        real = trace_io.load_trace

        def counting(path):
            reads.append(path)
            return real(path)

        monkeypatch.setattr(trace_io, "load_trace", counting)
        jobs = [
            _trace_job(case, benchmark=token, backend=backend)
            for case in CASES[1:4]
        ]
        assert len({job.fingerprint for job in jobs}) == 3
        for engines in (1, 2):
            outcomes = Engine(max_workers=1).run(jobs)
            assert not any(outcome.from_cache for outcome in outcomes)
            assert len(reads) == engines
