"""Unit tests for repro.trace.generator."""

import numpy as np
import pytest

from repro.trace.behaviors import BiasedBehavior, CorrelatedBehavior, LoopBehavior
from repro.trace.benchmarks import BENCHMARK_NAMES, generate_benchmark_trace
from repro.trace.generator import StaticBranch, TraceGenerator, WorkloadSpec


def biased_spec(n=6, **spec_kwargs):
    branches = [
        StaticBranch(
            pc=0x400000 + 52 * i,
            behavior=BiasedBehavior(1.0 if i % 2 == 0 else 0.0),
        )
        for i in range(n)
    ]
    return WorkloadSpec(name="t", branches=branches, **spec_kwargs)


class TestStaticBranch:
    def test_validation(self):
        with pytest.raises(ValueError):
            StaticBranch(pc=-1, behavior=BiasedBehavior(0.5))
        with pytest.raises(ValueError):
            StaticBranch(pc=0, behavior=BiasedBehavior(0.5), weight=0)


class TestWorkloadSpec:
    def test_duplicate_pc_rejected(self):
        branches = biased_spec().branches + [
            StaticBranch(pc=0x400000, behavior=BiasedBehavior(0.5))
        ]
        with pytest.raises(ValueError, match="unique"):
            WorkloadSpec(name="t", branches=branches)

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(name="x", uops_per_branch=0.5)
        with pytest.raises(ValueError):
            WorkloadSpec(name="x", uop_jitter=-1)
        with pytest.raises(ValueError):
            WorkloadSpec(name="x", block_repeat_mean=0.5)


class TestTraceGenerator:
    def test_exact_length(self):
        trace = TraceGenerator(biased_spec(), seed=1).generate(997)
        assert len(trace) == 997

    def test_deterministic(self):
        a = TraceGenerator(biased_spec(), seed=5).generate(500)
        b = TraceGenerator(biased_spec(), seed=5).generate(500)
        assert [(r.pc, r.taken, r.uops_before) for r in a] == [
            (r.pc, r.taken, r.uops_before) for r in b
        ]

    def test_seed_changes_trace(self):
        a = TraceGenerator(biased_spec(), seed=1).generate(500)
        b = TraceGenerator(biased_spec(), seed=2).generate(500)
        assert [r.pc for r in a] != [r.pc for r in b]

    def test_uop_density(self):
        spec = biased_spec(uops_per_branch=8.0)
        trace = TraceGenerator(spec, seed=1).generate(4000)
        mean_uops = trace.stats().total_uops / len(trace)
        assert 6.5 < mean_uops < 9.5

    def test_deterministic_outcomes_respected(self):
        spec = biased_spec()
        trace = TraceGenerator(spec, seed=1).generate(2000)
        for rec in trace:
            idx = (rec.pc - 0x400000) // 52
            assert rec.taken == (idx % 2 == 0)

    def test_block_structure_runs(self):
        # With block repetition, consecutive same-pc runs must be common.
        spec = biased_spec(9, block_size=3, block_repeat_mean=4.0)
        trace = TraceGenerator(spec, seed=1).generate(4000)
        pcs = [r.pc for r in trace]
        repeats = sum(
            1 for i in range(3, len(pcs)) if pcs[i] == pcs[i - 3]
        )
        assert repeats / len(pcs) > 0.4

    def test_block_size_one_is_iid(self):
        spec = biased_spec(9, block_size=1, block_repeat_mean=1.0)
        trace = TraceGenerator(spec, seed=1).generate(4000)
        pcs = [r.pc for r in trace]
        repeats = sum(1 for i in range(1, len(pcs)) if pcs[i] == pcs[i - 1])
        # i.i.d. selection over 9 equally weighted statics: ~1/9 repeats.
        assert repeats / len(pcs) < 0.25

    def test_loop_emits_full_instances(self):
        spec = WorkloadSpec(
            name="loops",
            branches=[
                StaticBranch(pc=0x100, behavior=LoopBehavior(5, 5)),
                StaticBranch(pc=0x200, behavior=BiasedBehavior(1.0)),
            ],
        )
        trace = TraceGenerator(spec, seed=3).generate(3000)
        # Every maximal run of the loop pc must consist of full 5-visit
        # instances: 4 takens then an exit.
        i = 0
        records = list(trace)
        while i < len(records) - 6:
            if records[i].pc == 0x100:
                run = []
                while i < len(records) and records[i].pc == 0x100:
                    run.append(records[i].taken)
                    i += 1
                if i >= len(records):
                    break  # trace may truncate the last instance
                # Runs are whole instances: length multiple of 5 and
                # every 5th outcome is the not-taken exit.
                assert len(run) % 5 == 0
                for j, taken in enumerate(run):
                    assert taken == ((j % 5) != 4)
            else:
                i += 1

    def test_dynamic_weight_share(self):
        # A static with 3x the weight should execute ~3x as often.
        spec = WorkloadSpec(
            name="w",
            branches=[
                StaticBranch(pc=0x100, behavior=BiasedBehavior(1.0), weight=3.0),
                StaticBranch(pc=0x200, behavior=BiasedBehavior(1.0), weight=1.0),
            ],
            block_size=1,
            block_repeat_mean=1.0,
        )
        trace = TraceGenerator(spec, seed=1).generate(8000)
        hot = sum(1 for r in trace if r.pc == 0x100)
        assert 0.68 < hot / 8000 < 0.82

    def test_loop_weight_accounts_for_instance_length(self):
        # A loop static with weight equal to a plain static should get a
        # similar *dynamic branch* share despite emitting whole
        # instances per visit.
        spec = WorkloadSpec(
            name="lw",
            branches=[
                StaticBranch(pc=0x100, behavior=LoopBehavior(10, 10), weight=1.0),
                StaticBranch(pc=0x200, behavior=BiasedBehavior(1.0), weight=1.0),
            ],
            block_size=1,
            block_repeat_mean=1.0,
        )
        trace = TraceGenerator(spec, seed=1).generate(12000)
        loop_share = sum(1 for r in trace if r.pc == 0x100) / 12000
        assert 0.35 < loop_share < 0.65

    def test_empty_workload_rejected(self):
        with pytest.raises(ValueError):
            TraceGenerator(WorkloadSpec(name="empty"), seed=0)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            TraceGenerator(biased_spec(), seed=0).generate(-1)

    def test_correlated_sees_real_history(self):
        # A branch that copies history bit 0 must equal the previous
        # branch outcome in the generated trace.
        spec = WorkloadSpec(
            name="c",
            branches=[
                StaticBranch(pc=0x100, behavior=BiasedBehavior(0.5)),
                StaticBranch(
                    pc=0x200, behavior=CorrelatedBehavior((0,), noise=0.0)
                ),
            ],
            block_size=1,
            block_repeat_mean=1.0,
        )
        trace = TraceGenerator(spec, seed=9).generate(3000)
        records = list(trace)
        for prev, cur in zip(records, records[1:]):
            if cur.pc == 0x200:
                assert cur.taken == prev.taken


#: ``(benchmark, seed) -> digest`` of 5000-branch traces, recorded
#: before the generator's uop-gap and loop-dispatch fast paths; any
#: change to generation order or values moves a digest.
PINNED_TRACES = {
    ("gzip", 1): "a05624af6029f5a6ef4a8a6b015922adc468011a24da81bb30903774fb7432f2",
    ("vpr", 1): "cd3b5c8faa0fd5347e5b773519271465ebe294f688fbdf4a107888982f52d902",
    ("gcc", 1): "8482d927f4b953ec07b6935345c415a9de17861d5a64e53df24ed9ebcac26644",
    ("mcf", 1): "6ce5bad01118652d475d0f295c2dcb9eb2ff44efce89e284b7fa03bb45171d16",
    ("crafty", 1): "ccd84710c3cf5bd68e652dd4d90f120aaffb043e876636ef415e1d0ea4494f9b",
    ("link", 1): "c2a50085eac9eb2b8fd57305d04933f1dda37388bd8e7d6b0ff0a951c4f87557",
    ("eon", 1): "4524398199fc620ccfbeebee3ef84fbc0af6fbd454d1a71a72600f7c74e6bcc3",
    ("perlbmk", 1): "f3ad271a91df4bebea14830e21f9623b615e67f9310f16d6467888b17b053adc",
    ("gap", 1): "424d69180cb3cb0a8ce1d3365688800964c3501d2368b4192d3b06b2e2756826",
    ("vortex", 1): "8bcc1e92ca5f15439f25e2dbea452a9576e64ba8441f7fc2225aae5a3a1a33f8",
    ("bzip", 1): "343b617b61463bd9e4c3bbd1fd012eb53360e6522e82c497b3f647756d7bb1c3",
    ("twolf", 1): "417c114a89595215ddac29589bf0b887533b517c87d3a65d385bb2771db02211",
    ("gzip", 2): "b0e3b1939ea7b21f5c98c0558397f4ddeb3e5592f367347cd4058676f9e44b70",
    ("vpr", 2): "bb504d45d6cfd7cd16343e87fa2c48e2894bc1649d5134506092060cd8086617",
    ("gcc", 2): "4e118a43ad8f331be1076a57c2d3d5e010824a96a0d0ec67f3a54ad81dd74dd5",
    ("mcf", 2): "f1ebfff662b7baa3097454ba7ccdea1adc92ff95b9f931e4338ab5da00da1826",
    ("crafty", 2): "e76807991cea06cac2f588966ca97f726ed043ca370f13eaa1131e0b7a471123",
    ("link", 2): "ed8caa5811ea33600a0fd6d4bb16c2c3eb74fc5b75b4508d2b233cc029d45fb5",
    ("eon", 2): "8f3b97fed0eb5d6744257b75aadba81517d0421c0eee8dfb69359e061dfb9a07",
    ("perlbmk", 2): "59c67946e000f4481b23e93e3a31463c79e3a224c4c611215c214905a36e145b",
    ("gap", 2): "1f231051c3cdaded5b92539d6038393f1fc35445a78c6fa9c1232aacb56c8ad2",
    ("vortex", 2): "9ce37ead27657b82f2c1a0a0444c3260f0e4642b393b6af2b18436a30e57503d",
    ("bzip", 2): "161ece2eb318fd352a37950fe62bce5cfc3d17af04d58234570fbfed85a42538",
    ("twolf", 2): "5e4dccda291e4e9eff02e142735ed9a55b6e93e4887dbb69aecf5e185f6f5fc6",
    ("h2p.mix", 1): "069fb97c3d5cf9a6e2360182213f1fb6839508b6b8240fc44d41f58b280dccb6",
}


class TestPinnedTraces:
    """Generation is bit-stable: every Table 2 benchmark, two seeds."""

    def test_covers_every_table2_benchmark(self):
        assert {name for name, seed in PINNED_TRACES if seed == 1} >= set(
            BENCHMARK_NAMES
        )

    @pytest.mark.parametrize(
        "name, seed", sorted(PINNED_TRACES), ids=lambda v: str(v)
    )
    def test_digest(self, name, seed):
        trace = generate_benchmark_trace(name, n_branches=5000, seed=seed)
        assert len(trace) == 5000
        assert trace.content_digest() == PINNED_TRACES[(name, seed)]

    @pytest.mark.parametrize("n", [1, 4095, 4097])
    def test_prefix_is_length_stable(self, n):
        # Crosses the 4096-draw batches of block picks and uop gaps.
        full = generate_benchmark_trace("mcf", n_branches=5000, seed=1)
        short = generate_benchmark_trace("mcf", n_branches=n, seed=1)
        assert list(short) == list(full)[:n]
