"""Unit tests for repro.trace.record."""

import hashlib
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.record import BranchRecord, Trace


class TestBranchRecord:
    def test_uops_includes_branch(self):
        rec = BranchRecord(pc=0x400000, taken=True, uops_before=7)
        assert rec.uops == 8

    def test_frozen(self):
        rec = BranchRecord(pc=0x400000, taken=True)
        with pytest.raises(AttributeError):
            rec.taken = False

    def test_validation(self):
        with pytest.raises(ValueError):
            BranchRecord(pc=-1, taken=True)
        with pytest.raises(ValueError):
            BranchRecord(pc=0, taken=True, uops_before=-1)


class TestTrace:
    def make(self):
        records = [
            BranchRecord(pc=0x100, taken=True, uops_before=7),
            BranchRecord(pc=0x200, taken=False, uops_before=5),
            BranchRecord(pc=0x100, taken=True, uops_before=9),
        ]
        return Trace(records, name="t", seed=3)

    def test_len_iter_getitem(self):
        trace = self.make()
        assert len(trace) == 3
        assert [r.pc for r in trace] == [0x100, 0x200, 0x100]
        assert trace[1].pc == 0x200

    def test_metadata(self):
        trace = self.make()
        assert trace.name == "t"
        assert trace.seed == 3

    def test_stats(self):
        stats = self.make().stats()
        assert stats.branches == 3
        assert stats.taken == 2
        assert stats.total_uops == 8 + 6 + 10
        assert stats.static_branches == 2
        assert stats.taken_fraction == pytest.approx(2 / 3)
        assert stats.branches_per_kuop == pytest.approx(3000 / 24)

    def test_stats_cached(self):
        trace = self.make()
        assert trace.stats() is trace.stats()

    def test_slice(self):
        sub = self.make().slice(1)
        assert len(sub) == 2
        assert sub[0].pc == 0x200
        assert sub.seed == 3

    def test_empty_trace_stats(self):
        stats = Trace([]).stats()
        assert stats.branches == 0
        assert stats.taken_fraction == 0.0
        assert stats.branches_per_kuop == 0.0


def _rows(trace):
    return [(r.pc, r.taken, r.uops_before) for r in trace]


_RECORDS = st.lists(
    st.builds(
        BranchRecord,
        pc=st.integers(min_value=0, max_value=1 << 70),
        taken=st.booleans(),
        uops_before=st.integers(min_value=0, max_value=30),
    ),
    max_size=40,
)


class TestColumns:
    """A trace built from records and one built from columns agree."""

    @settings(max_examples=60, deadline=None)
    @given(records=_RECORDS, data=st.data())
    def test_records_and_columns_agree(self, records, data):
        by_records = Trace(records, name="r", seed=4)
        by_columns = Trace.from_columns(
            [r.pc for r in records],
            [r.taken for r in records],
            [r.uops_before for r in records],
            name="r",
            seed=4,
        )
        expected = [(r.pc, r.taken, r.uops_before) for r in records]
        n = len(records)
        start = data.draw(st.integers(min_value=-n - 2, max_value=n + 2))
        stop = data.draw(st.none() | st.integers(min_value=-n - 2, max_value=n + 2))
        for trace in (by_records, by_columns):
            assert len(trace) == n
            assert _rows(trace) == expected
            assert list(trace) == records
            for i in range(-n, n):
                assert trace[i] == records[i]
            assert _rows(trace.slice(start, stop)) == expected[start:stop]
            assert _rows(trace[start:stop]) == expected[start:stop]
            copy = pickle.loads(pickle.dumps(trace))
            assert _rows(copy) == expected
            assert (copy.name, copy.seed) == ("r", 4)
            assert copy.content_digest() == trace.content_digest()
        assert by_records.stats() == by_columns.stats()
        assert by_records.content_digest() == by_columns.content_digest()
        with pytest.raises(IndexError):
            by_columns[n]

    def test_digest_hashes_each_record(self):
        records = [
            BranchRecord(pc=1 << 70, taken=True, uops_before=3),
            BranchRecord(pc=0x10, taken=False, uops_before=0),
        ]
        expected = hashlib.sha256(b"%d,1,3;16,0,0;" % (1 << 70)).hexdigest()
        assert Trace(records).content_digest() == expected

    def test_slice_keeps_metadata(self):
        trace = Trace.from_columns([4, 8, 12], [True, False, True], [1, 2, 3],
                                   name="t", seed=9)
        sub = trace[1:]
        assert isinstance(sub, Trace)
        assert (sub.name, sub.seed) == ("t", 9)
        assert trace.slice(1).name == "t[1:None]"

    def test_identity_equality(self):
        """Per-trace caches key on the object: equal content, two keys."""
        a = Trace.from_columns([4], [True], [1])
        b = Trace.from_columns([4], [True], [1])
        assert a != b
        assert len({a, b}) == 2

    @pytest.mark.parametrize("pc, uops_before", [(-1, 7), (0, -1)])
    def test_from_columns_raises_record_errors(self, pc, uops_before):
        with pytest.raises(ValueError) as record_error:
            BranchRecord(pc=pc, taken=True, uops_before=uops_before)
        with pytest.raises(ValueError, match=re.escape(str(record_error.value))):
            Trace.from_columns([4, pc, 8], [True, True, False], [1, uops_before, 2])

    @pytest.mark.parametrize("lengths", [(2, 1, 2), (1, 2, 2), (2, 2, 0)])
    def test_from_columns_rejects_unequal_lengths(self, lengths):
        n_pc, n_taken, n_uops = lengths
        with pytest.raises(ValueError, match="differ in length"):
            Trace.from_columns([4] * n_pc, [True] * n_taken, [1] * n_uops)
