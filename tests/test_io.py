"""Unit tests for repro.trace.io."""

import errno
import os

import pytest

from repro.trace import io as trace_io
from repro.trace.io import load_trace, save_trace
from repro.trace.record import BranchRecord, Trace


def sample_trace():
    records = [
        BranchRecord(pc=0x400000, taken=True, uops_before=7),
        BranchRecord(pc=0x400034, taken=False, uops_before=0),
        BranchRecord(pc=0x400000, taken=True, uops_before=12),
    ]
    return Trace(records, name="sample", seed=99)


def assert_traces_equal(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert (ra.pc, ra.taken, ra.uops_before) == (rb.pc, rb.taken, rb.uops_before)


class TestTextFormat:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "t.btrace")
        save_trace(sample_trace(), path)
        loaded = load_trace(path)
        assert_traces_equal(sample_trace(), loaded)
        assert loaded.name == "sample"
        assert loaded.seed == 99

    def test_human_readable(self, tmp_path):
        path = str(tmp_path / "t.btrace")
        save_trace(sample_trace(), path)
        text = open(path).read()
        assert "# name: sample" in text
        assert "0x400000 1 7" in text

    def test_bad_line_rejected(self, tmp_path):
        path = str(tmp_path / "bad.btrace")
        with open(path, "w") as fh:
            fh.write("0x400000 1\n")
        with pytest.raises(ValueError, match="expected"):
            load_trace(path)

    def test_blank_lines_and_comments_skipped(self, tmp_path):
        path = str(tmp_path / "c.btrace")
        with open(path, "w") as fh:
            fh.write("# a comment\n\n0x10 1 3\n")
        loaded = load_trace(path)
        assert len(loaded) == 1
        assert loaded[0].uops_before == 3


class TestBinaryFormat:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "t.npz")
        save_trace(sample_trace(), path)
        loaded = load_trace(path)
        assert_traces_equal(sample_trace(), loaded)
        assert loaded.name == "sample"
        assert loaded.seed == 99

    def test_none_seed_roundtrip(self, tmp_path):
        path = str(tmp_path / "n.npz")
        save_trace(Trace([BranchRecord(pc=4, taken=True)], name="x"), path)
        assert load_trace(path).seed is None


class TestEdgeCases:
    """Regression coverage for boundary payloads in both formats."""

    @pytest.mark.parametrize("ext", [".btrace", ".npz"])
    def test_zero_length_roundtrip(self, tmp_path, ext):
        path = str(tmp_path / f"empty{ext}")
        save_trace(Trace([], name="empty", seed=5), path)
        loaded = load_trace(path)
        assert len(loaded) == 0
        assert loaded.name == "empty"
        assert loaded.seed == 5

    @pytest.mark.parametrize("ext", [".btrace", ".npz"])
    def test_oversized_pc_roundtrip(self, tmp_path, ext):
        """pcs beyond uint64 must survive (binary uses the hex column)."""
        wide = Trace(
            [
                BranchRecord(pc=(1 << 80) + 12, taken=True, uops_before=1),
                BranchRecord(pc=0x400000, taken=False, uops_before=2),
            ],
            name="wide",
            seed=1,
        )
        path = str(tmp_path / f"wide{ext}")
        save_trace(wide, path)
        assert_traces_equal(wide, load_trace(path))

    def test_oversized_pc_uses_hex_column(self, tmp_path):
        import numpy as np

        path = str(tmp_path / "wide.npz")
        save_trace(
            Trace([BranchRecord(pc=1 << 70, taken=True)], name="w"), path
        )
        with np.load(path, allow_pickle=False) as data:
            assert "pcs_hex" in data.files
            assert "pcs" not in data.files

    def test_uint64_boundary_pc_stays_in_integer_column(self, tmp_path):
        import numpy as np

        boundary = (1 << 64) - 1
        path = str(tmp_path / "b.npz")
        save_trace(
            Trace([BranchRecord(pc=boundary, taken=True)], name="b"), path
        )
        with np.load(path, allow_pickle=False) as data:
            assert "pcs" in data.files
        assert load_trace(path)[0].pc == boundary


class _TornTrace(Trace):
    """A trace whose iteration fails after two records."""

    def __iter__(self):
        yield from self.records[:2]
        raise OSError(errno.EIO, "read failed mid-trace")


class TestAtomicWrite:
    """A save that fails part-way leaves the target as it was."""

    def _assert_untouched(self, tmp_path, path, fail):
        with pytest.raises(OSError):
            fail(path)
        assert os.listdir(tmp_path) == []
        save_trace(sample_trace(), path)
        with pytest.raises(OSError):
            fail(path)
        assert os.listdir(tmp_path) == [os.path.basename(path)]
        assert_traces_equal(sample_trace(), load_trace(path))

    def test_torn_text_write(self, tmp_path):
        def fail(path):
            save_trace(_TornTrace(sample_trace().records, name="torn"), path)

        self._assert_untouched(tmp_path, str(tmp_path / "t.btrace"), fail)

    def test_failed_binary_write(self, tmp_path, monkeypatch):
        real = trace_io.np.savez_compressed

        def disk_full(file, **arrays):
            real(file, **arrays)
            raise OSError(errno.ENOSPC, "No space left on device")

        def fail(path):
            with monkeypatch.context() as patch:
                patch.setattr(trace_io.np, "savez_compressed", disk_full)
                save_trace(sample_trace(), path)

        self._assert_untouched(tmp_path, str(tmp_path / "t.npz"), fail)


class TestFormatDetection:
    def test_unknown_extension_rejected(self):
        with pytest.raises(ValueError, match="extension"):
            save_trace(sample_trace(), "trace.bin")

    def test_generated_trace_roundtrip(self, tmp_path, simple_trace):
        for ext in (".btrace", ".npz"):
            path = str(tmp_path / f"g{ext}")
            save_trace(simple_trace, path)
            assert_traces_equal(simple_trace, load_trace(path))
