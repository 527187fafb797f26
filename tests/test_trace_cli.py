"""Unit tests for the trace CLI."""

import pytest

from repro.trace.cli import main
from repro.trace.ingest import write_external_trace
from repro.trace.io import load_trace
from repro.trace.record import BranchRecord


class TestGenerate:
    def test_generate_and_inspect(self, tmp_path, capsys):
        out = str(tmp_path / "t.npz")
        assert main(["generate", "gzip", out, "--branches", "2000"]) == 0
        assert "2000 branches" in capsys.readouterr().out
        trace = load_trace(out)
        assert len(trace) == 2000
        assert trace.name == "gzip"

        assert main(["inspect", out, "--top", "3"]) == 0
        text = capsys.readouterr().out
        assert "dynamic branches: 2000" in text
        assert "hottest 3 static branches" in text

    def test_generate_seed_changes_output(self, tmp_path):
        a, b = str(tmp_path / "a.npz"), str(tmp_path / "b.npz")
        main(["generate", "gcc", a, "--branches", "500", "--seed", "1"])
        main(["generate", "gcc", b, "--branches", "500", "--seed", "2"])
        ta, tb = load_trace(a), load_trace(b)
        assert [r.taken for r in ta] != [r.taken for r in tb]

    def test_unknown_benchmark_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "nonesuch", str(tmp_path / "x.npz")])


class TestConvert:
    def test_roundtrip_formats(self, tmp_path, capsys):
        npz = str(tmp_path / "t.npz")
        text = str(tmp_path / "t.btrace")
        main(["generate", "bzip", npz, "--branches", "300"])
        assert main(["convert", npz, text]) == 0
        assert "300 branches" in capsys.readouterr().out
        original, converted = load_trace(npz), load_trace(text)
        assert [(r.pc, r.taken) for r in original] == [
            (r.pc, r.taken) for r in converted
        ]


class TestList:
    def test_lists_all_profiles(self, capsys):
        assert main(["list"]) == 0
        text = capsys.readouterr().out
        for name in ("gzip", "mcf", "vortex", "twolf"):
            assert name in text


class TestUsageErrors:
    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("generate", "--branches", "-5"),
            ("generate", "--branches", "0"),
            ("ingest", "--segment-size", "0"),
        ],
        ids=["branches-negative", "branches-zero", "segment-size-zero"],
    )
    def test_count_below_one_is_usage_error(
        self, tmp_path, capsys, command, flag, value
    ):
        output = tmp_path / "out"
        if command == "generate":
            argv = ["generate", "gzip", f"{output}.npz"]
        else:
            source = str(tmp_path / "in.btr")
            write_external_trace(
                [BranchRecord(pc=0x400000, taken=True)] * 8, source
            )
            argv = ["ingest", source, str(output)]
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not any(tmp_path.glob("out*"))  # nothing written
