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


class TestIngest:
    """An ingested recording is one ordinary trace file."""

    @pytest.fixture()
    def capture(self, tmp_path):
        source = str(tmp_path / "capture.cbpbt")
        records = [
            BranchRecord(pc=0x400000 + 4 * (i % 7), taken=i % 3 != 0)
            for i in range(500)
        ]
        write_external_trace(records, source)
        return source, records

    def _token(self, argv, capsys):
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert "500 records" in text
        return text.split("token ")[1].strip()

    def test_same_source_same_digest_anywhere(self, tmp_path, capsys, capture):
        source, _ = capture
        first = str(tmp_path / "ingested.npz")
        second = str(tmp_path / "copy" / "other.npz")
        (tmp_path / "copy").mkdir()
        token = self._token(["ingest", source, first], capsys)
        other = self._token(["ingest", source, second, "--name", "x"], capsys)
        assert token.startswith("recorded:")
        assert token.split(":")[1] == other.split(":")[1]
        assert token.split(":", 2)[2] == first
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "capture.cbpbt",
            "copy",
            "ingested.npz",
        ]

    def test_inspect_convert_export_accept_ingested_file(
        self, tmp_path, capsys, capture
    ):
        source, records = capture
        ingested = str(tmp_path / "ingested.npz")
        self._token(["ingest", source, ingested], capsys)

        assert main(["inspect", ingested]) == 0
        assert "dynamic branches: 500" in capsys.readouterr().out

        text = str(tmp_path / "ingested.btrace")
        assert main(["convert", ingested, text]) == 0
        assert list(load_trace(text)) == records

        exported = str(tmp_path / "round.cbpbt")
        assert main(["export", ingested, exported]) == 0
        with open(exported, "rb") as a, open(source, "rb") as b:
            assert a.read() == b.read()


class TestUsageErrors:
    @pytest.mark.parametrize(
        "value", ["-5", "0"], ids=["branches-negative", "branches-zero"]
    )
    def test_count_below_one_is_usage_error(self, tmp_path, capsys, value):
        output = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["generate", "gzip", f"{output}.npz", "--branches", value])
        assert exc.value.code == 2
        assert "--branches" in capsys.readouterr().err
        assert not any(tmp_path.glob("out*"))  # nothing written
