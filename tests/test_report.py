"""Unit tests for the Markdown report generator."""

import pytest

from repro.analysis.report import markdown_table, render_report


class FakeRow:
    def __init__(self, **kw):
        self._kw = kw

    def as_dict(self):
        return dict(self._kw)


class RowResult:
    def __init__(self, rows):
        self.rows = rows


class FormatOnlyResult:
    def format(self):
        return "line one\nline two"


class TestMarkdownTable:
    def test_basic(self):
        text = markdown_table([{"a": 1, "b": "x"}, {"a": 2.5, "b": "y"}])
        lines = text.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert "| 2.50 | y |" in lines

    def test_column_selection(self):
        text = markdown_table([{"a": 1, "b": 2}], columns=["b"])
        assert text.splitlines()[0] == "| b |"

    def test_empty(self):
        assert markdown_table([]) == "*(no rows)*"

    def test_missing_keys(self):
        text = markdown_table([{"a": 1}], columns=["a", "b"])
        assert text.splitlines()[-1] == "| 1 |  |"


class TestRenderReport:
    def test_sections(self):
        report = render_report(
            {
                "exp_a": RowResult([FakeRow(x=1)]),
                "exp_b": FormatOnlyResult(),
            },
            title="T",
            preamble="intro",
        )
        assert report.startswith("# T")
        assert "intro" in report
        assert "## exp_a" in report
        assert "| x |" in report
        assert "## exp_b" in report
        assert "line one" in report

    def test_unrenderable(self):
        report = render_report({"weird": object()})
        assert "unrenderable" in report

    def test_real_experiment(self):
        from repro.experiments import table2
        from repro.experiments.common import ExperimentSettings

        result = table2.run(
            ExperimentSettings(n_branches=4000, warmup=1200,
                               benchmarks=("gzip",))
        )
        report = render_report({"table2": result})
        assert "| benchmark |" in report

