"""Unit tests for extracting rows from experiment results."""

import pytest

from repro.analysis.export import rows_from_result


class FakeRow:
    def __init__(self, **kw):
        self._kw = kw

    def as_dict(self):
        return dict(self._kw)


class FakeResult:
    def __init__(self, rows):
        self.rows = rows


class TestRowsFromResult:
    def test_rows_attribute_with_as_dict(self):
        result = FakeResult([FakeRow(a=1), FakeRow(a=2)])
        assert rows_from_result(result) == [{"a": 1}, {"a": 2}]

    def test_cells_attribute(self):
        class CellResult:
            cells = [FakeRow(x=1)]

        assert rows_from_result(CellResult()) == [{"x": 1}]

    def test_plain_sequence(self):
        assert rows_from_result([{"k": 1}]) == [{"k": 1}]

    def test_mapping_rows(self):
        assert rows_from_result(FakeResult([{"m": 3}])) == [{"m": 3}]

    def test_bad_input(self):
        with pytest.raises(TypeError):
            rows_from_result(42)
        with pytest.raises(TypeError):
            rows_from_result(FakeResult([object()]))

    def test_real_experiment_result(self):
        from repro.experiments import table2
        from repro.experiments.common import ExperimentSettings

        result = table2.run(
            ExperimentSettings(n_branches=4000, warmup=1200,
                               benchmarks=("gzip",))
        )
        rows = rows_from_result(result)
        assert rows[0]["benchmark"] == "gzip"

