"""Table and series rendering."""

from repro.utils import format_series, format_table


class TestFormatTable:
    def test_basic_alignment(self):
        out = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = out.splitlines()
        assert lines[0].startswith("a ")
        assert "-+-" in lines[1]
        assert len(lines) == 4

    def test_title(self):
        out = format_table(["x"], [["1"]], title="T")
        assert out.splitlines()[0] == "T"

    def test_non_string_cells(self):
        out = format_table(["n"], [[42], [3.5]])
        assert "42" in out and "3.5" in out

    def test_column_width_from_header(self):
        out = format_table(["wide-header"], [["x"]])
        row = out.splitlines()[-1]
        assert len(row) == len("wide-header")


class TestFormatSeries:
    def test_series_rows(self):
        out = format_series("k", [1, 2], {"m": [0.5, 0.75]}, precision=2)
        assert "0.50" in out and "0.75" in out

    def test_multiple_series_columns(self):
        out = format_series("k", [1], {"a": [1.0], "b": [2.0]})
        header = out.splitlines()[0]
        assert "a" in header and "b" in header

    def test_nan_rendered_as_dash(self):
        out = format_series("k", [1], {"a": [float("nan")]})
        assert "-" in out.splitlines()[-1]
