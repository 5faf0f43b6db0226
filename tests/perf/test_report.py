"""Tests for the plain-text report formatting and bench run metadata."""

import pytest

from repro.perf.report import format_breakdown, format_scaling, format_table, run_metadata


class TestFormatTable:
    def test_contains_headers_and_cells(self):
        text = format_table(["name", "value"], [["a", 1], ["b", 2.5]], title="demo")
        assert "demo" in text
        assert "name" in text and "value" in text
        assert "2.500" in text

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_scientific_notation_for_small_values(self):
        text = format_table(["v"], [[1.5e-7]])
        assert "e-07" in text

    def test_columns_aligned(self):
        text = format_table(["col", "x"], [["verylongvalue", 1], ["s", 2]])
        lines = text.splitlines()
        # All data lines have the same position for the second column.
        assert len({line.index("  ") for line in lines[2:]}) >= 1


class TestFormatScaling:
    def test_series_rendered_per_resource(self):
        text = format_scaling([1, 2, 4], {"speedup": [1.0, 1.9, 3.6]}, resource_label="cores")
        assert "cores" in text
        assert "3.600" in text


class TestFormatBreakdown:
    def test_percentages(self):
        text = format_breakdown({"Local KNN": 0.6, "Remote KNN": 0.4})
        assert "60.0%" in text
        assert "40.0%" in text

    def test_absolute_mode(self):
        text = format_breakdown({"a": 1.5}, as_percent=False)
        assert "1.500" in text


class TestRunMetadata:
    def test_code_size_is_stamped(self):
        meta = run_metadata()
        for key in ("src_lines", "src_modules", "public_symbols"):
            assert isinstance(meta[key], int) and meta[key] > 0
