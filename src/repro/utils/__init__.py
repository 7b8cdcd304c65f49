"""Small shared utilities: ASCII table/series rendering for the benchmark
harness."""

from repro.utils.tables import format_series, format_table

__all__ = ["format_table", "format_series"]
