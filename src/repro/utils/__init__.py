"""Small shared utilities: ASCII table/series rendering for the benchmark
harness and a seeded RNG helper."""

from repro.utils.tables import format_series, format_table
from repro.utils.rng import derive_rng

__all__ = ["format_table", "format_series", "derive_rng"]
