"""Shared utilities: deterministic RNG plumbing, statistics, table rendering."""

from repro.util.indexing import as_contiguous_slice
from repro.util.rng import RngFactory, spawn_rng
from repro.util.stats import (
    LinearFit,
    linear_fit,
    r_squared,
    worst_case_variation,
    variation_summary,
)
from repro.util.cpus import effective_cpu_count
from repro.util.tables import render_table

__all__ = [
    "as_contiguous_slice",
    "RngFactory",
    "spawn_rng",
    "effective_cpu_count",
    "LinearFit",
    "linear_fit",
    "r_squared",
    "worst_case_variation",
    "variation_summary",
    "render_table",
]
