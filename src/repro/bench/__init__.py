"""The machine-readable benchmark tier.

* :mod:`repro.bench.schema` — the schema-versioned JSON result document
  that ``repro bench run`` and the figure benchmarks under
  ``benchmarks/`` emit (samples, GFlops, counters, environment
  fingerprint);
* :mod:`repro.bench.runner` — :class:`~repro.bench.runner.BenchRunner`,
  executing named suites with warmup/repeat control and deterministic
  seeding;
* :mod:`repro.bench.cli` — the ``repro bench run|compare`` subcommands;
  ``compare`` is the planner gate.

The planner gate's statistics live in :mod:`repro.analysis.bench_compare`
next to the other analysis tools.  End-to-end speed is measured by
``benchmarks/e2e``.  See ``docs/BENCHMARKING.md`` for the workflow.
"""

from repro.bench.runner import SUITES, BenchConfig, BenchRunner, available_suites
from repro.bench.schema import (
    SCHEMA_VERSION,
    environment_fingerprint,
    load_document,
    make_series,
    new_document,
    series_key,
    validate_document,
    write_document,
)

__all__ = [
    "SCHEMA_VERSION",
    "BenchConfig",
    "BenchRunner",
    "SUITES",
    "available_suites",
    "series_key",
    "environment_fingerprint",
    "new_document",
    "make_series",
    "validate_document",
    "write_document",
    "load_document",
]
