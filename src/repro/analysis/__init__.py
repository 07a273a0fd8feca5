"""Analysis utilities: trend fits, breakdown buckets, report tables."""

from repro.analysis.breakdown import (
    BUCKETS,
    estimated_breakdown,
    fractions,
    measured_breakdown,
)
from repro.analysis.bench_compare import (
    ComparisonReport,
    SeriesDelta,
    attribute_regressions,
    bootstrap_median_ci,
    classify_samples,
    compare_documents,
    mann_whitney_u,
    planner_comparison,
    render_attribution,
    render_comparison,
    render_planner_comparison,
)
from repro.analysis.estimate import (
    MultiplyEstimate,
    estimate_multiply,
    row_products,
    tile_row_products,
)
from repro.analysis.plotting import ascii_scatter
from repro.analysis.profiling import (
    aggregate_spans,
    breakdown_from_trace,
    diff_traces,
    load_chrome_trace,
    render_breakdown,
    render_trace_diff,
    top_spans_report,
    validate_chrome_trace,
)
from repro.analysis.regression import RegressionLine, fit_loglinear, geometric_mean
from repro.analysis.reporting import format_speedup, format_table, paper_vs_measured_row

__all__ = [
    "BUCKETS",
    "ComparisonReport",
    "attribute_regressions",
    "render_attribution",
    "RegressionLine",
    "SeriesDelta",
    "aggregate_spans",
    "ascii_scatter",
    "bootstrap_median_ci",
    "breakdown_from_trace",
    "classify_samples",
    "compare_documents",
    "diff_traces",
    "estimated_breakdown",
    "fit_loglinear",
    "fractions",
    "format_speedup",
    "format_table",
    "geometric_mean",
    "load_chrome_trace",
    "mann_whitney_u",
    "measured_breakdown",
    "MultiplyEstimate",
    "estimate_multiply",
    "row_products",
    "tile_row_products",
    "planner_comparison",
    "render_planner_comparison",
    "paper_vs_measured_row",
    "render_breakdown",
    "render_comparison",
    "render_trace_diff",
    "top_spans_report",
    "validate_chrome_trace",
]
