"""Extension bench: the modelled cost of resilience.

Two questions about the runtime of ``docs/RESILIENCE.md``:

1. What does the wrapper cost when nothing goes wrong?  ``run_resilient``
   on the 18 representative matrices with no budget pressure and no fault
   plan must stay within 5 % of the bare pipeline's cost-model estimate —
   the wrapper only adds bookkeeping, never extra kernels.

2. What does chunked OOM recovery cost?  Re-running each matrix under a
   budget of ~60 % of its measured peak forces the runtime to split the C
   tile-row space; the table prices that recovery (batch count, relaunch
   overhead on the modelled device) against the alternative, which is not
   a slower run but no run at all.

``REPRO_BENCH_MAX_MATRICES`` caps the sweep for smoke runs.
"""

import numpy as np
import pytest

from benchmarks.conftest import fig6_matrix_cap, save_and_print, save_series_json, tiled_of
from repro.analysis import format_table, geometric_mean
from repro.bench.schema import make_series
from repro.core import tile_spgemm
from repro.gpu import RTX3090, estimate_run
from repro.matrices import representative_18
from repro.runtime import run_resilient

#: The no-fault wrapper must cost less than this, relative.
OVERHEAD_CEILING = 0.05

#: Budget fraction of the measured single-shot peak that forces chunking.
RECOVERY_BUDGET_FRACTION = 0.6


def _suite():
    specs = representative_18()
    cap = fig6_matrix_cap()
    return specs[:cap] if cap else specs


@pytest.fixture(scope="module")
def overhead_table():
    """Per matrix: bare-pipeline estimate vs run_resilient estimate (s)."""
    table = {}
    for spec in _suite():
        a = tiled_of(spec.matrix())
        res = tile_spgemm(a, a)
        plain = estimate_run(res.as_spgemm_result(), RTX3090).seconds
        rr = run_resilient(a, a, device=RTX3090)
        assert rr.report.batches == 1
        assert np.array_equal(rr.c.val, res.c.val)  # the serial bytes
        table[spec.name] = {
            "plain_s": plain,
            "resilient_s": rr.estimated_seconds,
            "overhead": rr.estimated_seconds / plain - 1.0 if plain else 0.0,
            "peak_bytes": res.alloc.peak_bytes,
        }
    return table


@pytest.fixture(scope="module")
def recovery_table(overhead_table):
    """Per matrix: modelled cost of chunked recovery under a tight budget."""
    table = {}
    for spec in _suite():
        a = tiled_of(spec.matrix())
        clean = overhead_table[spec.name]
        budget = int(clean["peak_bytes"] * RECOVERY_BUDGET_FRACTION)
        rr = run_resilient(a, a, budget_bytes=budget, device=None)
        est = estimate_run(rr.result.as_spgemm_result(), RTX3090).seconds
        table[spec.name] = {
            "budget_bytes": budget,
            "batches": rr.report.batches,
            "attempts": rr.report.num_attempts,
            "recovered_s": est,
            "slowdown": est / clean["plain_s"] if clean["plain_s"] else 0.0,
            "peak_bytes": rr.result.alloc.peak_bytes,
        }
    return table


def test_resilience_report(benchmark, overhead_table, recovery_table):
    rows = []
    for name in overhead_table:
        o, r = overhead_table[name], recovery_table[name]
        rows.append(
            [
                name,
                f"{o['plain_s'] * 1e3:.3f}",
                f"{o['resilient_s'] * 1e3:.3f}",
                f"{o['overhead'] * 100:+.2f}%",
                str(r["batches"]),
                f"{r['recovered_s'] * 1e3:.3f}",
                f"{r['slowdown']:.2f}x",
            ]
        )
    text = format_table(
        ["matrix", "plain ms", "resilient ms", "overhead",
         "oom batches", "recovered ms", "vs crash-free"],
        rows,
        title=(
            "Extension: resilient-runtime overhead (no faults) and chunked "
            f"OOM recovery at {RECOVERY_BUDGET_FRACTION:.0%} of peak, "
            "modelled RTX 3090"
        ),
    )
    benchmark.pedantic(save_and_print, args=("ext_resilience", text), rounds=1, iterations=1)
    series = []
    for name in overhead_table:
        o, r = overhead_table[name], recovery_table[name]
        series.append(make_series(name, "tilespgemm", "aa", wall_seconds=[o["plain_s"]]))
        series.append(
            make_series(
                name, "resilient", "aa",
                wall_seconds=[o["resilient_s"]],
                extra={
                    "overhead": o["overhead"],
                    "oom_batches": r["batches"],
                    "recovered_s": r["recovered_s"],
                    "recovery_slowdown": r["slowdown"],
                },
            )
        )
    save_series_json("ext_resilience", series, suite="ext_resilience")


def test_shape_overhead_under_5_percent(overhead_table):
    """The headline claim: the wrapper is free when nothing fails."""
    for name, o in overhead_table.items():
        assert abs(o["overhead"]) < OVERHEAD_CEILING, (name, o["overhead"])


def test_shape_recovery_chunks_and_fits(recovery_table):
    """Every tight-budget run recovers by splitting, under the budget."""
    for name, r in recovery_table.items():
        assert r["batches"] > 1, name
        assert r["peak_bytes"] <= r["budget_bytes"], name


def test_shape_recovery_cost_is_bounded(recovery_table):
    """Chunked recovery is a modest constant factor, not a blow-up —
    far cheaper than its alternative (a crashed run)."""
    slowdowns = [r["slowdown"] for r in recovery_table.values()]
    assert geometric_mean(slowdowns) < 1.5
    assert max(slowdowns) < 3.0
