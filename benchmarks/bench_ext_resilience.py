"""Extension bench: the modelled cost of resilience.

Two questions about the runtime of ``docs/RESILIENCE.md``:

1. What does the shard engine cost when nothing goes wrong?  Its
   one-worker run (``parallel_tile_spgemm(workers=1)``, the CLI's default)
   on the 18 representative matrices with no budget pressure and no fault
   plan must stay within 5 % of the bare pipeline's cost-model estimate —
   the engine only adds bookkeeping, never extra kernels.

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
from repro.runtime import parallel_tile_spgemm

#: The no-fault engine run must cost less than this, relative.
OVERHEAD_CEILING = 0.05

#: Budget fraction of the measured single-shot peak that forces chunking.
RECOVERY_BUDGET_FRACTION = 0.6


def _suite():
    specs = representative_18()
    cap = fig6_matrix_cap()
    return specs[:cap] if cap else specs


@pytest.fixture(scope="module")
def overhead_table():
    """Per matrix: bare-pipeline estimate vs one-worker engine estimate (s),
    the engine's modelled backoff included."""
    table = {}
    for spec in _suite():
        a = tiled_of(spec.matrix())
        res = tile_spgemm(a, a)
        plain = estimate_run(res.as_spgemm_result(), RTX3090).seconds
        run = parallel_tile_spgemm(a, a, workers=1)
        assert run.stats["shards"] == 1
        assert np.array_equal(run.c.val, res.c.val)  # the serial bytes
        engine_s = estimate_run(run.as_spgemm_result(), RTX3090).seconds
        engine_s += run.timer.seconds.get("backoff", 0.0)
        table[spec.name] = {
            "plain_s": plain,
            "resilient_s": engine_s,
            "overhead": engine_s / plain - 1.0 if plain else 0.0,
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
        run = parallel_tile_spgemm(a, a, workers=1, budget_bytes=budget)
        est = estimate_run(run.as_spgemm_result(), RTX3090).seconds
        table[spec.name] = {
            "budget_bytes": budget,
            "batches": run.stats["shards"],
            "resplits": run.stats["resplits"],
            "recovered_s": est,
            "slowdown": est / clean["plain_s"] if clean["plain_s"] else 0.0,
            "peak_bytes": run.alloc.peak_bytes,
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
            "Extension: shard-engine overhead (no faults) and chunked "
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
    """The headline claim: the engine is free when nothing fails."""
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
