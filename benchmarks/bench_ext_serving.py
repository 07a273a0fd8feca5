"""Extension bench: latency and throughput of the async serving tier.

Three questions about ``repro.serve`` (docs/SERVING.md):

1. What does a client see?  Closed-loop bursts at several concurrency
   levels: p50/p99 submission-to-response latency and served throughput,
   with queue time separated out.
2. What does overload cost?  An open-loop run at a rate the service
   cannot sustain with a small queue: how much is served, how much is
   shed, and what the survivors' latency looks like (shedding early is
   the point — the served requests stay fast).
3. What does recovery cost?  The same burst with an injected
   OOM-once-per-request fault plan: every request re-splits and still
   serves, and the p50/p99 delta prices the resilience machinery.

Everything lands in ``benchmarks/results/ext_serving.json`` (schema
``repro.bench/1``) with p50/p99/throughput in each series' ``extra``.
"""

import asyncio

import pytest

from benchmarks.conftest import save_and_print, save_series_json
from repro.analysis import format_table
from repro.bench.schema import make_series
from repro.runtime.faults import FaultPlan
from repro.serve import (
    SpGEMMService,
    make_workload,
    run_closed_loop,
    run_open_loop,
)

#: Burst sizes of the closed-loop sweep.
BURSTS = (8, 16, 32)

#: Operand dimension / mean row length of the generated workload.
N, NNZ_PER_ROW = 192, 8.0

#: Open-loop arrival rate (requests/second) against a 4-deep queue —
#: deliberately above what two workers sustain on this workload.
OVERLOAD_RATE = 400.0


def _run(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def closed_loop_table():
    rows = {}
    for burst in BURSTS:
        async def drive(burst=burst):
            async with SpGEMMService(max_queue_depth=burst, workers=4) as svc:
                return await run_closed_loop(
                    svc,
                    make_workload(burst, n=N, nnz_per_row=NNZ_PER_ROW, seed=7),
                    tenants=4,
                )

        rows[burst] = _run(drive())
    return rows


@pytest.fixture(scope="module")
def overload_report():
    async def drive():
        async with SpGEMMService(
            max_queue_depth=4, workers=2, max_inflight=2
        ) as svc:
            return await run_open_loop(
                svc,
                make_workload(48, n=N, nnz_per_row=NNZ_PER_ROW, seed=9),
                rate_rps=OVERLOAD_RATE,
                tenants=4,
            )

    return _run(drive())


@pytest.fixture(scope="module")
def faulted_report():
    async def fake_sleep(s):
        await asyncio.sleep(0)

    async def drive():
        async with SpGEMMService(
            max_queue_depth=16, workers=4, sleep=fake_sleep
        ) as svc:
            workload = make_workload(16, n=N, nnz_per_row=NNZ_PER_ROW, seed=7)
            tasks = [
                svc.submit(
                    a,
                    b,
                    tenant=f"tenant{k % 4}",
                    fault_plan=FaultPlan(seed=500 + k).oom_at_alloc(at=1),
                )
                for k, (a, b) in enumerate(workload)
            ]
            from repro.serve import LoadReport
            import time

            report = LoadReport()
            t0 = time.perf_counter()
            for resp in await asyncio.gather(*tasks):
                report.add(resp)
            report.wall_s = time.perf_counter() - t0
            return report

    return _run(drive())


def test_serving_report(
    benchmark, closed_loop_table, overload_report, faulted_report
):
    rows = []
    for burst, rep in closed_loop_table.items():
        d = rep.to_dict()
        rows.append(
            [
                str(burst),
                str(rep.served),
                f"{d['p50_ms']:.2f}",
                f"{d['p99_ms']:.2f}",
                f"{d['mean_queue_ms']:.2f}",
                f"{d['throughput_rps']:.1f}",
            ]
        )
    text = format_table(
        ["burst", "served", "p50 ms", "p99 ms", "queue ms", "served/s"],
        rows,
        title=(
            "Extension: closed-loop serving latency "
            f"(n={N}, 4 workers, queue = burst)"
        ),
    )

    od = overload_report.to_dict()
    fd = faulted_report.to_dict()
    extra_rows = [
        [
            "open-loop overload",
            str(overload_report.submitted),
            str(overload_report.served),
            str(overload_report.outcomes.get("shed", 0)),
            f"{od['p50_ms']:.2f}",
            f"{od['p99_ms']:.2f}",
        ],
        [
            "burst + OOM/request",
            str(faulted_report.submitted),
            str(faulted_report.served),
            str(faulted_report.resplits),
            f"{fd['p50_ms']:.2f}",
            f"{fd['p99_ms']:.2f}",
        ],
    ]
    text += "\n\n" + format_table(
        ["scenario", "submitted", "served", "shed/resplits", "p50 ms", "p99 ms"],
        extra_rows,
        title=(
            "Extension: serving under overload (rate "
            f"{OVERLOAD_RATE:.0f}/s into a 4-deep queue) and under "
            "injected per-request OOM (re-split + requeue)"
        ),
    )
    benchmark.pedantic(
        save_and_print, args=("ext_serving", text), rounds=1, iterations=1
    )

    series = []
    for burst, rep in closed_loop_table.items():
        d = rep.to_dict()
        series.append(
            make_series(
                f"closed_loop_burst{burst}",
                "serve",
                "aa",
                wall_seconds=sorted(rep.latencies_s),
                n=N,
                extra={
                    "p50_ms": d["p50_ms"],
                    "p99_ms": d["p99_ms"],
                    "throughput_rps": d["throughput_rps"],
                    "outcomes": d["outcomes"],
                },
            )
        )
    for name, rep in (
        ("open_loop_overload", overload_report),
        ("burst_oom_resplit", faulted_report),
    ):
        d = rep.to_dict()
        series.append(
            make_series(
                name,
                "serve",
                "aa",
                wall_seconds=sorted(rep.latencies_s),
                n=N,
                extra={
                    "p50_ms": d["p50_ms"],
                    "p99_ms": d["p99_ms"],
                    "throughput_rps": d["throughput_rps"],
                    "outcomes": d["outcomes"],
                    "resplits": d["resplits"],
                },
            )
        )
    save_series_json("ext_serving", series, suite="ext_serving")


def test_shape_closed_loop_serves_everything(closed_loop_table):
    """No faults, wait-mode backpressure: 100% served at every burst."""
    for burst, rep in closed_loop_table.items():
        assert rep.served == rep.submitted == burst, (burst, rep.outcomes)
        assert rep.percentile(50) <= rep.percentile(99)
        assert rep.throughput_rps > 0


def test_shape_overload_sheds_but_keeps_accounting(overload_report):
    """Open-loop overload: every request typed, shed + served = submitted."""
    o = overload_report.outcomes
    assert sum(o.values()) == overload_report.submitted
    assert o.get("exhausted", 0) == 0 and o.get("deadline", 0) == 0


def test_shape_faulted_burst_recovers_every_request(faulted_report):
    """One injected OOM per request: all served, one re-split each."""
    assert faulted_report.served == faulted_report.submitted
    assert faulted_report.resplits == faulted_report.submitted
