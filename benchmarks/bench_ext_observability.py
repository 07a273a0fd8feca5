"""Extension bench: the wall-clock tax of the observability layer.

Two claims from ``docs/OBSERVABILITY.md``:

1. **On** — running the tiled pipeline inside an ``obs_context`` with a
   live ``Tracer``, ``MetricsRegistry`` **and ``WorkloadProfiler``**
   stays within 5 % of the disabled-observability run.  Instrumentation
   is O(pipeline phases) plus O(candidate tiles) NumPy reductions for
   the profiler's band attribution — the same order as the metrics
   recording — regardless of matrix size.

2. **Off** — the default (disabled) path is the baseline itself: guarded
   call sites cost one ambient-context lookup plus a no-op method call.
   The bench quantifies the measurement noise floor by timing two
   disabled runs per round; the "off vs off" spread shows that any
   overhead below it is unmeasurable (~0 %).

A third claim covers the *serving* path: a closed-loop burst through
``SpGEMMService`` with every sink live — tracer with cross-worker
propagation, metrics registry and workload profiler — stays within 5 %
of the same burst with everything off.  Per request the sinks cost a few
span/counter updates and one profile record per request; the shard
compute should dominate.  ``docs/OBSERVABILITY.md`` records how far the measured
serve-path overhead sits from that bound.  The serve report also splits
the tax: each sink alone against all off, by the same protocol (report
only; the claim is on all sinks together).

Medians over interleaved rounds keep the comparison robust to scheduler
noise.  ``REPRO_BENCH_MAX_MATRICES`` caps the sweep for smoke runs.
"""

import asyncio
import time

import pytest

from benchmarks.conftest import fig6_matrix_cap, save_and_print, save_series_json, tiled_of
from repro.analysis import format_table, geometric_mean
from repro.bench.schema import make_series
from repro.core import tile_spgemm
from repro.matrices import representative_18
from repro.obs import MetricsRegistry, Tracer, WorkloadProfiler, make_obs, obs_context

#: Traced-and-metered runs must stay within this of the disabled run.
OVERHEAD_CEILING = 0.05

#: Interleaved measurement rounds per matrix (medians reported).
ROUNDS = 5


def _suite():
    specs = representative_18()
    cap = fig6_matrix_cap()
    return specs[:cap] if cap else specs


def _median(xs):
    xs = sorted(xs)
    return xs[len(xs) // 2]


@pytest.fixture(scope="module")
def overhead_table():
    """Per matrix: median seconds disabled vs enabled, and the noise floor."""
    table = {}
    for spec in _suite():
        a = tiled_of(spec.matrix())
        tile_spgemm(a, a)  # warm-up (allocator, caches)
        off, off2, on = [], [], []
        for _ in range(ROUNDS):
            t0 = time.perf_counter()
            tile_spgemm(a, a)
            off.append(time.perf_counter() - t0)

            obs = make_obs()
            with obs_context(
                tracer=obs.tracer, metrics=obs.metrics, profile=obs.profile
            ):
                t0 = time.perf_counter()
                traced = tile_spgemm(a, a)
                on.append(time.perf_counter() - t0)
            assert obs.tracer.find("step2"), "tracer saw the pipeline"
            assert obs.profile.runs, "profiler saw the run"
            assert obs.profile.bands, "profiler attributed tile-row bands"

            t0 = time.perf_counter()
            plain = tile_spgemm(a, a)
            off2.append(time.perf_counter() - t0)
        assert plain.c.to_csr().allclose(traced.c.to_csr())
        off_s, on_s = _median(off), _median(on)
        table[spec.name] = {
            "off_s": off_s,
            "on_s": on_s,
            "overhead": on_s / off_s - 1.0,
            "noise": abs(_median(off2) / off_s - 1.0),
        }
    return table


def test_observability_report(benchmark, overhead_table):
    rows = []
    for name, o in overhead_table.items():
        rows.append(
            [
                name,
                f"{o['off_s'] * 1e3:.3f}",
                f"{o['on_s'] * 1e3:.3f}",
                f"{o['overhead'] * 100:+.2f}%",
                f"{o['noise'] * 100:.2f}%",
            ]
        )
    text = format_table(
        ["matrix", "obs off ms", "obs on ms", "on overhead", "noise floor"],
        rows,
        title=(
            "Extension: observability overhead (tracer + metrics on vs off, "
            f"median of {ROUNDS} interleaved rounds); disabled mode IS the "
            "baseline, so 'off' overhead is the noise floor"
        ),
    )
    benchmark.pedantic(save_and_print, args=("ext_observability", text), rounds=1, iterations=1)
    series = []
    for name, o in overhead_table.items():
        series.append(make_series(name, "obs_off", "aa", wall_seconds=[o["off_s"]]))
        series.append(
            make_series(
                name, "obs_on", "aa",
                wall_seconds=[o["on_s"]],
                extra={"overhead": o["overhead"], "noise": o["noise"]},
            )
        )
    save_series_json("ext_observability", series, suite="ext_observability", repeats=ROUNDS)


def test_shape_enabled_overhead_is_bounded(overhead_table):
    """The headline claim: tracing+metrics cost < 5 % on average.

    The geometric mean carries the claim; the per-matrix ceiling is looser
    because single medians on small matrices still jitter.
    """
    factors = [1.0 + max(o["overhead"], 0.0) for o in overhead_table.values()]
    assert geometric_mean(factors) - 1.0 < OVERHEAD_CEILING, factors
    assert max(factors) - 1.0 < 4 * OVERHEAD_CEILING, factors


def test_shape_instrumentation_does_not_change_results(overhead_table):
    """Per-matrix equality was asserted while building the table."""
    assert overhead_table


# ---------------------------------------------------------------------------
# Serve path: tracer + metrics + profiler vs everything off
# ---------------------------------------------------------------------------

#: Requests per burst — enough shard work that per-request telemetry
#: (spans, counters, profile records) is amortised realistically.
SERVE_REQUESTS = 16


#: The serve path's sinks, each measurable alone (``_serve_burst``).
SINKS = ("tracer", "metrics", "profile")


def _serve_burst(sinks=()) -> float:
    """One closed-loop burst with the named ``SINKS`` live; returns wall
    seconds for the whole burst."""
    from repro.serve.loadgen import make_workload, run_closed_loop
    from repro.serve.service import SpGEMMService

    # Per-shard telemetry is O(pipeline phases), not O(nnz), so the claim
    # is about the regime where shard compute dominates — tiny shards would
    # measure fixed per-request cost against near-zero work and say nothing
    # about the tax (worker-side span recording, ~0.1 ms per shard).
    workload = make_workload(SERVE_REQUESTS, n=256, nnz_per_row=16.0, seed=7)

    async def drive():
        service = SpGEMMService(max_queue_depth=32, workers=2)
        async with service:
            return await run_closed_loop(service, workload, tenants=2)

    if not sinks:
        t0 = time.perf_counter()
        report = asyncio.run(drive())
        elapsed = time.perf_counter() - t0
        assert report.outcomes.get("served") == SERVE_REQUESTS
        return elapsed

    live = {
        "tracer": Tracer() if "tracer" in sinks else None,
        "metrics": MetricsRegistry() if "metrics" in sinks else None,
        "profile": WorkloadProfiler() if "profile" in sinks else None,
    }
    with obs_context(**live):
        t0 = time.perf_counter()
        report = asyncio.run(drive())
        elapsed = time.perf_counter() - t0
    assert report.outcomes.get("served") == SERVE_REQUESTS
    if live["tracer"] is not None:
        spans = [s for s in live["tracer"].spans if s.name.startswith("request ")]
        assert len(spans) == SERVE_REQUESTS, "request spans recorded"
    if live["metrics"] is not None:
        assert live["metrics"].counter_samples("serve_requests_total"), "counters live"
    if live["profile"] is not None:
        assert live["profile"].runs == SERVE_REQUESTS, "one profile record per request"
    return elapsed


@pytest.fixture(scope="module")
def serve_overhead():
    """Best-of-rounds burst seconds with every sink on vs off.

    The burst is ~100 ms of asyncio + thread-pool work, so single rounds
    jitter with the scheduler; the minimum over interleaved rounds is the
    noise-robust floor both ways and is what the tax claim compares.
    """
    _serve_burst()  # warm-up (executor, allocator)
    off, off2, on = [], [], []
    for _ in range(ROUNDS):
        off.append(_serve_burst())
        on.append(_serve_burst(SINKS))
        off2.append(_serve_burst())
    off_s, on_s = min(off), min(on)
    return {
        "off_s": off_s,
        "on_s": on_s,
        "overhead": on_s / off_s - 1.0,
        # Two disabled measurement sets bound what the machine can even
        # resolve: overhead below this spread is indistinguishable from 0.
        "noise": abs(min(off2) / off_s - 1.0),
    }


@pytest.fixture(scope="module")
def serve_sink_split():
    """Best-of-rounds burst seconds with each sink alone and all together,
    against all off — the same interleaved protocol as ``serve_overhead``.

    It apportions the serve-path tax among the sinks; it carries no claim.
    """
    configs = {"all off": (), **{sink: (sink,) for sink in SINKS}, "all on": SINKS}
    _serve_burst()  # warm-up (executor, allocator)
    times = {name: [] for name in configs}
    for _ in range(ROUNDS):
        for name, sinks in configs.items():
            times[name].append(_serve_burst(sinks))
    off_s = min(times["all off"])
    return {
        name: {"s": min(ts), "overhead": min(ts) / off_s - 1.0}
        for name, ts in times.items()
    }


def test_serve_telemetry_report(benchmark, serve_overhead, serve_sink_split):
    o = serve_overhead
    text = format_table(
        ["path", "telemetry off ms", "telemetry on ms", "overhead", "noise floor"],
        [
            [
                f"serve burst ({SERVE_REQUESTS} reqs)",
                f"{o['off_s'] * 1e3:.3f}",
                f"{o['on_s'] * 1e3:.3f}",
                f"{o['overhead'] * 100:+.2f}%",
                f"{o['noise'] * 100:.2f}%",
            ]
        ],
        title=(
            "Extension: serve-path telemetry overhead (tracer + metrics + "
            f"profiler on vs all off, best of {ROUNDS} interleaved bursts)"
        ),
    )
    text += "\n" + format_table(
        ["sinks live", "burst ms", "overhead vs all off"],
        [
            [name, f"{split['s'] * 1e3:.3f}", f"{split['overhead'] * 100:+.2f}%"]
            for name, split in serve_sink_split.items()
        ],
        title=(
            "Per-sink split: each sink alone against all off (best of "
            f"{ROUNDS} interleaved bursts; report only)"
        ),
    )
    benchmark.pedantic(
        save_and_print, args=("ext_observability_serve", text), rounds=1, iterations=1
    )
    series = [
        make_series("serve_burst", "telemetry_off", "aa", wall_seconds=[o["off_s"]]),
        make_series(
            "serve_burst", "telemetry_on", "aa",
            wall_seconds=[o["on_s"]],
            extra={"overhead": o["overhead"], "noise": o["noise"]},
        ),
    ] + [
        make_series(
            "serve_burst", f"sink_{sink}", "aa",
            wall_seconds=[serve_sink_split[sink]["s"]],
            extra={"overhead": serve_sink_split[sink]["overhead"]},
        )
        for sink in SINKS
    ]
    save_series_json(
        "ext_observability_serve", series, suite="ext_observability", repeats=ROUNDS
    )


def test_shape_serve_telemetry_overhead_is_bounded(serve_overhead):
    """The serving claim: every sink together costs < 5 % on the burst.

    Overhead the machine cannot even resolve (the off-vs-off noise floor)
    does not count against the claim — same logic the tile-path report
    documents above.  A real regression shows up as overhead well above
    the spread of two identical disabled runs.
    """
    o = serve_overhead
    assert max(o["overhead"], 0.0) < OVERHEAD_CEILING + o["noise"], o
