"""Cross-thread trace propagation (repro.obs.propagate).

The contract under test: a :class:`TraceContext` travels into a pool
thread, the thread records real spans in a fresh local tracer, ships
them back as plain-data :class:`WorkerTelemetry`, and
:func:`absorb_telemetry` merges them into the coordinator's trace so
that every absorbed span's parent link resolves — either to another
worker span or to the coordinator-side span that spawned the work.
"""

from __future__ import annotations

import pytest

from repro.core import TileMatrix, tile_spgemm
from repro.obs import (
    MetricsRegistry,
    TraceContext,
    Tracer,
    WorkerTelemetry,
    absorb_telemetry,
    current_obs,
    new_trace_id,
    obs_context,
    run_with_worker_obs,
    span_id_of,
)
from repro.runtime.parallel import parallel_tile_spgemm
from tests.conftest import random_csr


def _tiled(n=96, density=0.06, seed=11):
    return TileMatrix.from_csr(random_csr(n, n, density, seed=seed))


def _traced_pipeline(n):
    """Worker body: runs the instrumented pipeline under ambient obs."""
    a = _tiled(n=n)
    obs = current_obs()
    obs.metrics.inc("tests_worker_units_total", 1)
    with obs.tracer.span("unit", cat="test"):
        tile_spgemm(a, a)
    return n


# ------------------------------------------------------------------ units
class TestRunWithWorkerObs:
    def test_none_ctx_is_a_plain_call(self):
        result, telemetry = run_with_worker_obs(None, lambda x: x + 1, 41)
        assert result == 42
        assert telemetry is None

    def test_records_spans_events_and_counters(self):
        ctx = TraceContext("trace-7", parent_span_id="trace-7/shard0")
        result, telemetry = run_with_worker_obs(ctx, _traced_pipeline, 64)
        assert result == 64
        assert isinstance(telemetry, WorkerTelemetry)
        assert telemetry.ctx == ctx
        names = [sp["name"] for sp in telemetry.spans]
        assert "unit" in names
        assert "step2" in names  # pipeline instrumentation went worker-side
        assert ("tests_worker_units_total", {}, 1.0) in telemetry.counters

    def test_exception_propagates_unchanged(self):
        ctx = TraceContext("trace-err")

        def boom():
            raise ValueError("worker exploded")

        with pytest.raises(ValueError, match="worker exploded"):
            run_with_worker_obs(ctx, boom)

    def test_worker_ambient_context_is_isolated(self):
        ctx = TraceContext("trace-iso")
        outer = Tracer()
        with obs_context(tracer=outer):
            run_with_worker_obs(ctx, _traced_pipeline, 64)
            # The worker entered a *fresh* context; the outer tracer saw
            # nothing and its span stack is intact.
            assert outer.find("unit") == []
            assert outer.open_spans == ()


class TestAbsorbTelemetry:
    def test_none_is_noop(self):
        tracer = Tracer()
        assert absorb_telemetry(tracer, None) == 0
        assert tracer.spans == []

    def test_links_and_rebasing(self):
        ctx = TraceContext("t-1", parent_span_id="t-1/shard3")
        _, telemetry = run_with_worker_obs(ctx, _traced_pipeline, 64)
        tracer = Tracer()
        n = absorb_telemetry(
            tracer, telemetry, epoch_s=telemetry.epoch_s - 5.0, pid="pool"
        )
        assert n == len(telemetry.spans) > 0
        by_id = {sp.args["span_id"]: sp for sp in tracer.spans}
        for sp in tracer.spans:
            assert sp.pid == "pool"
            assert sp.args["trace_id"] == "t-1"
            parent = sp.args["parent_span_id"]
            # Resolves within the worker's own spans, or terminates at
            # the coordinator span that spawned the work.
            assert parent in by_id or parent == "t-1/shard3"
            # Times rebased by the epoch offset (worker epoch was 5 s
            # after the destination zero).
            assert sp.start_s >= 5.0

    def test_counter_accumulation_is_optional_and_additive(self):
        ctx = TraceContext("t-2")
        _, telemetry = run_with_worker_obs(ctx, _traced_pipeline, 64)
        tracer = Tracer()
        absorb_telemetry(tracer, telemetry)  # metrics=None: dropped
        registry = MetricsRegistry()
        absorb_telemetry(tracer, telemetry, metrics=registry)
        absorb_telemetry(tracer, telemetry, metrics=registry)
        samples = dict(
            (tuple(sorted(lk.items())), v)
            for lk, v in registry.counter_samples("tests_worker_units_total")
        )
        assert samples[()] == 2.0

    def test_span_id_helpers(self):
        ctx = TraceContext("t-3", parent_span_id="p")
        assert span_id_of(ctx, "shard0") == "t-3/shard0"
        a, b = new_trace_id(), new_trace_id()
        assert a != b


# --------------------------------------------------- parallel engine links
def _assert_parallel_links(tracer, trace_id):
    worker_spans = [sp for sp in tracer.spans if sp.pid == "parallel.workers"]
    assert worker_spans, "worker-side spans were absorbed"
    known = {
        sp.args["span_id"] for sp in tracer.spans if "span_id" in sp.args
    }
    for sp in worker_spans:
        assert sp.args["trace_id"] == trace_id
        assert sp.args["parent_span_id"] in known, sp.args
    # Chain reaches the coordinator: at least one worker span's parent is
    # a coordinator-recorded span (a non-worker track).
    coordinator_ids = {
        sp.args["span_id"]
        for sp in tracer.spans
        if sp.pid != "parallel.workers" and "span_id" in sp.args
    }
    assert any(
        sp.args["parent_span_id"] in coordinator_ids for sp in worker_spans
    )


class TestParallelPropagation:
    def test_thread_pool_worker_spans_link_to_coordinator(self):
        a = _tiled(n=128, seed=3)
        tracer = Tracer()
        with obs_context(tracer=tracer):
            res = parallel_tile_spgemm(a, a, workers=2, shards=2)
        ref = tile_spgemm(a, a)
        assert res.c.to_csr().allclose(ref.c.to_csr())
        # Pool-thread tracks, not the coordinator's.
        tracks = {sp.tid for sp in tracer.spans if sp.pid == "parallel.workers"}
        assert tracks and all(t.startswith("repro-shard") for t in tracks)
        trace_ids = {
            sp.args["trace_id"] for sp in tracer.spans if "trace_id" in sp.args
        }
        assert len(trace_ids) == 1
        _assert_parallel_links(tracer, trace_ids.pop())

    def test_ambient_trace_id_is_inherited(self):
        a = _tiled(n=96, seed=5)
        tracer = Tracer()
        ctx = TraceContext("req-outer-1", parent_span_id="req:req-outer-1")
        with obs_context(tracer=tracer, trace_ctx=ctx):
            parallel_tile_spgemm(a, a, workers=2, shards=2)
        worker_ids = {
            sp.args["trace_id"]
            for sp in tracer.spans
            if sp.pid == "parallel.workers"
        }
        assert worker_ids == {"req-outer-1"}
