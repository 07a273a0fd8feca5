"""Cross-thread trace propagation: pool threads record into the run's sinks.

The contracts under test:

* a :class:`~repro.obs.trace.Tracer` is safe to use from several threads
  (each keeps its own span stack), a
  :meth:`~repro.obs.trace.Tracer.track` lays one thread's spans on a
  worker track with ``trace_id`` / ``span_id`` / ``parent_span_id``
  links, and every link a pooled run records resolves — either to
  another worker span or to the coordinator-side span that spawned the
  work;
* one recording rule at every entry point: events (spans, allocations,
  injected faults) are recorded where they happen, on any thread, and a
  multiply's work record (its counters and its workload profile) is
  made once, from its result — so a multiply reads the same whichever
  entry point ran it.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading

import pytest

from repro.core import TileMatrix, tile_spgemm
from repro.obs import (
    TraceContext,
    Tracer,
    WorkloadProfiler,
    make_obs,
    new_trace_id,
    obs_context,
)
from repro.runtime.chunked import chunked_tile_spgemm
from repro.runtime.faults import FaultPlan
from repro.runtime.parallel import parallel_tile_spgemm, spgemm_batch
from repro.serve import SpGEMMService
from tests.conftest import random_csr
from tests.corpus import corpus_case


def _tiled(n=96, density=0.06, seed=11):
    return TileMatrix.from_csr(random_csr(n, n, density, seed=seed))


def _run_threads(threads):
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()


# ------------------------------------------------------------------ units
def test_new_trace_ids_are_unique():
    a, b = new_trace_id(), new_trace_id()
    assert a != b


class TestTracerThreads:
    def test_two_threads_nest_spans_on_one_tracer(self):
        # Both threads open their outer span before either opens its
        # inner one, so a shared span stack would cross-link them.
        tracer = Tracer()
        both_open = threading.Barrier(2)

        def nest(name):
            with tracer.span(f"{name}.outer"):
                both_open.wait(timeout=10)
                with tracer.span(f"{name}.inner"):
                    with tracer.span(f"{name}.leaf"):
                        pass
                both_open.wait(timeout=10)

        _run_threads([threading.Thread(target=nest, args=(n,)) for n in "ab"])
        by_seq = {sp.seq: sp for sp in tracer.spans}
        assert len(by_seq) == 6  # every span got its own sequence number
        for sp in tracer.spans:
            owner = sp.name.split(".")[0]
            chain = []
            while sp.parent_seq >= 0:
                sp = by_seq[sp.parent_seq]
                chain.append(sp.name)
            assert all(name.startswith(owner + ".") for name in chain), chain
        depth = {sp.name: sp.depth for sp in tracer.spans}
        assert depth == {
            f"{n}.{level}": d
            for n in "ab"
            for d, level in enumerate(("outer", "inner", "leaf"))
        }
        assert tracer.open_spans == ()

    def test_many_threads_lose_no_span_or_profile_update(self):
        # More threads than cores and a tiny switch interval: a shared
        # span stack, a racy sequence counter or an unlocked profile
        # merge would lose or cross-link updates.
        tracer, profiler = Tracer(), WorkloadProfiler()
        threads, rounds = 8, 200

        # One C tile in tile row 0 with 3 intermediate products.
        stats = {
            "c_tilerow": [0],
            "pairs_per_tile": [1],
            "products_per_tile": [3],
            "tile_nnz_counts": [2],
            "tile_use_dense": [False],
        }

        def work(k):
            with tracer.track("pool", f"w{k}", "t", "root"):
                for _ in range(rounds):
                    with tracer.span("outer"):
                        with tracer.span("inner"):
                            profiler.record_run(stats)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _run_threads([threading.Thread(target=work, args=(k,)) for k in range(threads)])
        finally:
            sys.setswitchinterval(interval)
        assert len(tracer.spans) == 2 * threads * rounds
        assert len({sp.seq for sp in tracer.spans}) == len(tracer.spans)
        by_id = {sp.args["span_id"]: sp for sp in tracer.spans}
        for sp in tracer.spans:
            if sp.name == "inner":
                parent = by_id[sp.args["parent_span_id"]]
                assert (parent.name, parent.tid) == ("outer", sp.tid)
            else:
                assert sp.args["parent_span_id"] == "root"
        assert profiler.runs == threads * rounds
        assert profiler.totals["products"] == 3 * threads * rounds

    def test_track_links_resolve_to_its_parent(self):
        tracer = Tracer()
        with tracer.span("shard", span_id="t-1/shard0"):
            with tracer.track("pool", "w0", "t-1", "t-1/shard0"):
                with tracer.span("outer"):
                    with tracer.span("inner"):
                        tracer.instant("fault")
        by_name = {sp.name: sp for sp in tracer.spans}
        assert by_name["shard"].pid != "pool"  # opened before the track
        outer, inner = by_name["outer"], by_name["inner"]
        assert (outer.pid, outer.tid) == (inner.pid, inner.tid) == ("pool", "w0")
        assert outer.args["span_id"] == f"t-1/shard0/w{outer.seq}"
        assert outer.args["parent_span_id"] == "t-1/shard0"
        assert inner.args["parent_span_id"] == outer.args["span_id"]
        assert {sp.args["trace_id"] for sp in (outer, inner)} == {"t-1"}
        (event,) = tracer.events
        assert event.args == {"trace_id": "t-1", "worker": "w0"}
        # The track ends with its block: later spans are the caller's again.
        with tracer.span("after"):
            pass
        assert "span_id" not in tracer.find("after")[0].args


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


# ------------------------------------------- one work record per multiply
#: The counters of a multiply's work record (``_record_obs_metrics``).
_WORK_COUNTERS = (
    "tilespgemm_runs_total",
    "backend_runs_total",
    "tile_pairs_matched_total",
    "atomic_or_ops_total",
    "atomic_add_ops_total",
    "accumulator_tiles_total",
    "c_nnz_total",
)


async def _no_sleep(_seconds):
    pass


def _serve(a, b, **opts):
    async def drive():
        service = SpGEMMService(workers=2, initial_shards=3, sleep=_no_sleep)
        async with service:
            response = await service.submit(a, b, **opts)
        return response.result_or_raise()

    return [asyncio.run(drive())]


#: Each entry point as ``(a, b, **opts) -> products``; every engine entry
#: splits the multiply into several tile-row ranges.  ``spgemm_batch``
#: runs two multiplies (one pair would run inline).
ENTRY_POINTS = {
    "tile_spgemm": lambda a, b, **o: [tile_spgemm(a, b, **o)],
    "chunked": lambda a, b, **o: [chunked_tile_spgemm(a, b, num_batches=3, **o)],
    "parallel_inline": lambda a, b, **o: [
        parallel_tile_spgemm(a, b, workers=1, shards=3, **o)
    ],
    "parallel_pooled": lambda a, b, **o: [
        parallel_tile_spgemm(a, b, workers=2, shards=3, **o)
    ],
    "spgemm_batch": lambda a, b, **o: spgemm_batch([(a, b), (a, b)], workers=2, **o),
    "serve": _serve,
}
ENGINES = [name for name in ENTRY_POINTS if name != "tile_spgemm"]
TELEMETRY_CASES = [
    "moderate_random",
    "ragged_50x47",
    "dense_tile_in_larger",
    "empty_times_random",
]


def _operands(case_name):
    case = corpus_case(case_name)
    return TileMatrix.from_csr(case.a), TileMatrix.from_csr(case.b), case.kwargs


def _work(metrics):
    return {name: metrics.counter_samples(name) for name in _WORK_COUNTERS}


def _profile_bytes(profiler):
    return json.dumps(profiler.to_dict(), sort_keys=True).encode()


def _run_observed(entry, a, b, **opts):
    obs = make_obs()
    with obs_context(tracer=obs.tracer, metrics=obs.metrics, profile=obs.profile):
        products = ENTRY_POINTS[entry](a, b, **opts)
    return obs, products


class TestOneRecordPerMultiply:
    @pytest.mark.parametrize("case_name", TELEMETRY_CASES)
    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_a_multiply_reads_the_same_at_every_entry_point(self, entry, case_name):
        a, b, kwargs = _operands(case_name)
        obs, products = _run_observed(entry, a, b, **kwargs)
        # The reference: the same multiplies, each one direct tile_spgemm.
        ref = make_obs()
        with obs_context(metrics=ref.metrics, profile=ref.profile):
            for _ in products:
                tile_spgemm(a, b, **kwargs)
        multiplies = len(products)
        assert obs.metrics.counter_value("tilespgemm_runs_total") == multiplies
        assert _work(obs.metrics) == _work(ref.metrics)
        assert obs.profile.runs == multiplies
        assert _profile_bytes(obs.profile) == _profile_bytes(ref.profile)

    @pytest.mark.parametrize("entry", ENGINES)
    def test_an_injected_fault_is_counted_on_any_thread(self, entry):
        a, b, _ = _operands("moderate_random")
        plan = FaultPlan().transient_at_step("step2", at=1)
        obs, _ = _run_observed(entry, a, b, fault_plan=plan)
        assert len(plan.fired) == 1
        assert obs.metrics.counter_value(
            "faults_injected_total", error="transient", site="step"
        ) == 1
        assert obs.metrics.counter_value("tilespgemm_runs_total") == (
            2 if entry == "spgemm_batch" else 1
        )

    def test_pooled_allocations_count_once_where_they_happen(self):
        a, b, _ = _operands("moderate_random")
        inline, _ = _run_observed("parallel_inline", a, b)
        pooled, _ = _run_observed("parallel_pooled", a, b)
        events = "device_alloc_events_total"
        # Three ranges of seven device buffers each; no ledger replay.
        assert inline.metrics.counter_value(events) == 21
        assert pooled.metrics.counter_value(events) == 21

    def test_traced_batch_records_worker_spans(self):
        a, b, _ = _operands("moderate_random")
        obs, products = _run_observed("spgemm_batch", a, b)
        ranges = [sp for sp in obs.tracer.spans if sp.name == "tile_spgemm"]
        assert len(ranges) == sum(int(r.stats["batches"]) for r in products) == 2
        assert all(sp.pid == "parallel.workers" for sp in ranges)
        assert obs.profile.runs == 2
