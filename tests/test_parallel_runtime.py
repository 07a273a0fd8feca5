"""The sharded parallel engine: determinism, failure policy, batching, cache."""

import numpy as np
import pytest

from repro.core import TileMatrix, tile_spgemm
from repro.errors import InvalidInputError, ResilienceExhausted, TransientKernelError
from repro.obs.context import make_obs, obs_context
from repro.runtime.chunked import batch_bounds, chunked_tile_spgemm, stitch_results
from repro.runtime.faults import FaultPlan
from repro.runtime.parallel import (
    parallel_tile_spgemm,
    resolve_executor,
    resolve_workers,
    spgemm_batch,
)
from repro.runtime.policy import RetryPolicy
from repro.runtime.tilecache import (
    TileCache,
    cached_algorithm,
    content_key,
    get_tile_cache,
    reset_tile_cache,
)
from tests.conftest import random_csr, scipy_product

_C_ARRAYS = (
    "tileptr",
    "tilecolidx",
    "tilennz",
    "rowptr",
    "rowidx",
    "colidx",
    "val",
    "mask",
)


def _tiled(csr):
    return TileMatrix.from_csr(csr)


def assert_bytes_identical(c_ref, c_got):
    """All eight output arrays equal down to the raw bytes."""
    for name in _C_ARRAYS:
        ref, got = getattr(c_ref, name), getattr(c_got, name)
        assert ref.dtype == got.dtype, name
        assert ref.tobytes() == got.tobytes(), name


@pytest.fixture(scope="module")
def operands():
    a = _tiled(random_csr(300, 300, 0.05, seed=41))
    b = _tiled(random_csr(300, 300, 0.05, seed=42))
    return a, b


@pytest.fixture(scope="module")
def serial(operands):
    a, b = operands
    return tile_spgemm(a, b)


class TestByteIdentity:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_thread_pool_matches_serial(self, operands, serial, workers):
        a, b = operands
        res = parallel_tile_spgemm(a, b, workers=workers, executor="thread")
        assert_bytes_identical(serial.c, res.c)
        assert res.stats["workers"] == workers
        assert res.stats["executor"] == "thread"

    def test_process_pool_matches_serial(self, operands, serial):
        a, b = operands
        res = parallel_tile_spgemm(a, b, workers=2, executor="process")
        assert_bytes_identical(serial.c, res.c)
        assert res.stats["executor"] == "process"

    def test_rectangular_operands(self):
        a_csr = random_csr(130, 70, 0.10, seed=43)
        b_csr = random_csr(70, 200, 0.10, seed=44)
        ref = tile_spgemm(_tiled(a_csr), _tiled(b_csr))
        res = parallel_tile_spgemm(
            _tiled(a_csr), _tiled(b_csr), workers=3, executor="thread"
        )
        assert_bytes_identical(ref.c, res.c)
        assert res.c.to_csr().allclose(scipy_product(a_csr, b_csr))

    def test_workers_one_is_serial(self, operands, serial):
        a, b = operands
        res = parallel_tile_spgemm(a, b, workers=1)
        assert_bytes_identical(serial.c, res.c)
        assert res.stats["executor"] == "serial"
        assert res.stats["shards"] == 1

    def test_merged_stats_match_serial_totals(self, operands, serial):
        a, b = operands
        res = parallel_tile_spgemm(a, b, workers=2, executor="thread")
        for key in ("num_products", "nnz_c", "num_c_tiles", "sparse_tiles", "dense_tiles"):
            assert res.stats[key] == serial.stats[key], key

    def test_chunked_is_also_byte_identical(self, operands, serial):
        # The tile-aligned product chunking makes the chunked path exactly
        # partition-invariant too (the property the stitch relies on).
        a, b = operands
        for batches in (3, 8):
            res = chunked_tile_spgemm(a, b, num_batches=batches)
            assert_bytes_identical(serial.c, res.c)

    def test_drop_empty_tiles_consistent(self, operands):
        a, b = operands
        ref = tile_spgemm(a, b, keep_empty_tiles=False)
        res = parallel_tile_spgemm(
            a, b, workers=2, executor="thread", keep_empty_tiles=False
        )
        assert_bytes_identical(ref.c, res.c)


class TestShardGeometry:
    def test_batch_bounds_cover_contiguously(self):
        bounds = batch_bounds(17, 4)
        assert bounds[0] == 0 and bounds[-1] == 17
        assert np.all(np.diff(bounds) >= 1)

    def test_shards_clamped_to_tile_rows(self):
        a = _tiled(random_csr(20, 20, 0.4, seed=45))  # 2 tile rows
        res = parallel_tile_spgemm(a, a, workers=4, executor="thread")
        assert res.stats["shards"] <= a.num_tile_rows

    def test_explicit_shard_count(self, operands, serial):
        a, b = operands
        res = parallel_tile_spgemm(a, b, workers=2, executor="thread", shards=5)
        assert res.stats["shards"] == 5
        assert_bytes_identical(serial.c, res.c)

    def test_stitch_results_exported_and_reusable(self, operands, serial):
        a, b = operands
        bounds = batch_bounds(a.num_tile_rows, 3)
        from repro.runtime.chunked import slice_tile_rows

        pieces = [
            tile_spgemm(slice_tile_rows(a, int(bounds[k]), int(bounds[k + 1])), b)
            for k in range(3)
        ]
        merged = stitch_results(pieces, a, b, keep_empty_tiles=True)
        assert_bytes_identical(serial.c, merged.c)

    def test_dimension_mismatch_raises(self, operands):
        a, _ = operands
        bad = _tiled(random_csr(64, 64, 0.1, seed=46))
        with pytest.raises(InvalidInputError):
            parallel_tile_spgemm(a, bad, workers=2)


class TestFailurePolicy:
    """The shard engine's failure rules through the pool: a failing shard
    is recovered on its own, never by rerunning the whole matrix."""

    def test_transient_fault_retries_only_the_shard(self, operands, serial):
        a, b = operands
        plan = FaultPlan().transient_at_step(match="step3", at=1)
        obs = make_obs()
        with obs_context(tracer=obs.tracer, metrics=obs.metrics):
            res = parallel_tile_spgemm(a, b, workers=2, executor="thread", fault_plan=plan)
        assert res.stats["executor"] == "thread"  # stayed on the pool
        assert obs.metrics.counter_value("parallel_retries_total") >= 1
        assert res.timer.seconds["backoff"] > 0  # the modelled wait is charged
        assert_bytes_identical(serial.c, res.c)

    def test_retries_exhausted_raise_typed(self, operands):
        a, b = operands
        with pytest.raises(ResilienceExhausted, match="still failing after 0 retries") as ei:
            parallel_tile_spgemm(
                a,
                b,
                workers=2,
                executor="thread",
                policy=RetryPolicy(max_retries=0),
                fault_plan=FaultPlan().transient_at_step(match="step3", every=1),
            )
        assert isinstance(ei.value.__cause__, TransientKernelError)

    def test_shard_retry_absorbs_one_shot_fault(self, operands, serial):
        a, b = operands
        res = parallel_tile_spgemm(
            a,
            b,
            workers=2,
            executor="thread",
            policy=RetryPolicy(max_retries=1),
            fault_plan=FaultPlan().transient_at_step(match="step3", at=1),
        )
        assert_bytes_identical(serial.c, res.c)

    def test_policy_validation(self):
        with pytest.raises(InvalidInputError):
            RetryPolicy(max_retries=-1)

    def test_caller_bugs_never_fall_back(self, operands):
        # A non-transient error raised inside a shard is the caller's bug:
        # the engine must not mask it with a serial rerun.
        a, b = operands
        with pytest.raises(ValueError):
            parallel_tile_spgemm(
                a, b, workers=2, executor="thread", force_accumulator="bogus"
            )


class TestResolution:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        assert resolve_workers(None) == 5
        assert resolve_executor(None) == "process"

    def test_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        assert resolve_workers(None) == 1
        assert resolve_executor(None) == "thread"

    def test_zero_means_auto(self):
        assert resolve_workers(0) >= 1

    def test_invalid_values_raise(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(InvalidInputError):
            resolve_workers(None)
        with pytest.raises(InvalidInputError):
            resolve_workers(-2)
        with pytest.raises(InvalidInputError):
            resolve_executor("fiber")


class TestObservability:
    def test_per_shard_spans_and_metrics(self, operands):
        a, b = operands
        obs = make_obs()
        with obs_context(tracer=obs.tracer, metrics=obs.metrics):
            res = parallel_tile_spgemm(a, b, workers=2, executor="thread")
        shard_spans = [s for s in obs.tracer.spans if s.cat == "parallel.shard"]
        assert len(shard_spans) == res.stats["shards"]
        assert all(s.duration_s >= 0 for s in shard_spans)
        top = [s for s in obs.tracer.spans if s.name == "parallel_tile_spgemm"]
        assert len(top) == 1 and top[0].args["workers"] == 2
        assert obs.metrics.gauge_value("parallel_workers") == 2
        assert obs.metrics.counter_value("parallel_runs_total", executor="thread") == 1
        assert obs.metrics.counter_value("parallel_shards_total") == res.stats["shards"]
        # Merged algorithm counters equal one serial run's (workers report
        # to NULL_OBS; the coordinator records the stitched stats once).
        assert obs.metrics.counter_value("tilespgemm_runs_total") == 1
        assert obs.metrics.counter_value("c_nnz_total") == res.stats["nnz_c"]

    def test_worker_threads_inherit_no_ambient_context(self, operands):
        # The coordinator's obs context must not leak into pool workers;
        # if it did, the Tracer would be driven from several threads and
        # the span stack would interleave corruptly.  Worker spans appear
        # in the merged trace only via absorb_telemetry — recorded by the
        # coordinating thread after the pool drains, on worker tracks,
        # never through the coordinator's ambient context.
        a, b = operands
        obs = make_obs()
        with obs_context(tracer=obs.tracer, metrics=obs.metrics):
            parallel_tile_spgemm(a, b, workers=4, executor="thread")
        step3 = [s for s in obs.tracer.spans if s.name == "step3"]
        assert step3  # absorbed worker spans are present...
        for sp in step3:
            assert sp.pid == "parallel.workers"  # ...on worker tracks
            assert sp.args["trace_id"]  # and carry propagated identity
        assert obs.tracer.open_spans == ()  # span stack never corrupted
        for sp in obs.tracer.spans:
            assert sp.end_s >= sp.start_s


class TestSpgemmBatch:
    def test_order_and_identity(self):
        mats = [random_csr(90, 90, 0.08, seed=s) for s in (51, 52, 53)]
        pairs = [(mats[0], mats[1]), (mats[1], mats[2]), (mats[2], mats[0])]
        refs = [tile_spgemm(_tiled(x), _tiled(y)) for x, y in pairs]
        out = spgemm_batch(pairs, workers=3, executor="thread")
        assert len(out) == 3
        for ref, got in zip(refs, out):
            assert_bytes_identical(ref.c, got.c)

    def test_serial_batch(self):
        a = random_csr(60, 60, 0.1, seed=54)
        out = spgemm_batch([(a, a)], workers=1)
        assert out[0].c.to_csr().allclose(scipy_product(a, a))

    def test_repeated_operands_tile_once(self):
        reset_tile_cache()
        a = random_csr(80, 80, 0.1, seed=55)
        b = random_csr(80, 80, 0.1, seed=56)
        spgemm_batch([(a, b), (a, a), (b, b), (b, a)], workers=2, executor="thread")
        stats = get_tile_cache().stats()
        assert stats["misses"] == 2  # a and b each tiled exactly once
        assert stats["hits"] == 6

    def test_batch_task_fault_is_retried_per_task(self):
        a = random_csr(70, 70, 0.1, seed=57)
        ref = tile_spgemm(_tiled(a), _tiled(a))
        plan = FaultPlan().transient_at_step(match="step3", at=1)
        obs = make_obs()
        with obs_context(metrics=obs.metrics):
            out = spgemm_batch(
                [(a, a), (a, a)], workers=2, executor="thread", fault_plan=plan
            )
        assert obs.metrics.counter_value("parallel_retries_total") >= 1
        assert len(out) == 2
        for got in out:
            assert_bytes_identical(ref.c, got.c)

    def test_batch_task_past_its_retries_raises_typed(self):
        a = random_csr(70, 70, 0.1, seed=58)
        with pytest.raises(ResilienceExhausted) as ei:
            spgemm_batch(
                [(a, a), (a, a)],
                workers=2,
                executor="thread",
                policy=RetryPolicy(max_retries=0),
                fault_plan=FaultPlan().transient_at_step(match="step3", every=1),
            )
        assert isinstance(ei.value.__cause__, TransientKernelError)


class TestTileCache:
    def test_hit_on_identical_content(self):
        cache = TileCache(capacity=4)
        a = random_csr(64, 64, 0.1, seed=61)
        t1 = cache.tile(a)
        # A structurally identical copy (different object) must hit.
        from repro.formats.csr import CSRMatrix

        a2 = CSRMatrix(a.shape, a.indptr.copy(), a.indices.copy(), a.val.copy())
        t2 = cache.tile(a2)
        assert t1 is t2
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["evictions"] == 0 and stats["size"] == 1
        assert stats["capacity"] == 4
        assert stats["resident_bytes"] == t1.memory_bytes()

    def test_value_change_misses(self):
        cache = TileCache(capacity=4)
        a = random_csr(64, 64, 0.1, seed=62)
        cache.tile(a)
        from repro.formats.csr import CSRMatrix

        changed = CSRMatrix(a.shape, a.indptr, a.indices, a.val * 2.0)
        cache.tile(changed)
        assert cache.misses == 2
        assert content_key(a, 16) != content_key(changed, 16)

    def test_tile_size_in_key(self):
        a = random_csr(64, 64, 0.1, seed=63)
        assert content_key(a, 16) != content_key(a, 8)

    def test_lru_eviction(self):
        cache = TileCache(capacity=2)
        mats = [random_csr(32, 32, 0.2, seed=70 + i) for i in range(3)]
        for m in mats:
            cache.tile(m)
        assert cache.evictions == 1 and len(cache) == 2
        cache.tile(mats[0])  # evicted first -> must re-tile
        assert cache.misses == 4

    def test_tilematrix_passthrough(self):
        cache = TileCache()
        t = _tiled(random_csr(32, 32, 0.2, seed=64))
        assert cache.tile(t) is t
        assert cache.stats()["misses"] == 0

    def test_zero_capacity_disables(self):
        cache = TileCache(capacity=0)
        a = random_csr(32, 32, 0.2, seed=65)
        cache.tile(a)
        cache.tile(a)
        assert cache.misses == 2 and len(cache) == 0

    def test_clear(self):
        cache = TileCache()
        cache.tile(random_csr(32, 32, 0.2, seed=66))
        cache.clear()
        assert cache.stats() == {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "size": 0,
            "capacity": cache.capacity,
            "resident_bytes": 0,
        }

    def test_cached_algorithm_tiled_family(self):
        reset_tile_cache()
        a = random_csr(96, 96, 0.08, seed=67)
        run = cached_algorithm("tilespgemm")
        r1 = run(a, a)
        r2 = run(a, a)
        assert get_tile_cache().stats()["misses"] == 1
        assert r1.c.allclose(r2.c)
        # Non-tiled methods pass through unchanged.
        from repro.baselines import get_algorithm

        assert cached_algorithm("gustavson") is get_algorithm("gustavson")


class TestParallelAdapters:
    @pytest.mark.parametrize("method", ["tilespgemm_par2", "tilespgemm_par4"])
    def test_registered_and_identical(self, method):
        from repro.baselines import get_algorithm

        a = random_csr(128, 128, 0.06, seed=68)
        ref = get_algorithm("tilespgemm")(a, a)
        got = get_algorithm(method)(a, a)
        assert got.method == method
        assert ref.c.allclose(got.c)
        assert np.array_equal(ref.c.val, got.c.val)


class TestPlanner:
    """The estimation-driven planner: bounds geometry and determinism."""

    def test_batch_bounds_property_sweep(self):
        # Exact divmod splitting: for every (rows, batches) up to 64 the
        # bounds cover [0, rows] contiguously, are strictly increasing,
        # and shard sizes differ by at most one (no linspace truncation).
        for rows in range(65):
            for batches in range(1, 65):
                bounds = batch_bounds(rows, batches)
                assert bounds[0] == 0 and bounds[-1] == rows, (rows, batches)
                assert len(bounds) == min(batches, max(rows, 1)) + 1
                sizes = np.diff(bounds)
                if rows:
                    assert np.all(sizes >= 1), (rows, batches)
                    assert sizes.max() - sizes.min() <= 1, (rows, batches)

    def test_validate_bounds_rejects_bad_shapes(self):
        from repro.runtime.chunked import validate_bounds

        validate_bounds(np.array([0, 3, 7]), 7)
        for bad in ([1, 7], [0, 5], [0, 4, 4, 7], [0, 5, 3, 7], [0]):
            with pytest.raises(InvalidInputError):
                validate_bounds(np.array(bad), 7)

    def test_weighted_bounds_cover_with_no_empty_shard(self):
        from repro.runtime.planner import weighted_bounds

        rng = np.random.default_rng(7)
        for n in (1, 2, 5, 17, 64):
            for shards in (1, 2, 3, 8, 64):
                for weights in (
                    rng.random(n),
                    np.zeros(n),
                    np.eye(1, n, 0).ravel() * 100.0,  # one-row spike
                ):
                    bounds = weighted_bounds(weights, shards)
                    assert bounds[0] == 0 and bounds[-1] == n
                    assert np.all(np.diff(bounds) >= 1)

    def test_planned_bounds_cover_exactly(self, operands):
        from repro.runtime.planner import plan_execution

        a, b = operands
        plan = plan_execution(a, b, workers=3)
        assert plan.bounds[0] == 0
        assert plan.bounds[-1] == a.num_tile_rows
        assert np.all(np.diff(plan.bounds) >= 1)
        assert plan.shards == len(plan.bounds) - 1

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_planned_parallel_byte_identical(self, operands, executor):
        from repro.runtime.planner import plan_execution

        a, b = operands
        plan = plan_execution(a, b, workers=2, executor=executor)
        assert plan.mode == "parallel"
        res = parallel_tile_spgemm(a, b, plan=plan)
        ref = tile_spgemm(a, b, tnnz=plan.tnnz)
        assert_bytes_identical(ref.c, res.c)
        assert res.stats["plan"]["mode"] == "parallel"

    def test_planned_chunked_byte_identical(self, operands):
        # A multi-shard plan on one worker runs the shards inline — still
        # byte-identical to the monolithic serial run.  One worker is
        # pinned so a REPRO_WORKERS environment cannot turn it parallel.
        from repro.runtime.planner import plan_execution

        a, b = operands
        plan = plan_execution(a, b, workers=1, shard_products=10_000)
        assert plan.mode == "chunked"
        assert plan.workers == 1 and plan.shards > 1
        res = parallel_tile_spgemm(a, b, plan=plan)
        ref = tile_spgemm(a, b, tnnz=plan.tnnz)
        assert_bytes_identical(ref.c, res.c)
        assert res.stats["executor"] == "chunked"

    def test_plan_is_deterministic(self, operands):
        from repro.runtime.planner import plan_execution

        a, b = operands
        cache_stats = {"hits": 0, "misses": 0}
        p1 = plan_execution(a, b, cache_stats=cache_stats)
        p2 = plan_execution(a, b, cache_stats=cache_stats)
        assert p1.to_dict() == p2.to_dict()

    def test_plan_recorded_in_profiler(self, operands):
        from repro.obs.profile import WorkloadProfiler, validate_profile
        from repro.runtime.planner import plan_execution

        a, b = operands
        plan = plan_execution(a, b, workers=2)
        profiler = WorkloadProfiler()
        with obs_context(profile=profiler):
            parallel_tile_spgemm(a, b, plan=plan)
        doc = profiler.to_dict()
        assert doc["plans"], "plan record missing from the profiler"
        assert doc["plans"][0]["mode"] == plan.mode
        validate_profile(doc)
