"""Tests of the resilient execution runtime (repro.runtime, repro.errors).

Covers the memory-budget and fault-plan arguments of the allocation
tracker, the deterministic fault plan, chunked
re-execution under a budget, the retry/backoff policy of the shard engine
and the SUMMA communication-fault path — including bit-identical chunked
recovery with ``shards > 1`` and ``ResilienceExhausted`` on exhausted
retries.
"""

import numpy as np
import pytest

from repro.core import TileMatrix, tile_spgemm
from repro.distributed.grid import ProcessGrid
from repro.distributed.summa import summa_spgemm
from repro.errors import (
    CommFailure,
    DeviceOOMError,
    InvalidInputError,
    ResilienceExhausted,
    TransientKernelError,
    exit_code_for,
)
from repro.gpu.device import RTX3060, RTX3090
from repro.gpu.memtracker import memory_curve
from repro.obs import make_obs, obs_context
from repro.runtime import (
    FaultPlan,
    RetryPolicy,
    parallel_tile_spgemm,
)
from repro.runtime.chunked import chunked_tile_spgemm, slice_tile_rows
from repro.util.alloc import AllocationTracker
from tests.conftest import random_csr


def _tiled(seed=11, n=96, density=0.08, tile_size=16):
    return TileMatrix.from_csr(random_csr(n, n, density, seed=seed), tile_size)


class TestErrorTaxonomy:
    def test_backwards_compatible_bases(self):
        assert issubclass(InvalidInputError, ValueError)
        assert issubclass(DeviceOOMError, MemoryError)
        assert issubclass(TransientKernelError, RuntimeError)
        assert issubclass(CommFailure, TransientKernelError)

    def test_exit_codes_are_distinct(self):
        excs = [
            InvalidInputError("x"),
            FileNotFoundError("x"),
            DeviceOOMError("b", 1, 0, None),
            TransientKernelError("s"),
            CommFailure("s"),
            ResilienceExhausted("x"),
        ]
        codes = [exit_code_for(e) for e in excs]
        assert len(set(codes)) == len(codes)
        assert all(c != 0 for c in codes)

    def test_oom_carries_context(self):
        err = DeviceOOMError("val_C", 4096, 1024, 2048)
        assert err.label == "val_C"
        assert err.requested_bytes == 4096
        assert err.live_bytes == 1024
        assert err.budget_bytes == 2048
        assert "val_C" in str(err)


class TestBudgetedTracker:
    def test_within_budget_ok(self):
        t = AllocationTracker(budget_bytes=100)
        t.alloc("a", 60)
        t.alloc("b", 40)
        assert t.live_bytes == 100

    def test_exceeding_budget_raises_at_offending_alloc(self):
        t = AllocationTracker(budget_bytes=100)
        t.alloc("a", 60)
        with pytest.raises(DeviceOOMError) as excinfo:
            t.alloc("b", 41)
        assert excinfo.value.label == "b"
        assert excinfo.value.live_bytes == 60
        # State untouched by the failed allocation.
        assert t.live_bytes == 60
        assert t.peak_bytes == 60
        assert t.live_labels() == ("a",)

    def test_free_makes_room(self):
        t = AllocationTracker(budget_bytes=100)
        t.alloc("a", 60)
        t.free("a")
        t.alloc("b", 90)
        assert t.live_bytes == 90

    def test_fault_plan_argument_fires_before_the_ledger_changes(self):
        t = AllocationTracker(fault_plan=FaultPlan().oom_at_alloc(match="b"))
        t.alloc("a", 10)
        with pytest.raises(DeviceOOMError):
            t.alloc("b", 10)
        assert t.live_labels() == ("a",)

    def test_use_context_false_detaches(self):
        obs = make_obs(metrics=True)
        with obs_context(metrics=obs.metrics):
            t = AllocationTracker(use_context=False)
            t.alloc("a", 10_000)
            assert t.budget_bytes is None
        assert obs.metrics.counter_value("device_alloc_events_total") == 0


class TestDeviceCapacity:
    def test_table1_capacities(self):
        assert RTX3060.dram_capacity_bytes == 12_000_000_000
        assert RTX3090.dram_capacity_bytes == 24_000_000_000

    def test_scaled_memory_scales_capacity(self):
        tiny = RTX3090.scaled_memory(1e-9)
        assert tiny.dram_capacity_bytes == 24

    def test_memory_curve_oom_from_capacity(self):
        a = _tiled()
        result = tile_spgemm(a, a)
        from repro.baselines.base import SpGEMMResult

        wrapper = SpGEMMResult(
            c=None, method="tilespgemm", timer=result.timer,
            alloc=result.alloc, stats=dict(result.stats),
        )
        fits = memory_curve(wrapper, RTX3090)
        assert not fits.oom
        # Shrink DRAM below the run's peak: the curve must flag OOM.
        factor = result.alloc.peak_bytes / (2 * RTX3090.dram_capacity_bytes)
        ooms = memory_curve(wrapper, RTX3090.scaled_memory(factor))
        assert ooms.oom
        assert np.isnan(ooms.total_seconds) or ooms.total_seconds > 0


class TestFaultPlanSemantics:
    def test_at_is_one_based_and_one_shot(self):
        plan = FaultPlan().inject("transient", "step", at=2)
        plan.on_step("a")  # 1st: no fire
        with pytest.raises(TransientKernelError):
            plan.on_step("b")  # 2nd: fires
        plan.on_step("c")  # one-shot: never again
        assert plan.num_fired == 1

    def test_every_fires_repeatedly(self):
        plan = FaultPlan().inject("transient", "step", every=2)
        plan.on_step("a")
        with pytest.raises(TransientKernelError):
            plan.on_step("a")
        plan.on_step("a")
        with pytest.raises(TransientKernelError):
            plan.on_step("a")
        assert plan.num_fired == 2

    def test_match_filters_events(self):
        plan = FaultPlan().inject("oom", "alloc", at=1, match="val")
        plan.on_alloc("rowPtr_C", 10)
        with pytest.raises(DeviceOOMError):
            plan.on_alloc("val_C", 10)

    def test_reset_replays(self):
        plan = FaultPlan(seed=3).inject("transient", "step", at=1)
        with pytest.raises(TransientKernelError):
            plan.on_step("x")
        plan.reset()
        assert plan.num_fired == 0
        with pytest.raises(TransientKernelError):
            plan.on_step("x")

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan().inject("nonsense", "step", at=1)
        with pytest.raises(ValueError):
            FaultPlan().inject("oom", "nowhere", at=1)


class TestSliceTileRows:
    def test_slices_partition_the_matrix(self):
        a = _tiled(seed=5, n=130)
        rows = a.num_tile_rows
        mid = rows // 2
        top, bottom = slice_tile_rows(a, 0, mid), slice_tile_rows(a, mid, rows)
        assert top.num_tiles + bottom.num_tiles == a.num_tiles
        assert top.nnz + bottom.nnz == a.nnz
        assert top.shape[0] + bottom.shape[0] == a.shape[0]

    def test_out_of_range_rejected(self):
        a = _tiled()
        with pytest.raises(InvalidInputError):
            slice_tile_rows(a, 0, a.num_tile_rows + 1)


class TestBudgetDrivenChunking:
    """Acceptance criterion: under an injected DeviceOOMError the one-worker
    shard engine produces a TileMatrix bit-identical (pattern and values) to
    the unbudgeted tile_spgemm result, with shards > 1."""

    def test_budget_forces_batches_and_bit_identity(self):
        a = _tiled(seed=19, n=160, density=0.1)
        clean = tile_spgemm(a, a)
        budget = int(clean.alloc.peak_bytes * 0.6)
        # Sanity: the budget genuinely makes the single-shot run OOM.
        with pytest.raises(DeviceOOMError):
            tile_spgemm(a, a, budget_bytes=budget)
        res = parallel_tile_spgemm(a, a, workers=1, budget_bytes=budget)
        assert res.stats["shards"] > 1
        assert res.stats["resplits"] == res.stats["shards"] - 1
        assert res.stats["workers"] == 1
        c1, c2 = clean.c, res.c
        for name in ("tileptr", "tilecolidx", "tilennz", "rowptr", "rowidx", "colidx", "mask"):
            assert np.array_equal(getattr(c1, name), getattr(c2, name)), name
        assert np.array_equal(c1.val, c2.val)

    def test_chunked_run_respects_budget(self):
        a = _tiled(seed=19, n=160, density=0.1)
        clean = tile_spgemm(a, a)
        budget = int(clean.alloc.peak_bytes * 0.6)
        res = parallel_tile_spgemm(a, a, workers=1, budget_bytes=budget)
        assert res.alloc.peak_bytes <= budget

    def test_impossible_budget_exhausts(self):
        a = _tiled()
        with pytest.raises(ResilienceExhausted) as excinfo:
            parallel_tile_spgemm(a, a, workers=1, budget_bytes=16)
        assert isinstance(excinfo.value.__cause__, DeviceOOMError)

    def test_chunked_respects_explicit_batches(self):
        a = _tiled(seed=2, n=128)
        res = chunked_tile_spgemm(a, a, num_batches=4)
        assert res.stats["batches"] == 4
        assert res.timer.count("step2") == 4


class TestFallbackLadder:
    """There is no algorithm fallback: when retries run out, the one-worker
    shard engine raises ``ResilienceExhausted`` like every other entry
    point, and a recovered run returns the serial bytes."""

    def test_exhausted_retries_raise(self):
        a = _tiled()
        plan = FaultPlan().transient_at_step("step1", every=1)
        policy = RetryPolicy(max_retries=2)
        with pytest.raises(ResilienceExhausted) as excinfo:
            parallel_tile_spgemm(a, a, workers=1, fault_plan=plan, policy=policy)
        assert isinstance(excinfo.value.__cause__, TransientKernelError)
        # The first attempt plus max_retries retries, then no other method.
        assert plan.num_fired == policy.max_retries + 1

    def test_backoff_is_exponential_and_charged(self):
        a = _tiled()
        clean = tile_spgemm(a, a)
        # A spec does not count an event an earlier spec fired on, so
        # three one-shot specs fail three attempts in a row.
        plan = FaultPlan()
        for _ in range(3):
            plan.transient_at_step("step1", at=1)
        policy = RetryPolicy(max_retries=3, backoff_base_s=0.5, backoff_factor=2.0, max_backoff_s=10.0)
        obs = make_obs()
        with obs_context(metrics=obs.metrics):
            res = parallel_tile_spgemm(a, a, workers=1, fault_plan=plan, policy=policy)
        assert res.stats["retries"] == 3 and res.stats["resplits"] == 0
        assert res.stats["shards"] == 1
        assert res.timer.seconds["backoff"] == pytest.approx(0.5 + 1.0 + 2.0)
        assert obs.metrics.counter_value("parallel_retries_total") == 3
        assert np.array_equal(res.c.val, clean.c.val)

    def test_zero_retries_exhaust_on_the_first_fault(self):
        a = _tiled()
        plan = FaultPlan().transient_at_step("step1", every=1)
        with pytest.raises(ResilienceExhausted):
            parallel_tile_spgemm(
                a, a, workers=1, fault_plan=plan, policy=RetryPolicy(max_retries=0)
            )
        assert plan.num_fired == 1

    def test_invalid_input_never_retried(self):
        a = _tiled(n=96)
        b = _tiled(n=64, seed=5)
        with pytest.raises(InvalidInputError):
            parallel_tile_spgemm(a, b, workers=1)


class TestSUMMACommFaults:
    def _operand(self):
        return random_csr(96, 96, 0.08, seed=23)

    def test_comm_failure_raises_without_retransmit(self):
        a = self._operand()
        plan = FaultPlan().comm_at_broadcast(1)
        with pytest.raises(CommFailure):
            summa_spgemm(a, a, ProcessGrid(2, 2, 16), fault_plan=plan)

    def test_retransmit_recovers_and_charges_comm(self):
        a = self._operand()
        grid = ProcessGrid(2, 2, 16)
        base = summa_spgemm(a, a, grid)
        plan = FaultPlan().comm_at_broadcast(3)
        res = summa_spgemm(a, a, grid, fault_plan=plan, max_retransmits=2)
        assert res.retransmits == 1
        assert res.comm_s.sum() > base.comm_s.sum()
        assert res.c.allclose(base.c)

    def test_repeated_loss_exhausts_retransmits(self):
        a = self._operand()
        plan = FaultPlan().inject("comm", "broadcast", every=1)
        with pytest.raises(CommFailure):
            summa_spgemm(a, a, ProcessGrid(2, 2, 16), fault_plan=plan, max_retransmits=3)
