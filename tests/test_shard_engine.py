"""One shard engine behind every entry point: same fault, same recovery.

Every edge case of the shared corpus runs through the four entry points
— ``chunked_tile_spgemm``, the thread pool of ``parallel_tile_spgemm``,
its one-worker inline run (the CLI's default) and
``SpGEMMService.submit`` — under the same fault plans.  Each run ends in one of two outcomes: bytes
identical to serial ``tile_spgemm``, or ``ResilienceExhausted`` with the
injected fault class in its cause chain.

Which outcome is decided by the failure rules alone.  A fault that keeps
firing, or no fault, gives the same outcome at every entry point.  A
one-shot fault is consumed by whichever tile-row range runs first, so a
one-shot OOM is recoverable exactly when that range holds more than one
tile row — a property of the starting partition, not of the entry point.

The state machine's rules are also unit-tested directly, with a fake
pool and a faulty shard body.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core import TileMatrix, tile_spgemm
from repro.errors import (
    DeviceOOMError,
    InvalidInputError,
    ResilienceExhausted,
    TransientKernelError,
)
from repro.formats.csr import CSRMatrix
from repro.runtime.chunked import (
    batch_bounds,
    chunked_tile_spgemm,
    slice_tile_rows,
    stitch_results,
)
from repro.runtime.faults import FaultPlan
from repro.runtime.parallel import parallel_tile_spgemm
from repro.runtime.policy import RetryPolicy, backoff_wait
from repro.runtime.shards import (
    BrokenExecutor,
    ShardPool,
    ShardRun,
    default_run_shard,
    run_blocking,
)
from repro.serve import SpGEMMService
from tests.corpus import CORPUS, corpus_names
from tests.test_parallel_runtime import assert_bytes_identical

#: name -> (fault plan factory, the fault class an exhausted run chains).
PLANS = {
    "none": (lambda: None, None),
    "oom_once": (lambda: FaultPlan(seed=1).oom_at_alloc(at=1), DeviceOOMError),
    "transient_once": (
        lambda: FaultPlan(seed=2).transient_at_step("step2", at=1),
        TransientKernelError,
    ),
    "oom_always": (lambda: FaultPlan(seed=3).oom_at_alloc(every=1), DeviceOOMError),
}


def _chunked(a, b, plan):
    return chunked_tile_spgemm(a, b, num_batches=2, fault_plan=plan).c


def _parallel(a, b, plan):
    return parallel_tile_spgemm(a, b, workers=2, fault_plan=plan).c


def _serial(a, b, plan):
    return parallel_tile_spgemm(a, b, workers=1, fault_plan=plan).c


def _served(a, b, plan):
    async def go():
        async with SpGEMMService(max_queue_depth=2, workers=2) as svc:
            return await svc.submit(a, b, fault_plan=plan)

    return asyncio.run(go()).result_or_raise()


#: entry point -> (call, tile-row shards it starts from, workers).
ENTRIES = {
    "chunked": (_chunked, 2, 1),
    "parallel": (_parallel, 4, 2),
    "serial": (_serial, 1, 1),
    "served": (_served, 1, 2),
}


def _first_range_rows(num_tile_rows: int, shards: int, workers: int) -> int:
    """Tile rows of the range that consumes a one-shot fault: the first
    range an inline driver runs, or any of the first ``workers`` ranges a
    pool starts at once (which the corpus keeps equal in size)."""
    sizes = np.diff(batch_bounds(num_tile_rows, shards))[:workers]
    assert sizes.min() == sizes.max(), "ambiguous first range"
    return int(sizes[0])


def _expected(plan_name: str, first_rows: int) -> str:
    if plan_name == "oom_always" or (plan_name == "oom_once" and first_rows <= 1):
        return "exhausted"
    return "served"


def _cause_chain(exc: BaseException):
    while exc is not None:
        yield exc
        exc = exc.__cause__


@pytest.mark.parametrize("plan_name", list(PLANS))
@pytest.mark.parametrize("case_name", corpus_names(exclude_tags=("fp16",)))
def test_every_entry_point_applies_the_same_rules(case_name, plan_name):
    case = CORPUS[case_name]
    a, b = TileMatrix.from_csr(case.a), TileMatrix.from_csr(case.b)
    ref = tile_spgemm(a, b).c
    make_plan, fault = PLANS[plan_name]
    outcomes, expected = {}, {}
    for entry, (call, shards, workers) in ENTRIES.items():
        expected[entry] = _expected(
            plan_name, _first_range_rows(a.num_tile_rows, shards, workers)
        )
        try:
            c = call(a, b, make_plan())
        except ResilienceExhausted as exc:
            assert any(isinstance(e, fault) for e in _cause_chain(exc)), (entry, exc)
            outcomes[entry] = "exhausted"
        else:
            assert_bytes_identical(ref, c)
            outcomes[entry] = "served"
    assert outcomes == expected
    if plan_name != "oom_once":
        assert len(set(outcomes.values())) == 1


# ----------------------------------------------------------------------
# A budgeted pool run: the fault the old pool loop could not recover
# ----------------------------------------------------------------------
def _top_heavy(n=128, seed=7):
    """Two dense tile rows on top of a sparse matrix: the first of four
    shards carries most of C, so it alone blows a 0.6x-peak budget."""
    rng = np.random.default_rng(seed)
    d = np.where(rng.random((n, n)) < 0.005, rng.uniform(0.5, 1.5, (n, n)), 0.0)
    top = rng.random((32, n)) < 0.5
    d[:32] = np.where(top, rng.uniform(0.5, 1.5, (32, n)), 0.0)
    return TileMatrix.from_csr(CSRMatrix.from_dense(d))


def test_budgeted_parallel_run_resplits_and_is_byte_identical():
    a = _top_heavy()
    clean = tile_spgemm(a, a)
    budget = int(clean.alloc.peak_bytes * 0.6)
    # The first default shard of a 2-worker run does not fit on its own:
    # a pool that does not re-split dies with DeviceOOMError here.
    first = batch_bounds(a.num_tile_rows, 4)
    with pytest.raises(DeviceOOMError):
        tile_spgemm(slice_tile_rows(a, 0, int(first[1])), a, budget_bytes=budget)
    res = parallel_tile_spgemm(a, a, workers=2, budget_bytes=budget)
    assert_bytes_identical(clean.c, res.c)
    assert res.stats["shards"] > 4  # the blown shard was halved
    assert res.stats["resplits"] == res.stats["shards"] - 4
    assert res.stats["workers"] == 2  # stayed on the pool
    assert res.alloc.peak_bytes <= budget


# ----------------------------------------------------------------------
# The state machine, unit by unit
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def operands():
    a = TileMatrix.from_csr(CORPUS["moderate_random"].a)
    b = TileMatrix.from_csr(CORPUS["moderate_random"].b)
    return a, b


class _FakePool:
    """Just the generation counter the ``BrokenExecutor`` rule reads."""

    def __init__(self):
        self.generation = 0

    def replace(self):
        self.generation += 1


class _BreaksFirst:
    """Shard body raising ``BrokenExecutor`` on its first ``n`` calls."""

    def __init__(self, n):
        self.left = n

    def __call__(self, a_shard, b, opts):
        if self.left:
            self.left -= 1
            raise BrokenExecutor("worker died (injected)")
        return default_run_shard(a_shard, b, opts)


class TestStateMachine:
    def test_oom_halves_the_range(self, operands):
        run = ShardRun(*operands, bounds=[0, 5], track="parallel")
        run.queue.clear()
        assert run.fail((0, 5, 2), DeviceOOMError("val_C", 8, 0, 4)) == 0.0
        assert list(run.queue) == [(0, 3, 0), (3, 5, 0)]
        assert run.resplits == 1 and run.pieces == 2

    def test_one_tile_row_cannot_split(self, operands):
        run = ShardRun(*operands, track="parallel")
        oom = DeviceOOMError("val_C", 8, 0, 4)
        with pytest.raises(ResilienceExhausted, match="cannot split further") as ei:
            run.fail((2, 3, 0), oom)
        assert ei.value.__cause__ is oom

    def test_transient_retries_after_backoff_then_exhausts(self, operands):
        policy = RetryPolicy(max_retries=2, backoff_base_s=0.5)
        run = ShardRun(*operands, policy=policy, track="parallel")
        run.queue.clear()
        fault = TransientKernelError("step2")
        assert run.fail((0, 2, 0), fault) == backoff_wait(policy, 0)
        assert run.fail((0, 2, 1), fault) == backoff_wait(policy, 1)
        assert list(run.queue) == [(0, 2, 1), (0, 2, 2)]
        with pytest.raises(ResilienceExhausted, match="still failing after 2 retries"):
            run.fail((0, 2, 2), fault)
        assert run.retries == 2
        assert run.backoff_s == backoff_wait(policy, 0) + backoff_wait(policy, 1)

    @pytest.mark.parametrize("bug", [InvalidInputError("bad"), ValueError("bogus")])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_caller_bugs_raise_at_once(self, operands, bug, workers):
        calls = []

        def buggy(a_shard, b, opts):
            calls.append(1)
            raise bug

        run = ShardRun(*operands, bounds=[0, 3, 6], run_fn=buggy, track="parallel")
        with ShardPool(workers) as pool, pytest.raises(type(bug)):
            run_blocking([run], {}, pool if workers > 1 else None)
        assert run.retries == 0 and run.resplits == 0
        assert len(calls) <= 2  # no range ran twice

    def test_broken_pool_replaced_once_per_run(self, operands):
        run = ShardRun(*operands, bounds=[0, 1, 2, 3], track="parallel")
        run.queue.clear()
        pool = _FakePool()
        died = BrokenExecutor("pool died")
        run.fail((0, 1, 0), died, pool, generation=0)  # replaces the pool
        run.fail((1, 2, 0), died, pool, generation=0)  # lost with it: rerun
        assert pool.generation == 1 and run.pool_replacements == 1
        assert list(run.queue) == [(0, 1, 0), (1, 2, 0)]
        with pytest.raises(ResilienceExhausted, match="worker pool broken") as ei:
            run.fail((2, 3, 0), died, pool, generation=1)  # the new pool broke
        assert ei.value.__cause__ is died

    def test_broken_pool_reruns_only_lost_ranges(self, operands):
        a, b = operands
        run = ShardRun(
            a, b, batch_bounds(a.num_tile_rows, 2), run_fn=_BreaksFirst(1), track="parallel"
        )
        with ShardPool(2) as pool:
            (res,) = run_blocking([run], {}, pool)
        assert run.pool_replacements == 1 and pool.generation == 1
        assert run.shards_run == 2
        assert_bytes_identical(tile_spgemm(a, b).c, res.c)

    def test_second_break_exhausts(self, operands):
        run = ShardRun(*operands, run_fn=_BreaksFirst(2), track="parallel")
        with ShardPool(1) as pool:
            with pytest.raises(ResilienceExhausted, match="worker pool broken"):
                run_blocking([run], {}, pool)
            assert pool.generation == 1

    def test_blocking_driver_sleeps_through_the_policy(self, operands):
        a, b = operands
        slept = []
        policy = RetryPolicy(backoff_base_s=0.25, sleep=slept.append)
        run = ShardRun(a, b, policy=policy, track="parallel")
        plan = FaultPlan().transient_at_step("step3", at=1)
        (res,) = run_blocking([run], {"fault_plan": plan})
        assert slept == [backoff_wait(policy, 0)]
        assert res.timer.seconds["backoff"] == slept[0]
        assert (run.retries, run.resplits) == (1, 0)
        assert (res.stats["retries"], res.stats["resplits"]) == (1, 0)

    def test_operand_mismatch_is_rejected_up_front(self, operands):
        a, _ = operands
        with pytest.raises(InvalidInputError, match="dimension mismatch"):
            ShardRun(a, TileMatrix.from_csr(CORPUS["ragged_17x19"].a), track="parallel")

    def test_zero_workers_is_invalid_input(self):
        with pytest.raises(InvalidInputError, match="workers must be >= 1"):
            ShardPool(0)


def test_one_piece_stitch_is_the_piece_and_matches_two_pieces(operands):
    a, b = operands
    whole = default_run_shard(a, b, {})
    one = stitch_results([whole], a, b, keep_empty_tiles=True)
    assert one.c is whole.c  # returned as it is: no re-concatenation
    assert one.alloc is whole.alloc  # and no ledger replay
    bounds = batch_bounds(a.num_tile_rows, 2)
    halves = [
        default_run_shard(slice_tile_rows(a, int(bounds[k]), int(bounds[k + 1])), b, {})
        for k in range(2)
    ]
    two = stitch_results(halves, a, b, keep_empty_tiles=True)
    assert_bytes_identical(two.c, one.c)
    assert (one.stats["batches"], two.stats["batches"]) == (1, 2)
    dropped = stitch_results([whole], a, b, keep_empty_tiles=False)
    assert_bytes_identical(tile_spgemm(a, b, keep_empty_tiles=False).c, dropped.c)
