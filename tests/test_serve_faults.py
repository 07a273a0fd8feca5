"""Fault paths under the serving tier, ending in the chaos acceptance test.

Every recovery behaviour the service promises is pinned here with
deterministic injection: a shard that blows its budget is re-split along
``batch_bounds`` and requeued (never serialised) and the served product
stays byte-identical; transient faults retry with the policy's awaited
backoff schedule; a worker pool that breaks mid-shard is replaced and
only the lost shard re-runs; deadlines cancel cooperatively; one
tenant's fault plan never leaks into a sibling's request.

The chaos test at the bottom is the issue's acceptance criterion: 32+
concurrent requests with mixed fault injection, tight deadlines and an
undersized memory budget — every request must terminate with either a
byte-identical-to-serial result or a typed error, the queue must never
exceed its bound, and the Prometheus export must account for 100% of
submissions.
"""

import asyncio
import time

import numpy as np
import pytest

from repro.core import TileMatrix, tile_spgemm
from repro.errors import (
    DeadlineExceededError,
    ResilienceExhausted,
    ServiceOverloadError,
)
from repro.obs.context import make_obs, obs_context
from repro.runtime.faults import FaultPlan
from repro.runtime.policy import RetryPolicy, backoff_wait
from repro.runtime.shards import BrokenExecutor, default_run_shard
from repro.serve import OUTCOMES, SpGEMMService
from tests.conftest import random_csr


def _pair(seed=61, n=96, density=0.06):
    return random_csr(n, n, density, seed=seed), random_csr(n, n, density, seed=seed + 1)


def _serial_c(a, b):
    return tile_spgemm(
        TileMatrix.from_csr(a), TileMatrix.from_csr(b), keep_empty_tiles=True
    ).c


def _assert_same_product(got, ref):
    for field in ("tileptr", "tilecolidx", "tilennz", "rowidx", "colidx", "val"):
        np.testing.assert_array_equal(
            getattr(got, field), getattr(ref, field), err_msg=field
        )


def _faulty_run_fn(a_shard, b, opts):
    """Shard body honouring test-only markers stashed on the fault plan.

    ``_test_slow_s`` delays the shard (deadline tests); ``_test_breaks``
    raises :class:`BrokenExecutor` that many times (worker-death tests).
    Everything else delegates to the real body, so faults injected via
    the plan proper still flow through the engine.
    """
    plan = opts.get("fault_plan")
    if plan is not None:
        slow = getattr(plan, "_test_slow_s", 0.0)
        if slow:
            time.sleep(slow)
        breaks = getattr(plan, "_test_breaks", 0)
        if breaks:
            plan._test_breaks = breaks - 1
            raise BrokenExecutor("worker died mid-shard (injected)")
    return default_run_shard(a_shard, b, opts)


class TestOOMResplit:
    def test_injected_oom_resplits_and_stays_byte_identical(self):
        a, b = _pair(seed=63, n=128)
        plan = FaultPlan(seed=1).oom_at_alloc(at=1)

        async def run():
            async with SpGEMMService(max_queue_depth=4, workers=2) as svc:
                return await svc.submit(a, b, fault_plan=plan)

        resp = asyncio.run(run())
        assert resp.ok
        assert resp.resplits == 1  # the blown shard split in two...
        assert resp.shards_run == 2  # ...and both halves ran on the pool
        _assert_same_product(resp.result_or_raise(), _serial_c(a, b))

    def test_repeated_oom_keeps_splitting(self):
        a, b = _pair(seed=65, n=128)
        plan = FaultPlan(seed=2).oom_at_alloc(at=1).oom_at_alloc(at=2)

        async def run():
            async with SpGEMMService(max_queue_depth=4, workers=2) as svc:
                return await svc.submit(a, b, fault_plan=plan)

        resp = asyncio.run(run())
        assert resp.ok and resp.resplits == 2
        _assert_same_product(resp.result_or_raise(), _serial_c(a, b))

    def test_unsplittable_tile_row_exhausts(self):
        a, b = _pair(seed=67, n=64)
        plan = FaultPlan(seed=3).oom_at_alloc(every=1)  # every alloc OOMs

        async def run():
            async with SpGEMMService(max_queue_depth=4, workers=2) as svc:
                return await svc.submit(a, b, fault_plan=plan)

        resp = asyncio.run(run())
        assert resp.outcome == "exhausted"
        assert isinstance(resp.error, ResilienceExhausted)
        assert "cannot split further" in str(resp.error)

    def test_real_budget_oom_resplits_without_injection(self):
        a, b = _pair(seed=69, n=160, density=0.08)
        whole = tile_spgemm(
            TileMatrix.from_csr(a), TileMatrix.from_csr(b), keep_empty_tiles=True
        )
        # A budget below the whole run's peak but comfortably above one
        # tile row's needs: the first shard must blow it for real and the
        # re-split halves must fit.
        budget = int(whole.alloc.peak_bytes * 0.75)

        async def run():
            async with SpGEMMService(max_queue_depth=4, workers=2) as svc:
                return await svc.submit(a, b, budget_bytes=budget)

        resp = asyncio.run(run())
        assert resp.ok and resp.resplits >= 1
        _assert_same_product(resp.result_or_raise(), whole.c)


class TestTransientRetry:
    def test_transient_fault_retries_with_backoff_schedule(self):
        a, b = _pair(seed=71, n=96)
        plan = FaultPlan(seed=4).transient_at_step("step2", at=1)
        slept = []

        async def fake_sleep(s):
            slept.append(s)

        policy = RetryPolicy(
            backoff_base_s=0.25, backoff_factor=2.0, jitter_frac=0.5, jitter_seed=11
        )

        async def run():
            async with SpGEMMService(
                max_queue_depth=4, workers=2, retry_policy=policy, sleep=fake_sleep
            ) as svc:
                return await svc.submit(a, b, fault_plan=plan)

        resp = asyncio.run(run())
        assert resp.ok and resp.retries == 1
        # The awaited wait is exactly the policy's seeded schedule.
        assert slept == [backoff_wait(policy, 0)]
        _assert_same_product(resp.result_or_raise(), _serial_c(a, b))

    def test_retries_exhausted_terminates_typed(self):
        a, b = _pair(seed=73, n=64)
        plan = FaultPlan(seed=5).transient_at_step("step2", every=1)

        async def fake_sleep(s):
            pass

        async def run():
            async with SpGEMMService(
                max_queue_depth=4,
                workers=2,
                retry_policy=RetryPolicy(max_retries=2),
                sleep=fake_sleep,
            ) as svc:
                return await svc.submit(a, b, fault_plan=plan)

        resp = asyncio.run(run())
        assert resp.outcome == "exhausted"
        assert resp.retries == 2
        assert "still failing after 2 retries" in str(resp.error)


class TestWorkerDeath:
    """The shard engine's ``BrokenExecutor`` rule: replace the pool once
    per request and rerun only the lost shard; a second break exhausts."""

    def test_broken_pool_is_replaced_and_shard_rerun(self):
        a, b = _pair(seed=75, n=96)
        plan = FaultPlan(seed=6)
        plan._test_breaks = 1

        async def run():
            async with SpGEMMService(
                max_queue_depth=4, workers=2, run_fn=_faulty_run_fn
            ) as svc:
                resp = await svc.submit(a, b, fault_plan=plan)
                sibling = await svc.submit(a, b)  # pool must still work
                return resp, sibling, svc.varz()

        resp, sibling, varz = asyncio.run(run())
        assert resp.ok and resp.pool_replacements == 1
        assert resp.shards_run == 1  # only the lost shard ran again
        _assert_same_product(resp.result_or_raise(), _serial_c(a, b))
        assert sibling.ok and sibling.pool_replacements == 0
        assert varz["pool_replacements"] == 1

    def test_second_break_in_one_request_exhausts(self):
        a, b = _pair(seed=77, n=64)
        plan = FaultPlan(seed=7)
        plan._test_breaks = 2

        async def run():
            async with SpGEMMService(
                max_queue_depth=4, workers=2, run_fn=_faulty_run_fn
            ) as svc:
                return await svc.submit(a, b, fault_plan=plan)

        resp = asyncio.run(run())
        assert resp.outcome == "exhausted"
        assert resp.pool_replacements == 1
        assert "worker pool broken" in str(resp.error)
        assert isinstance(resp.error.__cause__, BrokenExecutor)


class TestDeadlines:
    def test_slow_shard_expires_and_is_cancelled(self):
        a, b = _pair(seed=79, n=96)
        plan = FaultPlan(seed=8)
        plan._test_slow_s = 0.2

        async def run():
            async with SpGEMMService(
                max_queue_depth=4, workers=2, run_fn=_faulty_run_fn
            ) as svc:
                t0 = time.perf_counter()
                resp = await svc.submit(a, b, fault_plan=plan, deadline_s=0.05)
                waited = time.perf_counter() - t0
                return resp, waited

        resp, waited = asyncio.run(run())
        assert resp.outcome == "deadline"
        assert isinstance(resp.error, DeadlineExceededError)
        assert resp.error.deadline_s == pytest.approx(0.05)

    def test_queued_past_deadline_never_computes(self):
        a, b = _pair(seed=81, n=96)
        slow_plan = FaultPlan(seed=9)
        slow_plan._test_slow_s = 0.15

        async def run():
            async with SpGEMMService(
                max_queue_depth=8, workers=1, max_inflight=1, run_fn=_faulty_run_fn
            ) as svc:
                first = asyncio.ensure_future(
                    svc.submit(a, b, fault_plan=slow_plan)
                )
                await asyncio.sleep(0.01)  # first occupies the only worker
                second = asyncio.ensure_future(
                    svc.submit(a, b, deadline_s=0.02)
                )
                return await asyncio.gather(first, second)

        first, second = asyncio.run(run())
        assert first.ok
        assert second.outcome == "deadline"
        assert second.shards_run == 0  # expired in the queue: zero compute

    def test_sibling_requests_unaffected_by_expiry(self):
        a, b = _pair(seed=83, n=96)
        slow_plan = FaultPlan(seed=10)
        slow_plan._test_slow_s = 0.2

        async def run():
            async with SpGEMMService(
                max_queue_depth=8, workers=2, run_fn=_faulty_run_fn
            ) as svc:
                doomed = asyncio.ensure_future(
                    svc.submit(a, b, fault_plan=slow_plan, deadline_s=0.05)
                )
                healthy = [
                    asyncio.ensure_future(svc.submit(a, b, tenant="healthy"))
                    for _ in range(3)
                ]
                return await asyncio.gather(doomed, *healthy)

        doomed, *healthy = asyncio.run(run())
        assert doomed.outcome == "deadline"
        ref = _serial_c(a, b)
        for resp in healthy:
            assert resp.ok
            _assert_same_product(resp.result_or_raise(), ref)


class TestFaultIsolation:
    def test_one_tenants_plan_never_leaks_into_siblings(self):
        a, b = _pair(seed=85, n=96)
        plan = FaultPlan(seed=11).oom_at_alloc(at=1).transient_at_step(
            "step2", at=1
        )

        async def fake_sleep(s):
            pass

        async def run():
            async with SpGEMMService(
                max_queue_depth=8, workers=2, sleep=fake_sleep
            ) as svc:
                faulted = asyncio.ensure_future(
                    svc.submit(a, b, tenant="faulted", fault_plan=plan)
                )
                clean = [
                    asyncio.ensure_future(svc.submit(a, b, tenant="clean"))
                    for _ in range(4)
                ]
                return await asyncio.gather(faulted, *clean)

        faulted, *clean = asyncio.run(run())
        ref = _serial_c(a, b)
        assert faulted.ok and faulted.resplits >= 1
        for resp in clean:
            assert resp.ok
            assert resp.resplits == 0 and resp.retries == 0  # no leakage
            _assert_same_product(resp.result_or_raise(), ref)


class TestChaosAcceptance:
    """The issue's acceptance test: 32+ concurrent requests, mixed faults,
    tight deadlines, undersized budgets — all contracts hold at once."""

    def test_chaos(self):
        num_requests = 36
        pairs = [_pair(seed=100 + 2 * k, n=96) for k in range(4)]
        refs = [_serial_c(a, b) for a, b in pairs]
        obs = make_obs(trace=True, metrics=True)

        def spec(k):
            """Request k's flavour: a deterministic mix of trouble."""
            a, b = pairs[k % len(pairs)]
            kind = k % 6
            deadline = None
            budget = None
            plan = None
            backpressure = "wait"
            if kind == 1:  # injected OOM: must re-split and serve
                plan = FaultPlan(seed=200 + k).oom_at_alloc(at=1)
            elif kind == 2:  # transient fault: must retry and serve
                plan = FaultPlan(seed=300 + k).transient_at_step("step2", at=1)
            elif kind == 3:  # tight deadline: deadline or served, never hangs
                deadline = 0.002
            elif kind == 4:  # hopeless budget: exhausted, never wrong
                plan = FaultPlan(seed=400 + k).oom_at_alloc(every=1)
            elif kind == 5:  # fail-fast submitter against the bounded queue
                backpressure = "shed"
            return a, b, plan, deadline, budget, backpressure, k % len(pairs)

        async def fake_sleep(s):
            await asyncio.sleep(0)

        async def run():
            with obs_context(tracer=obs.tracer, metrics=obs.metrics):
                svc = SpGEMMService(
                    max_queue_depth=8,
                    workers=4,
                    retry_policy=RetryPolicy(
                        max_retries=2, jitter_frac=0.3, jitter_seed=17
                    ),
                    sleep=fake_sleep,
                )
                async with svc:
                    tasks = []
                    for k in range(num_requests):
                        a, b, plan, deadline, budget, bp, ref_idx = spec(k)
                        tasks.append(
                            asyncio.ensure_future(
                                svc.submit(
                                    a,
                                    b,
                                    tenant=f"tenant{k % 3}",
                                    fault_plan=plan,
                                    deadline_s=deadline,
                                    budget_bytes=budget,
                                    backpressure=bp,
                                )
                            )
                        )
                    responses = await asyncio.gather(*tasks)
                    return responses, svc.queue_high_water, svc.queue_bound

        responses, high_water, bound = asyncio.run(run())

        # 1. Every request terminated, each with a typed outcome.
        assert len(responses) == num_requests
        for resp in responses:
            assert resp.outcome in OUTCOMES
            if not resp.ok:
                assert isinstance(
                    resp.error,
                    (
                        ServiceOverloadError,
                        DeadlineExceededError,
                        ResilienceExhausted,
                    ),
                )

        # 2. Served results are byte-identical to the serial engine.
        for k, resp in enumerate(responses):
            if resp.ok:
                _assert_same_product(resp.c, refs[k % len(pairs)])

        # 3. The flavours got the outcomes they were built to provoke.
        outcomes = [r.outcome for r in responses]
        oom_served = [responses[k] for k in range(num_requests) if k % 6 == 1]
        assert all(r.ok and r.resplits >= 1 for r in oom_served)
        transient_served = [
            responses[k] for k in range(num_requests) if k % 6 == 2
        ]
        assert all(r.ok and r.retries >= 1 for r in transient_served)
        hopeless = [responses[k] for k in range(num_requests) if k % 6 == 4]
        assert all(r.outcome == "exhausted" for r in hopeless)
        tight = [responses[k] for k in range(num_requests) if k % 6 == 3]
        assert all(r.outcome in ("served", "deadline") for r in tight)

        # 4. The queue never exceeded its bound.
        assert high_water <= bound

        # 5. Prometheus accounting: outcomes sum to submissions, and the
        #    export carries the serving metric families.
        snap = obs.metrics.snapshot()["counters"]
        submitted = sum(
            v for k, v in snap.items() if k.startswith("serve_requests_total")
        )
        finished = sum(
            v for k, v in snap.items() if k.startswith("serve_outcomes_total")
        )
        assert submitted == num_requests
        assert finished == num_requests  # 100% of submissions accounted
        prom = obs.metrics.to_prometheus()
        for family in (
            "serve_requests_total",
            "serve_outcomes_total",
            "serve_latency_seconds",
            "serve_queue_high_water",
        ):
            assert family in prom
        # One trace span per request, whatever its fate.
        spans = [s for s in obs.tracer.spans if s.cat == "serve.request"]
        assert len(spans) == num_requests
