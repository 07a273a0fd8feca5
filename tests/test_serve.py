"""Tests of the async serving tier (repro.serve) and its satellites.

Covers admission-control estimates and shed decisions, the bounded
queue's accounting, deadlines with injected clocks, per-tenant response
ordering, byte-identity of served products to the serial engine, the
``serve`` CLI exit-code contract, the typed configuration errors for
malformed environment values (exit code 10), and the opt-in real-backoff
path of :class:`~repro.runtime.policy.RetryPolicy` (seeded jitter,
injectable sleep — unit tests never actually wait).
"""

import asyncio
import json
import os

import numpy as np
import pytest

from repro.core import TileMatrix, tile_spgemm
from repro.errors import (
    EXIT_CONFIG,
    EXIT_DEADLINE,
    EXIT_INVALID_INPUT,
    EXIT_SHED,
    ConfigurationError,
    DeadlineExceededError,
    InvalidInputError,
    ServiceOverloadError,
    exit_code_for,
)
from repro.obs.context import make_obs, obs_context
from repro.runtime.policy import RetryPolicy, backoff_wait
from repro.serve import (
    AdmissionController,
    BoundedRequestQueue,
    CancelToken,
    Deadline,
    ServeRequest,
    SpGEMMService,
    estimate_cost,
    make_workload,
    run_closed_loop,
)
from repro.serve.cli import serve_main
from repro.serve.deadline import ShardCancelled
from tests.conftest import random_csr


def _pair(seed=21, n=96, density=0.06):
    return random_csr(n, n, density, seed=seed), random_csr(n, n, density, seed=seed + 1)


def _serial_c(a, b):
    return tile_spgemm(
        TileMatrix.from_csr(a), TileMatrix.from_csr(b), keep_empty_tiles=True
    ).c


def _assert_same_product(got, a, b):
    ref = _serial_c(a, b)
    for field in ("tileptr", "tilecolidx", "tilennz", "rowidx", "colidx", "val"):
        np.testing.assert_array_equal(
            getattr(got, field), getattr(ref, field), err_msg=field
        )


# --------------------------------------------------------------- admission
class TestAdmission:
    def test_products_estimate_is_exact(self):
        a, b = _pair()
        est = estimate_cost(TileMatrix.from_csr(a), TileMatrix.from_csr(b))
        sa, sb = a.to_scipy(), b.to_scipy()
        row_nnz_b = np.diff(sb.indptr)
        expected = int(row_nnz_b[sa.indices].sum())
        assert est.products == expected
        assert est.flops == 2 * expected
        assert est.total_bytes == est.operand_bytes + est.c_upper_bytes

    def test_estimate_accepts_csr_and_tiled_mix(self):
        a, b = _pair(seed=31)
        tiled = estimate_cost(TileMatrix.from_csr(a), TileMatrix.from_csr(b))
        csr = estimate_cost(a, b)
        assert tiled.products == csr.products
        assert tiled.c_upper_bytes == csr.c_upper_bytes

    def test_memory_gate_sheds_with_typed_error(self):
        a, b = _pair()
        ctrl = AdmissionController(4, budget_bytes=1)
        with pytest.raises(ServiceOverloadError) as ei:
            ctrl.check_memory(estimate_cost(a, b))
        assert ei.value.reason == "memory_estimate"
        assert exit_code_for(ei.value) == EXIT_SHED

    def test_depth_gate_sheds(self):
        ctrl = AdmissionController(2)
        ctrl.check_depth(1)
        with pytest.raises(ServiceOverloadError) as ei:
            ctrl.check_depth(2)
        assert ei.value.reason == "queue_full"

    def test_headroom_admits_over_budget_bound(self):
        a, b = _pair()
        est = estimate_cost(a, b)
        tight = AdmissionController(4, budget_bytes=est.total_bytes - 1)
        with pytest.raises(ServiceOverloadError):
            tight.check_memory(est)
        AdmissionController(
            4, budget_bytes=est.total_bytes - 1, headroom=2.0
        ).check_memory(est)


# ------------------------------------------------------------------- queue
class TestQueue:
    def test_bound_and_high_water(self):
        async def run():
            q = BoundedRequestQueue(2)
            r = lambda k: ServeRequest(a=None, b=None, tenant="t", seq=k)
            assert q.try_put(r(0)) and q.try_put(r(1))
            assert not q.try_put(r(2))  # at the bound: fail fast
            assert q.depth == 2 and q.high_water == 2
            got = await q.get()
            assert got.seq == 0 and q.depth == 1
            assert q.high_water == 2  # the peak survives the drain

        asyncio.run(run())

    def test_per_tenant_depth_and_drain(self):
        async def run():
            q = BoundedRequestQueue(4)
            q.try_put(ServeRequest(a=None, b=None, tenant="x", seq=0))
            q.try_put(ServeRequest(a=None, b=None, tenant="x", seq=1))
            q.try_put(ServeRequest(a=None, b=None, tenant="y", seq=0))
            assert q.depth_of("x") == 2 and q.depth_of("y") == 1
            assert q.tenants() == ["x", "y"]
            drained = q.drain()
            assert [r.name for r in drained] == ["x#0", "x#1", "y#0"]
            assert q.depth == 0 and q.depth_of("x") == 0

        asyncio.run(run())


# ---------------------------------------------------------------- deadline
class TestDeadline:
    def test_injected_clock(self):
        now = [0.0]
        d = Deadline(1.5, clock=lambda: now[0])
        assert not d.expired() and d.remaining() == 1.5
        now[0] = 1.4
        d.check()  # still inside the budget
        now[0] = 1.6
        assert d.expired()
        with pytest.raises(DeadlineExceededError) as ei:
            d.check()
        assert exit_code_for(ei.value) == EXIT_DEADLINE

    def test_no_budget_never_expires(self):
        d = Deadline(None, clock=lambda: 1e9)
        assert d.remaining() is None and not d.expired()

    def test_cancel_token(self):
        token = CancelToken()
        token.raise_if_set()  # no-op while unset
        token.set()
        with pytest.raises(ShardCancelled):
            token.raise_if_set()


# ----------------------------------------------------------------- service
class TestService:
    def test_served_result_is_byte_identical_to_serial(self):
        a, b = _pair(seed=41)

        async def run():
            async with SpGEMMService(max_queue_depth=4, workers=2) as svc:
                return await svc.submit(a, b)

        resp = asyncio.run(run())
        assert resp.ok and resp.outcome == "served"
        _assert_same_product(resp.result_or_raise(), a, b)

    def test_sharded_request_still_byte_identical(self):
        a, b = _pair(seed=43, n=128)

        async def run():
            async with SpGEMMService(
                max_queue_depth=4, workers=2, initial_shards=4
            ) as svc:
                return await svc.submit(a, b)

        resp = asyncio.run(run())
        assert resp.shards_run == 4
        _assert_same_product(resp.result_or_raise(), a, b)

    def test_memory_admission_sheds_before_compute(self):
        a, b = _pair(seed=45)

        async def run():
            async with SpGEMMService(
                max_queue_depth=4, workers=1, admission_budget_bytes=1
            ) as svc:
                return await svc.submit(a, b)

        resp = asyncio.run(run())
        assert resp.outcome == "shed" and not resp.ok
        assert isinstance(resp.error, ServiceOverloadError)
        assert resp.error.reason == "memory_estimate"
        assert resp.shards_run == 0  # never touched the pool
        with pytest.raises(ServiceOverloadError):
            resp.result_or_raise()

    def test_queue_full_sheds_in_shed_mode(self):
        a, b = _pair(seed=47, n=64)

        async def run():
            async with SpGEMMService(
                max_queue_depth=1, workers=1, max_inflight=1
            ) as svc:
                burst = [
                    asyncio.ensure_future(svc.submit(a, b, backpressure="shed"))
                    for _ in range(8)
                ]
                return await asyncio.gather(*burst)

        responses = asyncio.run(run())
        outcomes = [r.outcome for r in responses]
        assert outcomes.count("served") >= 1
        assert outcomes.count("shed") >= 1
        assert all(o in ("served", "shed") for o in outcomes)

    def test_wait_backpressure_serves_everything(self):
        a, b = _pair(seed=49, n=64)

        async def run():
            async with SpGEMMService(max_queue_depth=2, workers=2) as svc:
                burst = [
                    asyncio.ensure_future(svc.submit(a, b, backpressure="wait"))
                    for _ in range(10)
                ]
                responses = await asyncio.gather(*burst)
                return responses, svc.queue_high_water, svc.queue_bound

        responses, high_water, bound = asyncio.run(run())
        assert all(r.ok for r in responses)
        assert high_water <= bound  # the bound held under backpressure

    def test_responses_resolve_in_submission_order_per_tenant(self):
        a, b = _pair(seed=51, n=64)
        completion_order = []

        async def run():
            async with SpGEMMService(max_queue_depth=16, workers=4) as svc:

                async def tracked(tenant, k):
                    resp = await svc.submit(a, b, tenant=tenant)
                    completion_order.append((tenant, resp.seq))
                    return resp

                await asyncio.gather(
                    *(tracked("alice", k) for k in range(4)),
                    *(tracked("bob", k) for k in range(4)),
                )

        asyncio.run(run())
        for tenant in ("alice", "bob"):
            seqs = [s for t, s in completion_order if t == tenant]
            assert seqs == sorted(seqs), f"{tenant} saw out-of-order responses"

    def test_dimension_mismatch_raises_not_responds(self):
        a = random_csr(64, 32, 0.1, seed=53)
        b = random_csr(64, 64, 0.1, seed=54)

        async def run():
            async with SpGEMMService(max_queue_depth=2, workers=1) as svc:
                with pytest.raises(InvalidInputError):
                    await svc.submit(a, b)

        asyncio.run(run())

    def test_submit_after_stop_raises(self):
        a, b = _pair(seed=55, n=64)

        async def run():
            svc = SpGEMMService(max_queue_depth=2, workers=1)
            await svc.start()
            await svc.stop()
            with pytest.raises(InvalidInputError):
                await svc.submit(a, b)

        asyncio.run(run())

    def test_non_graceful_stop_sheds_queue(self):
        a, b = _pair(seed=57, n=64)

        async def run():
            svc = SpGEMMService(max_queue_depth=8, workers=1, max_inflight=1)
            await svc.start()
            burst = [
                asyncio.ensure_future(svc.submit(a, b, backpressure="shed"))
                for _ in range(6)
            ]
            await asyncio.sleep(0)  # let submissions enqueue
            await svc.stop(drain=False)
            return await asyncio.gather(*burst)

        responses = asyncio.run(run())
        assert all(r.outcome in ("served", "shed") for r in responses)
        shutdown_shed = [
            r
            for r in responses
            if r.outcome == "shed" and r.error.reason == "shutdown"
        ]
        assert shutdown_shed, "queued requests should shed at shutdown"

    def test_metrics_account_for_every_request(self):
        a, b = _pair(seed=59, n=64)
        obs = make_obs(trace=True, metrics=True)

        async def run():
            with obs_context(tracer=obs.tracer, metrics=obs.metrics):
                async with SpGEMMService(
                    max_queue_depth=2, workers=1, max_inflight=1
                ) as svc:
                    burst = [
                        asyncio.ensure_future(
                            svc.submit(a, b, backpressure="shed")
                        )
                        for _ in range(6)
                    ]
                    return await asyncio.gather(*burst)

        responses = asyncio.run(run())
        snap = obs.metrics.snapshot()["counters"]
        submitted = sum(
            v for k, v in snap.items() if k.startswith("serve_requests_total")
        )
        outcomes = sum(
            v for k, v in snap.items() if k.startswith("serve_outcomes_total")
        )
        assert submitted == len(responses) == 6
        assert outcomes == submitted  # 100% accounting
        prom = obs.metrics.to_prometheus()
        assert "serve_requests_total" in prom and "serve_latency_seconds" in prom
        served_spans = [
            s for s in obs.tracer.spans if s.cat == "serve.request"
        ]
        assert len(served_spans) == 6  # one span per request, any outcome


# --------------------------------------------------------------- load tools
class TestLoadgen:
    def test_workload_is_deterministic(self):
        w1 = make_workload(4, n=64, seed=9)
        w2 = make_workload(4, n=64, seed=9)
        for (a1, _), (a2, _) in zip(w1, w2):
            np.testing.assert_array_equal(a1.val, a2.val)

    def test_closed_loop_report(self):
        async def run():
            async with SpGEMMService(max_queue_depth=8, workers=2) as svc:
                return await run_closed_loop(
                    svc, make_workload(6, n=64, seed=3), tenants=2
                )

        report = asyncio.run(run())
        assert report.submitted == 6 and report.served == 6
        d = report.to_dict()
        assert d["p50_ms"] <= d["p99_ms"]
        assert d["throughput_rps"] > 0
        assert "served" in report.summary()


# --------------------------------------------------------------------- CLI
class TestServeCLI:
    def test_run_all_served_exit_zero(self, capsys, tmp_path):
        metrics_out = tmp_path / "serve.prom"
        code = serve_main(
            [
                "run",
                "--requests", "6",
                "--tenants", "2",
                "--n", "64",
                "--workers", "2",
                "--metrics", str(metrics_out),
                "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["report"]["outcomes"]["served"] == 6
        prom = metrics_out.read_text()
        assert "serve_requests_total" in prom

    def test_shed_maps_to_exit_11(self, capsys):
        code = serve_main(
            [
                "run",
                "--requests", "4",
                "--n", "64",
                "--admission-budget", "1",
            ]
        )
        assert code == EXIT_SHED
        assert "shed" in capsys.readouterr().out

    def test_deadline_maps_to_exit_12(self, capsys):
        code = serve_main(
            [
                "run",
                "--requests", "3",
                "--n", "64",
                "--deadline", "1e-9",
            ]
        )
        assert code == EXIT_DEADLINE

    def test_zero_workers_is_invalid_input_exit_3(self, capsys):
        code = serve_main(["run", "--requests", "1", "--n", "64", "--workers", "0"])
        assert code == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:") and "workers must be >= 1" in err
        assert "Traceback" not in err

    def test_dispatch_through_main(self, capsys):
        from repro.cli import main

        code = main(["serve", "run", "--requests", "2", "--n", "64"])
        assert code == 0
        assert "serve run:" in capsys.readouterr().out


# ------------------------------------------- satellite: typed config errors
class TestConfigurationErrors:
    def test_malformed_workers_env(self, monkeypatch):
        from repro.runtime.parallel import ENV_WORKERS, resolve_workers

        monkeypatch.setenv(ENV_WORKERS, "three")
        with pytest.raises(ConfigurationError) as ei:
            resolve_workers(None)
        assert ENV_WORKERS in str(ei.value)
        assert exit_code_for(ei.value) == EXIT_CONFIG

    def test_negative_workers_env(self, monkeypatch):
        from repro.runtime.parallel import ENV_WORKERS, resolve_workers

        monkeypatch.setenv(ENV_WORKERS, "-2")
        with pytest.raises(ConfigurationError):
            resolve_workers(None)

    def test_malformed_executor_env(self, monkeypatch):
        from repro.runtime.parallel import ENV_EXECUTOR, resolve_executor

        monkeypatch.setenv(ENV_EXECUTOR, "fibers")
        with pytest.raises(ConfigurationError) as ei:
            resolve_executor(None)
        assert ENV_EXECUTOR in str(ei.value)

    def test_malformed_backend_env(self, monkeypatch):
        from repro.backend import ENV_BACKEND, resolve_backend

        monkeypatch.setenv(ENV_BACKEND, "no-such-backend")
        with pytest.raises(ConfigurationError) as ei:
            resolve_backend(None)
        assert exit_code_for(ei.value) == EXIT_CONFIG

    def test_explicit_argument_keeps_invalid_input_error(self):
        # A bad *argument* is a caller bug, not a configuration problem:
        # the error type (and exit code 3) must not change.
        from repro.runtime.parallel import resolve_workers

        with pytest.raises(InvalidInputError) as ei:
            resolve_workers(-1)
        assert not isinstance(ei.value, ConfigurationError)

    def test_config_error_is_invalid_input_subclass(self):
        # Exit-code specificity must not break isinstance-based handling.
        assert issubclass(ConfigurationError, InvalidInputError)


# ---------------------------------------------- satellite: real backoff opt-in
class TestRealBackoff:
    def test_backoff_wait_without_jitter_matches_ladder(self):
        p = RetryPolicy(backoff_base_s=0.1, backoff_factor=2.0, max_backoff_s=0.5)
        assert [backoff_wait(p, k) for k in range(4)] == [0.1, 0.2, 0.4, 0.5]

    def test_jitter_is_seeded_and_bounded(self):
        p = RetryPolicy(backoff_base_s=0.1, jitter_frac=0.25, jitter_seed=7)
        q = RetryPolicy(backoff_base_s=0.1, jitter_frac=0.25, jitter_seed=7)
        waits_p = [backoff_wait(p, k) for k in range(6)]
        waits_q = [backoff_wait(q, k) for k in range(6)]
        assert waits_p == waits_q  # same seed -> same schedule
        for k, w in enumerate(waits_p):
            base = backoff_wait(
                RetryPolicy(backoff_base_s=0.1, jitter_frac=0.0), k
            )
            assert abs(w - base) <= 0.25 * base + 1e-12
        other = [
            backoff_wait(
                RetryPolicy(backoff_base_s=0.1, jitter_frac=0.25, jitter_seed=8), k
            )
            for k in range(6)
        ]
        assert other != waits_p  # different seed -> different schedule

    def test_injected_sleep_receives_each_wait(self):
        from repro.runtime.policy import _backoff

        slept = []
        p = RetryPolicy(
            backoff_base_s=0.05, backoff_factor=2.0, sleep=slept.append
        )
        waits = [_backoff(p, k) for k in range(3)]
        assert slept == waits == [0.05, 0.1, 0.2]

    def test_default_policy_never_sleeps(self):
        # The modelled-only default: no sleep callable, waits are recorded
        # in reports but the test suite never blocks on them.
        assert RetryPolicy().sleep is None
