"""The asyncio SpGEMM service: admission, deadlines, recovery, ordering.

:class:`SpGEMMService` is the "millions of users" front door over the
engines the earlier layers built: many clients share one resident
operand set (the process-wide :class:`~repro.runtime.tilecache.TileCache`)
while every request keeps its own isolation — its own memory budget, its
own deadline, its own fault plan, its own recovery state.

The life of a request::

    submit ──▶ admission ──▶ bounded queue ──▶ shard engine ──▶ response
                 │ shed                          (async driver)
                 ▼
              response (typed error)

**Graceful degradation, not serialisation.**  Each request is one run of
the shard engine's async driver (:func:`repro.runtime.shards.run_async`)
on the service's pool, under the failure rules every entry point shares
(``docs/RESILIENCE.md``): a shard that blows its per-request budget is
halved and both halves are *requeued to the pool*, a transient fault
retries after an **awaited** backoff, a broken pool is replaced once,
and a deadline cancels the request.  Because the stitch is
order-preserving and the numeric phase chunks at C-tile boundaries, the
served product is byte-identical to a serial ``tile_spgemm`` run no
matter how many re-splits it took.

**Ordering.**  Responses resolve in submission order per tenant: each
request chains on the previous one's gate, so a client iterating its
own submissions sees them complete in the order it sent them, while
different tenants never wait on each other (shed responses return
immediately — failing fast *is* the backpressure signal).

**Accounting.**  Every submitted request terminates in exactly one of
``served`` / ``shed`` / ``deadline`` / ``exhausted``; the
``serve_outcomes_total`` counters sum to ``serve_requests_total`` by
construction, and the whole story exports through the existing
Prometheus text format of :mod:`repro.obs.metrics`.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, Optional, Set, Tuple

from repro.backend import ConformanceTier, backend_tier, resolve_backend_name
from repro.core.tile_matrix import TileMatrix
from repro.errors import (
    DeadlineExceededError,
    InvalidInputError,
    ResilienceExhausted,
    ServiceOverloadError,
)
from repro.obs.context import current_obs
from repro.obs.propagate import new_trace_id
from repro.obs.slo import SLOPolicy, SLOTracker
from repro.runtime.chunked import batch_bounds
from repro.runtime.policy import RetryPolicy
from repro.runtime.shards import ShardPool, ShardRun, check_operands, run_async
from repro.runtime.tilecache import get_tile_cache
from repro.serve.admission import AdmissionController
from repro.serve.deadline import CancelToken, Deadline
from repro.serve.queue import BoundedRequestQueue
from repro.serve.request import (
    OUTCOME_SERVED,
    OUTCOME_SHED,
    ServeRequest,
    ServeResponse,
    outcome_for,
)

__all__ = ["SpGEMMService", "LATENCY_BUCKETS"]

#: Histogram bounds for ``serve_latency_seconds`` (log-ish spacing from
#: sub-millisecond cache hits to multi-second chunked recoveries).
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _copy_on_loop(c: TileMatrix) -> TileMatrix:
    """``c`` with its arrays copied by the calling (event-loop) thread.

    A one-shard product arrives as the pool thread allocated it.  Held by
    a client, it pins that thread's malloc arena between the step
    buffers each later shard allocates and frees there: on the
    serve-open-loop benchmark, peak RSS rose 13-15% (about 257 MB
    against 224 MB).  One copy on the loop keeps pool memory transient.
    """
    return TileMatrix(
        c.shape,
        c.tile_size,
        c.tileptr.copy(),
        c.tilecolidx.copy(),
        c.tilennz.copy(),
        c.rowptr.copy(),
        c.rowidx.copy(),
        c.colidx.copy(),
        c.val.copy(),
        c.mask.copy(),
        check=False,
    )


class SpGEMMService:
    """Async serving loop over the tiled SpGEMM engines.

    Parameters
    ----------
    max_queue_depth:
        Hard bound of the request queue; requests arriving at the bound
        are shed (or block, for ``backpressure="wait"`` submitters).
    workers:
        Workers in the compute pool (>= 1; anything else raises
        :class:`~repro.errors.InvalidInputError`).
    device:
        Optional :class:`~repro.gpu.device.DeviceModel`; its Table-1
        DRAM capacity becomes the admission budget and the default
        per-request budget unless overridden.
    admission_budget_bytes, admission_headroom:
        The memory gate (see
        :class:`~repro.serve.admission.AdmissionController`).  Budget
        defaults to the device's DRAM capacity; ``None`` with no device
        disables the gate.  Admitted requests reserve their priced
        bytes until their terminal response, and the gate sheds on the
        *aggregate*, so concurrent requests cannot jointly blow the
        budget.
    calibration:
        Optional loaded ``repro.calibration/1`` report; when present,
        admission prices requests from the row-sampled nnz(C) estimate
        (capped at the exact upper bound) instead of the worst-case
        bound alone.
    default_deadline_s, default_budget_bytes:
        Applied to requests that do not carry their own.
    initial_shards:
        Tile-row shards each request starts from (1 = whole multiply;
        OOM re-splits grow it on demand).
    retry_policy:
        A :class:`~repro.runtime.policy.RetryPolicy`; its
        ``max_retries`` and backoff/jitter knobs govern transient-fault
        recovery.  The waits are computed by
        :func:`~repro.runtime.policy.backoff_wait` and **awaited** on
        the event loop, never slept.
    max_inflight:
        Requests executing concurrently (default: ``workers``).
    executor:
        ``"thread"`` (default) or ``"process"`` — the kind of
        :class:`~repro.runtime.shards.ShardPool` the requests share.
        With ``"process"``, shard spans are still recorded where the
        work ran and shipped back (see :mod:`repro.obs.propagate`);
        ``run_fn`` must then be a module-level (picklable) function.
    mp_context:
        Optional :mod:`multiprocessing` context for the process pool
        (e.g. ``get_context("spawn")``).
    slo_policy:
        A :class:`~repro.obs.slo.SLOPolicy`; every terminal response
        updates the tenant's ``slo_attainment`` and
        ``slo_error_budget_burn_rate`` gauges (defaults apply when
        ``None``).
    backend:
        Kernel-backend spec resolved once to a registry name and
        forwarded to every shard.
    sleep:
        Async sleep injectable (default :func:`asyncio.sleep`); tests
        pass a recorder to keep backoff instant.
    clock:
        Monotonic clock injectable for queue/latency/deadline timing.
    run_fn:
        Shard-body injectable of every request's
        :class:`~repro.runtime.shards.ShardRun` (fault-path tests).
    """

    def __init__(
        self,
        *,
        max_queue_depth: int = 32,
        workers: int = 2,
        device=None,
        admission_budget_bytes: Optional[int] = None,
        admission_headroom: float = 1.0,
        calibration: Optional[Dict[str, object]] = None,
        default_deadline_s: Optional[float] = None,
        default_budget_bytes: Optional[int] = None,
        initial_shards: int = 1,
        retry_policy: Optional[RetryPolicy] = None,
        max_inflight: Optional[int] = None,
        executor: str = "thread",
        mp_context=None,
        slo_policy: Optional[SLOPolicy] = None,
        backend=None,
        sleep=None,
        clock=time.monotonic,
        run_fn=None,
    ) -> None:
        if initial_shards < 1:
            raise InvalidInputError(
                f"initial_shards must be >= 1, got {initial_shards}"
            )
        if admission_budget_bytes is None and device is not None:
            admission_budget_bytes = device.dram_capacity_bytes
        if default_budget_bytes is None and device is not None:
            default_budget_bytes = device.dram_capacity_bytes
        self.device = device
        self._admission = AdmissionController(
            max_queue_depth,
            admission_budget_bytes,
            admission_headroom,
            calibration=calibration,
        )
        self._queue = BoundedRequestQueue(max_queue_depth)
        self._pool = ShardPool(workers, executor, mp_context)
        self._run_fn = run_fn
        self._retry = retry_policy or RetryPolicy()
        self._initial_shards = int(initial_shards)
        self._default_deadline_s = default_deadline_s
        self._default_budget_bytes = default_budget_bytes
        self._backend_name = resolve_backend_name(backend)
        self._backend_tier = backend_tier(self._backend_name)
        self._sleep = sleep if sleep is not None else asyncio.sleep
        self._clock = clock
        self._cache = get_tile_cache()
        self._obs = current_obs()
        self.slo = SLOTracker(slo_policy or SLOPolicy(), metrics=self._obs.metrics)

        self._max_inflight = int(max_inflight or workers)
        self._running = False
        self._accepting = False
        self._dispatcher: Optional[asyncio.Task] = None
        self._inflight: Set[asyncio.Task] = set()
        self._sem: Optional[asyncio.Semaphore] = None
        self._tenant_seq: Dict[str, int] = {}
        self._tenant_tail: Dict[str, asyncio.Future] = {}
        self._epoch = 0.0
        self._describe_metrics()

    # ------------------------------------------------------------ lifecycle
    async def start(self) -> "SpGEMMService":
        """Start the dispatch loop; idempotent."""
        if self._running:
            return self
        self._sem = asyncio.Semaphore(self._max_inflight)
        self._running = True
        self._accepting = True
        self._epoch = time.perf_counter()
        self._dispatcher = asyncio.create_task(
            self._dispatch(), name="repro-serve-dispatch"
        )
        return self

    async def stop(self, drain: bool = True) -> None:
        """Stop the service.

        ``drain=True`` (graceful) refuses new submissions, serves
        everything already queued or running, then shuts the pool down.
        ``drain=False`` sheds the queue (typed ``shutdown`` responses),
        lets in-flight requests finish, and shuts down.
        """
        if not self._running:
            return
        self._accepting = False
        if drain:
            await self._queue.join()
            while self._inflight:
                await asyncio.gather(
                    *list(self._inflight), return_exceptions=True
                )
        else:
            for req in self._queue.drain():
                self._finish_shed(
                    req,
                    ServiceOverloadError("shutdown", "service stopping"),
                    queued=True,
                )
            while self._inflight:
                await asyncio.gather(
                    *list(self._inflight), return_exceptions=True
                )
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        self._pool.shutdown(wait=True)
        self._running = False

    async def __aenter__(self) -> "SpGEMMService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop(drain=not any(exc))

    # ------------------------------------------------------------ submission
    async def submit(
        self,
        a,
        b,
        *,
        tenant: str = "default",
        deadline_s: Optional[float] = None,
        budget_bytes: Optional[int] = None,
        fault_plan=None,
        exact: bool = False,
        backpressure: str = "shed",
    ) -> ServeResponse:
        """Submit one multiply; resolves with its terminal response.

        Never raises for the service-level outcomes — shed, deadline
        expiry and exhaustion come back *inside* the response, carrying
        their typed error (``response.result_or_raise()`` re-raises).
        Raises :class:`~repro.errors.InvalidInputError` only for caller
        bugs: malformed operands or a stopped service.

        ``backpressure`` is the submitter's overload contract:
        ``"shed"`` (default) fails fast with a typed shed response when
        the queue is at its bound; ``"wait"`` blocks this coroutine
        until a slot frees — the submitter slows to the service's pace.

        ``exact=True`` declares the submitter needs exact-tier
        (byte-reproducible) values.  A service whose configured backend
        is fast-math sheds such requests at admission with reason
        ``"backend_tier"`` — the conformance guarantee is part of
        admission, never silently downgraded.
        """
        if not self._running or not self._accepting:
            raise InvalidInputError("service is not accepting requests")
        if backpressure not in ("shed", "wait"):
            raise InvalidInputError(
                f"backpressure must be 'shed' or 'wait', got {backpressure!r}"
            )
        a_t = self._cache.tile(a)
        b_t = self._cache.tile(b)
        check_operands(a_t, b_t)

        seq = self._tenant_seq.get(tenant, 0)
        self._tenant_seq[tenant] = seq + 1
        req = ServeRequest(
            a=a_t,
            b=b_t,
            tenant=tenant,
            seq=seq,
            deadline_s=(
                deadline_s if deadline_s is not None else self._default_deadline_s
            ),
            budget_bytes=(
                budget_bytes
                if budget_bytes is not None
                else self._default_budget_bytes
            ),
            fault_plan=fault_plan,
            exact=exact,
            trace_id=new_trace_id("req"),
            submitted_s=self._clock(),
        )
        metrics = self._obs.metrics
        metrics.inc("serve_requests_total", tenant=tenant)
        self._obs.log.emit(
            "request_submitted",
            trace_id=req.trace_id,
            tenant=tenant,
            seq=seq,
            deadline_s=req.deadline_s,
            budget_bytes=req.budget_bytes,
        )

        # Admission gate 0: the conformance tier.  An exact-mode
        # request against a fast-math service can never be satisfied,
        # so it sheds immediately in either backpressure mode (waiting
        # cannot change the service's backend).
        if req.exact and self._backend_tier is not ConformanceTier.EXACT:
            return self._finish_shed(
                req,
                ServiceOverloadError(
                    "backend_tier",
                    f"request requires exact-tier kernels but the service "
                    f"backend {self._backend_name!r} is declared "
                    f"{self._backend_tier.value!r}",
                ),
                queued=False,
            )

        # Admission gate 1: the memory estimate — this request alone,
        # and the aggregate of everything already admitted (reserved
        # bytes are released at the terminal response).  Waiting cannot
        # shrink an oversized request, so this sheds in either
        # backpressure mode.
        try:
            req.admitted_bytes = self._admission.admit_memory(
                self._admission.price(a_t, b_t)
            )
        except ServiceOverloadError as exc:
            return self._finish_shed(req, exc, queued=False)

        # Admission gate 2: queue depth.
        loop = asyncio.get_running_loop()
        req.done = loop.create_future()
        if backpressure == "wait":
            self._chain_order(req, loop)
            await self._queue.put(req)  # backpressure: blocks the submitter
        else:
            try:
                self._admission.check_depth(self._queue.depth)
            except ServiceOverloadError as exc:
                return self._finish_shed(req, exc, queued=False)
            self._chain_order(req, loop)
            if not self._queue.try_put(req):  # raced to the bound
                return self._finish_shed(
                    req,
                    ServiceOverloadError(
                        "queue_full",
                        f"queue at configured bound {self._queue.bound}",
                    ),
                    queued=False,
                )
        self._note_queue_depth(tenant)
        return await req.done

    def _chain_order(self, req: ServeRequest, loop) -> None:
        req.order_prev = self._tenant_tail.get(req.tenant)
        req.order_gate = loop.create_future()
        self._tenant_tail[req.tenant] = req.order_gate

    # ------------------------------------------------------------ dispatch
    async def _dispatch(self) -> None:
        while True:
            await self._sem.acquire()
            try:
                req = await self._queue.get()
            except asyncio.CancelledError:
                self._sem.release()
                raise
            task = asyncio.create_task(self._handle(req), name=f"serve-{req.name}")
            self._inflight.add(task)
            task.add_done_callback(self._on_handled)

    def _on_handled(self, task: asyncio.Task) -> None:
        self._inflight.discard(task)
        self._sem.release()
        if not task.cancelled() and task.exception() is not None:
            # _handle is supposed to be total; surface bugs loudly.
            raise task.exception()

    async def _handle(self, req: ServeRequest) -> None:
        start = self._clock()
        self._note_queue_depth(req.tenant)
        trace_t0 = time.perf_counter() - self._epoch
        self._obs.log.emit(
            "request_dequeued",
            trace_id=req.trace_id,
            tenant=req.tenant,
            seq=req.seq,
            queue_s=start - req.submitted_s,
        )
        deadline = Deadline(req.deadline_s, clock=self._clock)
        # The deadline clock started at submission, not at dequeue.
        deadline._start = req.submitted_s
        run = ShardRun(
            req.a,
            req.b,
            batch_bounds(req.a.num_tile_rows, self._initial_shards),
            self._retry,
            name=f"request {req.name}",
            track="serve",
            labels={"tenant": req.tenant},
            trace_id=req.trace_id,
            root_span_id=f"req:{req.trace_id}",
            epoch_s=self._epoch,
            run_fn=self._run_fn,
        )
        opts = {
            "budget_bytes": req.budget_bytes,
            "fault_plan": req.fault_plan,
            "backend": self._backend_name,
        }
        try:
            deadline.check()  # queued past the deadline: no compute at all
            res = await run_async(
                run, self._pool, opts, deadline, CancelToken(), self._sleep
            )
            c = _copy_on_loop(res.c)
            del res  # the pool-allocated original must not outlive _deliver
            self._obs.metrics.inc(
                "serve_shards_total", run.shards_run, tenant=req.tenant
            )
            outcome, error = OUTCOME_SERVED, None
        except (
            ServiceOverloadError,
            DeadlineExceededError,
            ResilienceExhausted,
        ) as exc:
            outcome, error, c = outcome_for(exc), exc, None
        except Exception as exc:  # engine bug: terminal, typed as exhausted
            wrapped = ResilienceExhausted(
                f"request {req.name} failed outside the recovery ladder: {exc}"
            )
            wrapped.__cause__ = exc
            outcome, error, c = outcome_for(wrapped), wrapped, None
        finally:
            self._release_admitted(req)
            self._queue.task_done()

        now = self._clock()
        resp = ServeResponse(
            tenant=req.tenant,
            seq=req.seq,
            outcome=outcome,
            c=c,
            error=error,
            trace_id=req.trace_id,
            latency_s=now - req.submitted_s,
            queue_s=start - req.submitted_s,
            shards_run=run.shards_run,
            resplits=run.resplits,
            retries=run.retries,
            pool_replacements=run.pool_replacements,
        )
        self._record_response(resp, trace_t0)
        await self._deliver(req, resp)

    async def _deliver(self, req: ServeRequest, resp: ServeResponse) -> None:
        """Resolve the response behind the per-tenant ordering gate."""
        try:
            if req.order_prev is not None:
                await req.order_prev
        finally:
            if req.done is not None and not req.done.done():
                req.done.set_result(resp)
            if req.order_gate is not None and not req.order_gate.done():
                req.order_gate.set_result(None)

    # ------------------------------------------------------------ accounting
    def _release_admitted(self, req: ServeRequest) -> None:
        """Return the request's admission reservation (idempotent)."""
        if req.admitted_bytes:
            self._admission.release_memory(req.admitted_bytes)
            req.admitted_bytes = 0

    def _finish_shed(
        self, req: ServeRequest, exc: ServiceOverloadError, queued: bool
    ) -> ServeResponse:
        """Terminal shed response (admission or shutdown), delivered
        immediately — failing fast is the backpressure signal."""
        self._release_admitted(req)
        now = self._clock()
        resp = ServeResponse(
            tenant=req.tenant,
            seq=req.seq,
            outcome=OUTCOME_SHED,
            error=exc,
            trace_id=req.trace_id,
            latency_s=now - req.submitted_s,
            queue_s=now - req.submitted_s if queued else 0.0,
        )
        self._obs.metrics.inc(
            "serve_shed_total", tenant=req.tenant, reason=exc.reason
        )
        self._obs.log.emit(
            "request_shed",
            trace_id=req.trace_id,
            tenant=req.tenant,
            seq=req.seq,
            reason=exc.reason,
            queued=queued,
        )
        self._record_response(resp, time.perf_counter() - self._epoch)
        if req.done is not None and not req.done.done():
            req.done.set_result(resp)
        if req.order_gate is not None and not req.order_gate.done():
            req.order_gate.set_result(None)
        return resp

    def _record_response(self, resp: ServeResponse, trace_t0: float) -> None:
        metrics = self._obs.metrics
        metrics.inc(
            "serve_outcomes_total", tenant=resp.tenant, outcome=resp.outcome
        )
        metrics.observe(
            "serve_latency_seconds",
            resp.latency_s,
            buckets=LATENCY_BUCKETS,
            tenant=resp.tenant,
        )
        self.slo.record(resp.tenant, resp.latency_s, resp.ok)
        self._obs.log.emit(
            "request_done",
            trace_id=resp.trace_id,
            tenant=resp.tenant,
            seq=resp.seq,
            outcome=resp.outcome,
            latency_s=resp.latency_s,
            queue_s=resp.queue_s,
            shards_run=resp.shards_run,
            resplits=resp.resplits,
            retries=resp.retries,
            error=type(resp.error).__name__ if resp.error else None,
        )
        if self._obs.enabled:
            self._obs.tracer.add_complete(
                f"request {resp.tenant}#{resp.seq}",
                trace_t0,
                max(resp.latency_s - resp.queue_s, 0.0),
                pid="serve",
                tid=resp.tenant,
                cat="serve.request",
                outcome=resp.outcome,
                queue_s=resp.queue_s,
                shards=resp.shards_run,
                resplits=resp.resplits,
                retries=resp.retries,
                trace_id=resp.trace_id,
                span_id=f"req:{resp.trace_id}",
                parent_span_id="",
            )

    def _note_queue_depth(self, tenant: str) -> None:
        metrics = self._obs.metrics
        metrics.set_gauge("serve_queue_depth", self._queue.depth)
        metrics.set_gauge(
            "serve_queue_depth", self._queue.depth_of(tenant), tenant=tenant
        )
        metrics.max_gauge("serve_queue_high_water", self._queue.high_water)

    def _describe_metrics(self) -> None:
        m = self._obs.metrics
        m.describe("serve_requests_total", "Requests submitted, by tenant")
        m.describe(
            "serve_outcomes_total",
            "Terminal request outcomes (served/shed/deadline/exhausted)",
        )
        m.describe("serve_shed_total", "Requests shed, by tenant and reason")
        m.describe("serve_queue_depth", "Current bounded-queue depth")
        m.describe(
            "serve_queue_high_water", "Highest queue depth observed"
        )
        m.describe(
            "serve_latency_seconds", "Submission-to-response latency"
        )
        m.describe(
            "serve_resplits_total",
            "Shards re-split after blowing their memory budget",
        )
        m.describe("serve_retries_total", "Transient-fault shard retries")
        m.describe(
            "serve_pool_replacements_total",
            "Worker pools replaced after breaking mid-shard",
        )
        m.describe("serve_shards_total", "Shards executed, by tenant")

    # ------------------------------------------------------------ queries
    @property
    def queue_depth(self) -> int:
        return self._queue.depth

    @property
    def queue_bound(self) -> int:
        return self._queue.bound

    @property
    def queue_high_water(self) -> int:
        return self._queue.high_water

    @property
    def running(self) -> bool:
        return self._running

    def varz(self) -> Dict[str, object]:
        """A JSON-able live status snapshot (the ``/varz`` endpoint body).

        Everything an operator glances at first: lifecycle flags, queue
        state, in-flight count, per-tenant request/outcome counters and
        the SLO report.  Values come straight from the live registry, so
        a mid-run snapshot accounts for every submission so far.
        """
        metrics = self._obs.metrics
        outcomes: Dict[str, Dict[str, float]] = {}
        for labels, value in metrics.counter_samples("serve_outcomes_total"):
            tenant = labels.get("tenant", "")
            outcomes.setdefault(tenant, {})[labels.get("outcome", "")] = value
        requests = {
            labels.get("tenant", ""): value
            for labels, value in metrics.counter_samples("serve_requests_total")
        }
        sheds: Dict[str, float] = {}
        for labels, value in metrics.counter_samples("serve_shed_total"):
            reason = labels.get("reason", "")
            sheds[reason] = sheds.get(reason, 0.0) + value
        out: Dict[str, object] = {
            "running": self._running,
            "accepting": self._accepting,
            "uptime_s": (
                time.perf_counter() - self._epoch if self._running else 0.0
            ),
            "workers": self._pool.workers,
            "executor": self._pool.executor,
            "backend": self._backend_name,
            "backend_tier": self._backend_tier.value,
            "pool_replacements": self._pool.generation,
            "queue": {
                "depth": self._queue.depth,
                "bound": self._queue.bound,
                "high_water": self._queue.high_water,
            },
            "inflight": len(self._inflight),
            "admission": {
                "budget_bytes": self._admission.budget_bytes,
                "headroom": self._admission.headroom,
                "inflight_bytes": self._admission.inflight_bytes,
                "calibrated": bool(self._admission.calibration),
            },
            "requests_total": requests,
            "outcomes_total": outcomes,
            "sheds_total": sheds,
            "slo": self.slo.report(),
            "tilecache": self._cache.stats(),
        }
        if getattr(self._obs.profile, "enabled", False):
            out["profile"] = self._obs.profile.summary()
        return out
