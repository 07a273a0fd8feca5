"""The shard engine: split tile rows, run, recover, stitch — once.

Tile row ``i`` of ``C`` depends only on tile row ``i`` of ``A`` (and all
of ``B``) across all three TileSpGEMM steps.  Any partition of ``A``'s
tile rows into contiguous ranges therefore multiplies independently and
stitches back byte-identically
(:func:`~repro.runtime.chunked.stitch_results`; the numeric phase chunks
its product stream at C-tile boundaries, so no tile's accumulation order
depends on the partition).  The same fact makes recovery local: a range
that blows its memory budget is halved and requeued — the progressive
re-allocation of Liu & Vinter (arXiv:1504.05022) — and only the lost
range of a failed or dead worker runs again.

Every execution entry point is a thin caller of this module:
:func:`~repro.runtime.chunked.chunked_tile_spgemm`, one-worker plans of
:func:`~repro.runtime.parallel.parallel_tile_spgemm` and the
``tilespgemm`` rung of :func:`~repro.runtime.policy.run_resilient` run
:func:`run_blocking` inline; pooled plans and
:func:`~repro.runtime.parallel.spgemm_batch` run it on a
:class:`ShardPool`; :class:`~repro.serve.SpGEMMService` awaits
:func:`run_async`.  One :class:`ShardRun` per multiply applies the
failure rules tabulated in ``docs/RESILIENCE.md``.

Pool workers start with empty ambient contexts, so budgets and fault
plans reach a shard only through the explicit options, and telemetry
comes home through :mod:`repro.obs.propagate`.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from contextlib import nullcontext
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.tile_matrix import TileMatrix
from repro.core.tilespgemm import TileSpGEMMResult, _record_obs_metrics, tile_spgemm
from repro.errors import (
    DeviceOOMError,
    InvalidInputError,
    ResilienceExhausted,
    TransientKernelError,
)
from repro.obs.context import current_obs
from repro.obs.profile import current_row_offset, profile_row_offset
from repro.obs.propagate import TraceContext, absorb_telemetry, run_with_worker_obs
from repro.runtime.chunked import batch_bounds, slice_tile_rows, stitch_results
from repro.runtime.policy import AttemptRecord, RetryPolicy, backoff_wait

__all__ = [
    "EXECUTORS",
    "RECOVERABLE",
    "check_operands",
    "ShardRun",
    "ShardPool",
    "default_run_shard",
    "run_blocking",
    "run_async",
    "BrokenExecutor",
]

EXECUTORS = ("thread", "process")

#: The faults a range recovers from; every other exception propagates.
RECOVERABLE = (DeviceOOMError, TransientKernelError, BrokenExecutor)

#: One range of tile rows and the transient retries it has used.
Item = Tuple[int, int, int]


# ----------------------------------------------------------------------
# The shard body
# ----------------------------------------------------------------------
def check_operands(a: TileMatrix, b: TileMatrix) -> None:
    """Reject operands no tile-row range of ``a @ b`` could multiply."""
    if a.tile_size != b.tile_size:
        raise InvalidInputError("A and B must use the same tile size")
    if a.shape[1] != b.shape[0]:
        raise InvalidInputError(
            f"dimension mismatch: A is {a.shape[0]}x{a.shape[1]}, "
            f"B is {b.shape[0]}x{b.shape[1]}"
        )


def default_run_shard(a_shard: TileMatrix, b: TileMatrix, opts: Dict[str, object]):
    """One range's multiply: ``tile_spgemm`` keeping empty tiles for the
    order-preserving stitch.  ``pairs``/``symbolic`` are dropped: the
    stitch never reads them, they pin large intermediates and dominate
    the pickling cost on a process pool."""
    res = tile_spgemm(a_shard, b, keep_empty_tiles=True, **opts)
    res.pairs = None
    res.symbolic = None
    return res


# Process workers of a pool dedicated to one B receive it (and the shard
# options) once, through the pool initializer.
_WORKER_B: Optional[TileMatrix] = None
_WORKER_OPTS: Dict[str, object] = {}


def _init_worker(b: TileMatrix, opts: Dict[str, object]) -> None:
    global _WORKER_B, _WORKER_OPTS
    _WORKER_B = b
    _WORKER_OPTS = opts


def _pool_task(run_fn, a_shard, b, opts, ctx, token=None):
    """Pool-side wrapper (module-level so a process pool can pickle it).

    Returns ``(result, start, seconds, telemetry)``; ``telemetry`` is
    ``None`` for an untraced range.
    """
    if token is not None:
        token.raise_if_set()  # the request died while this range queued
    if b is None:
        b, opts = _WORKER_B, _WORKER_OPTS
    start = time.perf_counter()
    res, telemetry = run_with_worker_obs(ctx, run_fn, a_shard, b, opts)
    return res, start, time.perf_counter() - start, telemetry


# ----------------------------------------------------------------------
# The pool owner
# ----------------------------------------------------------------------
class ShardPool:
    """A thread or process pool that can be replaced after it breaks.

    Parameters
    ----------
    workers:
        Pool size (>= 1).
    executor:
        ``"thread"`` or ``"process"``.
    mp_context:
        Optional :mod:`multiprocessing` context for the process pool.
    b, opts:
        Ship ``B`` and the shard options to each process worker once,
        through the initializer; tasks then carry only their ``A``
        range.  Leave ``None`` for a pool shared by several operands.
    """

    def __init__(
        self,
        workers: int,
        executor: str = "thread",
        mp_context=None,
        b: Optional[TileMatrix] = None,
        opts: Optional[Dict[str, object]] = None,
    ) -> None:
        if int(workers) < 1:
            raise InvalidInputError(f"workers must be >= 1, got {workers}")
        if executor not in EXECUTORS:
            raise InvalidInputError(
                f"executor must be one of {EXECUTORS}, got {executor!r}"
            )
        self.workers = int(workers)
        self.executor = executor
        self._mp_context = mp_context
        self._shipped = (b, opts) if executor == "process" and b is not None else None
        #: Replacements so far; a range submitted to an older generation
        #: that fails with ``BrokenExecutor`` was lost with that pool.
        self.generation = 0
        self._pool = self._make()

    def _make(self):
        if self.executor == "thread":
            return ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-shard"
            )
        init = {}
        if self._shipped is not None:
            init = {"initializer": _init_worker, "initargs": self._shipped}
        return ProcessPoolExecutor(
            max_workers=self.workers, mp_context=self._mp_context, **init
        )

    def submit(self, run_fn, a_shard, b, opts, ctx=None, token=None) -> Future:
        """Schedule one range; never raises (a broken pool yields a
        failed future, which the run's failure rules handle)."""
        if self._shipped is not None:
            b = opts = None
        if self.executor == "process":
            token = None  # a threading.Event cannot cross the boundary
        try:
            return self._pool.submit(_pool_task, run_fn, a_shard, b, opts, ctx, token)
        except BrokenExecutor as exc:
            fut: Future = Future()
            fut.set_exception(exc)
            return fut

    def replace(self) -> None:
        """Abandon the (presumed broken) pool and start a fresh one.

        Work already queued on the old pool still runs (or fails with
        it); only the new pool receives submissions.
        """
        old, self._pool = self._pool, self._make()
        self.generation += 1
        old.shutdown(wait=False)

    def shutdown(self, wait: bool = True) -> None:
        self._pool.shutdown(wait=wait, cancel_futures=not wait)

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


# ----------------------------------------------------------------------
# The range state machine
# ----------------------------------------------------------------------
class ShardRun:
    """The range queue, failure rules, attempt log and stitch of one multiply.

    Parameters
    ----------
    a, b:
        Tiled operands, checked by :func:`check_operands` before any
        range runs.
    bounds:
        Initial tile-row boundaries; ``None`` starts from one range
        covering every tile row.
    policy:
        The :class:`~repro.runtime.policy.RetryPolicy` whose
        ``max_retries``, backoff and ``sleep`` govern transient faults.
    name:
        Names the multiply in error messages (``"request t#3"``).
    track:
        Telemetry namespace: ``<track>_resplits_total`` /
        ``_retries_total`` / ``_pool_replacements_total`` counters and,
        on a pool, ``<track>.shard`` summary spans over
        ``<track>.workers`` worker spans.
    labels:
        Labels added to those counters and to the structured-log events.
    trace_id:
        Correlates the log events (default: the ambient trace, if any).
        Given explicitly, pooled ranges also travel with a
        ``TraceContext`` under it while a tracer or profiler is live.
    root_span_id, epoch_s:
        The coordinator span pooled ranges link under, and the absolute
        :func:`time.perf_counter` of the destination timeline's zero.
    run_fn:
        Shard body ``(a_shard, b, opts) -> TileSpGEMMResult``; defaults
        to :func:`default_run_shard`.  Tests inject faulty bodies here.
        Must be module-level (picklable) on a process pool.
    """

    def __init__(
        self,
        a: TileMatrix,
        b: TileMatrix,
        bounds: Optional[Sequence[int]] = None,
        policy: Optional[RetryPolicy] = None,
        *,
        name: str = "multiply",
        track: str = "chunked",
        labels: Optional[Dict[str, str]] = None,
        trace_id: Optional[str] = None,
        root_span_id: str = "",
        epoch_s: float = 0.0,
        run_fn: Optional[Callable] = None,
    ) -> None:
        check_operands(a, b)
        self.a, self.b = a, b
        self.whole = (0, a.num_tile_rows)
        if bounds is None:
            bounds = self.whole
        self.queue: deque = deque(
            (int(bounds[k]), int(bounds[k + 1]), 0) for k in range(len(bounds) - 1)
        )
        self.pieces = len(self.queue)  #: ranges the partition holds now
        self.policy = policy or RetryPolicy()
        self.name = name
        self.track = track
        self.labels = dict(labels or {})
        self.run_fn = run_fn or default_run_shard
        self.obs = current_obs()
        live = self.obs.tracer.enabled or self.obs.profile.enabled
        self._ship_ctx = trace_id is not None and live
        if trace_id is None:
            trace_id = getattr(self.obs.trace_ctx, "trace_id", None)
        self.trace_id = trace_id
        self.root_span_id = root_span_id
        self.epoch_s = epoch_s
        self.row_base = current_row_offset()
        self.results: Dict[int, TileSpGEMMResult] = {}
        #: One record per failed range attempt, in the order they failed.
        self.attempts: List[AttemptRecord] = []
        self.shards_run = 0  #: ranges that completed
        self.resplits = 0
        self.retries = 0
        self.pool_replacements = 0
        self.backoff_s = 0.0
        self.shard_seconds = 0.0
        self._submitted = 0

    # ------------------------------------------------------------ running
    def shard(self, r0: int, r1: int) -> TileMatrix:
        return self.a if (r0, r1) == self.whole else slice_tile_rows(self.a, r0, r1)

    def submit(self, pool: ShardPool, item: Item, opts, token=None) -> Future:
        r0, r1, _ = item
        ctx = None
        if self._ship_ctx:
            ctx = TraceContext(
                self.trace_id,
                parent_span_id=f"{self.root_span_id}/shard{self._submitted}",
                row_offset=self.row_base + r0,
            )
        self._submitted += 1
        return pool.submit(self.run_fn, self.shard(r0, r1), self.b, opts, ctx, token)

    def run_inline(self, item: Item, opts):
        """Run one range on the calling thread, under its ambient context.

        A range short of the whole matrix is a batch: it gets a
        ``chunked.batch`` span and counts in ``chunked_batches_total``.
        """
        r0, r1, _ = item
        batch = (r0, r1) != self.whole
        span = (
            self.obs.tracer.span(
                f"batch [{r0}, {r1})", cat="chunked.batch", tile_rows=[r0, r1]
            )
            if batch
            else nullcontext()
        )
        start = time.perf_counter()
        # Ranges are 0-based slices of A; rebase the workload profiler so
        # band attribution stays in whole-matrix coordinates.
        with span, profile_row_offset(self.row_base + r0):
            res = self.run_fn(self.shard(r0, r1), self.b, opts)
        if batch:
            self.obs.metrics.inc("chunked_batches_total")
        return res, start, time.perf_counter() - start, None

    def done(self, item: Item, out) -> None:
        """Record a completed range and merge what its worker recorded."""
        r0, r1, _ = item
        res, start, seconds, telemetry = out
        self.results[r0] = res
        self.shards_run += 1
        self.shard_seconds += seconds
        if telemetry is None:
            return
        ctx = telemetry.ctx
        tracer = self.obs.tracer
        tracer.add_complete(
            f"shard [{r0}, {r1})",
            max(start - self.epoch_s, 0.0),
            seconds,
            pid=self.track,
            tid=telemetry.worker,
            cat=f"{self.track}.shard",
            tile_rows=[r0, r1],
            trace_id=ctx.trace_id,
            span_id=ctx.parent_span_id,
            parent_span_id=self.root_span_id,
        )
        # Spans and the workload profile are recorded only worker-side,
        # so absorbing them is the one merge; counters stay worker-local
        # because the stitch records the merged run's counters once.
        absorb_telemetry(
            tracer,
            telemetry,
            epoch_s=self.epoch_s,
            profile=self.obs.profile,
            pid=f"{self.track}.workers",
        )

    # ------------------------------------------------------------ failure
    def fail(self, item: Item, exc: BaseException, pool=None, generation: int = 0) -> float:
        """Apply the failure rules to one range that raised a
        :data:`RECOVERABLE` fault (anything else is a caller bug the
        drivers let propagate at once).

        Requeues what can be recovered and returns the backoff wait
        (seconds, 0 for none) the driver owes before the requeued range
        may run; raises ``ResilienceExhausted`` for what cannot be.
        """
        r0, r1, retries = item
        where = f"{self.name}: tile rows [{r0}, {r1})"
        if isinstance(exc, DeviceOOMError):
            self._log(exc)
            if r1 - r0 <= 1:
                raise ResilienceExhausted(
                    f"{where} are over budget and cannot split further"
                ) from exc
            mid = r0 + int(batch_bounds(r1 - r0, 2)[1])
            self.queue.extend(((r0, mid, 0), (mid, r1, 0)))
            self.pieces += 1
            self.resplits += 1
            self._note(
                "shard_oom_resplit",
                "resplits",
                tile_rows=[r0, r1],
                requested_bytes=exc.requested_bytes,
                budget_bytes=exc.budget_bytes,
            )
            return 0.0
        if isinstance(exc, TransientKernelError):
            if retries >= self.policy.max_retries:
                self._log(exc)
                raise ResilienceExhausted(
                    f"{where} still failing after {retries} retries"
                ) from exc
            wait_s = backoff_wait(self.policy, retries)
            self._log(exc, wait_s)
            self.retries += 1
            self.backoff_s += wait_s
            self.queue.append((r0, r1, retries + 1))
            self._note(
                "shard_retry",
                "retries",
                tile_rows=[r0, r1],
                retry=retries + 1,
                backoff_s=wait_s,
                error=type(exc).__name__,
            )
            return wait_s
        # BrokenExecutor.  A range submitted before the last replacement
        # was lost with the old pool: rerun it, the break is handled.
        self._log(exc)
        if pool is None or generation == pool.generation:
            if self.pool_replacements:
                raise ResilienceExhausted(
                    f"{where}: worker pool broken again after a replacement"
                ) from exc
            if pool is not None:
                pool.replace()
            self.pool_replacements += 1
            self._note("pool_replaced", "pool_replacements", tile_rows=[r0, r1])
        self.queue.append(item)
        return 0.0

    def _log(self, exc: BaseException, backoff_s: float = 0.0) -> None:
        self.attempts.append(
            AttemptRecord(
                "tilespgemm",
                self.pieces,
                type(exc).__name__,
                error=str(exc),
                backoff_s=backoff_s,
            )
        )

    def _note(self, event: str, counter: str, **fields) -> None:
        self.obs.metrics.inc(f"{self.track}_{counter}_total", **self.labels)
        self.obs.log.emit(event, trace_id=self.trace_id, **self.labels, **fields)

    # ------------------------------------------------------------ stitch
    def stitch(self, keep_empty_tiles: bool = True, pooled: bool = False) -> TileSpGEMMResult:
        """The stitched product; charges the modelled backoff to its
        timer and, for a pooled run, records its counters once.  The run
        lets go of its pieces, so a caller that keeps the run (the
        service, for its response) keeps no per-range intermediates."""
        pieces = [self.results.pop(r0) for r0 in sorted(self.results)]
        res = stitch_results(pieces, self.a, self.b, keep_empty_tiles)
        if self.backoff_s:
            res.timer.add("backoff", self.backoff_s)
        if pooled and self.obs.enabled:
            _record_obs_metrics(self.obs.metrics, res.stats)
        return res


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
def run_blocking(
    runs: Sequence[ShardRun],
    opts: Dict[str, object],
    pool: Optional[ShardPool] = None,
    keep_empty_tiles: bool = True,
) -> List[TileSpGEMMResult]:
    """Drive ``runs`` to their stitched results, in input order.

    Without a pool each run's ranges execute inline, one after another;
    with one, every queued range of every run is in flight at once and
    the runs share the pool.  A transient retry's wait goes to
    ``policy.sleep`` when set, else it is only modelled (charged to the
    result's ``backoff`` phase).
    """
    if pool is None:
        for run in runs:
            while run.queue:
                item = run.queue.popleft()
                try:
                    out = run.run_inline(item, opts)
                except RECOVERABLE as exc:
                    _sleep(run, run.fail(item, exc))
                    continue
                run.done(item, out)
        return [run.stitch(keep_empty_tiles) for run in runs]

    inflight: Dict[Future, Tuple[ShardRun, Item, int]] = {}
    while inflight or any(run.queue for run in runs):
        for run in runs:
            while run.queue:
                item = run.queue.popleft()
                inflight[run.submit(pool, item, opts)] = (run, item, pool.generation)
        finished, _ = wait(inflight, return_when=FIRST_COMPLETED)
        for fut in finished:
            run, item, generation = inflight.pop(fut)
            try:
                out = fut.result()
            except RECOVERABLE as exc:
                _sleep(run, run.fail(item, exc, pool, generation))
                continue
            run.done(item, out)
    return [run.stitch(keep_empty_tiles, pooled=True) for run in runs]


def _sleep(run: ShardRun, wait_s: float) -> None:
    if wait_s and run.policy.sleep is not None:
        run.policy.sleep(wait_s)


async def run_async(
    run: ShardRun,
    pool: ShardPool,
    opts: Dict[str, object],
    deadline=None,
    token=None,
    sleep=asyncio.sleep,
) -> TileSpGEMMResult:
    """Drive one run on ``pool`` from an event loop.

    Transient-retry waits are ``await``\\ ed through ``sleep``, never
    slept.  ``deadline`` (``check()`` / ``remaining()``, see
    :class:`~repro.serve.deadline.Deadline`) bounds every wait; on expiry
    — or any other exit — ``token`` (``set()``) stops ranges still
    queued on the pool, the in-flight futures are collected, and the
    error propagates.
    """
    inflight: Dict[asyncio.Future, Tuple[Item, int]] = {}
    try:
        while run.queue or inflight:
            if deadline is not None:
                deadline.check()
            while run.queue:
                item = run.queue.popleft()
                fut = asyncio.wrap_future(run.submit(pool, item, opts, token))
                inflight[fut] = (item, pool.generation)
            finished, _ = await asyncio.wait(
                set(inflight),
                timeout=None if deadline is None else deadline.remaining(),
                return_when=asyncio.FIRST_COMPLETED,
            )
            for fut in finished:
                item, generation = inflight.pop(fut)
                try:
                    out = fut.result()
                except RECOVERABLE as exc:
                    wait_s = run.fail(item, exc, pool, generation)
                    if wait_s:
                        await sleep(wait_s)
                    continue
                run.done(item, out)
    except BaseException:
        if token is not None:
            token.set()
        if inflight:
            await asyncio.gather(*inflight, return_exceptions=True)
        raise
    return run.stitch(pooled=True)
