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
:func:`~repro.runtime.chunked.chunked_tile_spgemm` and one-worker runs of
:func:`~repro.runtime.parallel.parallel_tile_spgemm` (the CLI's default)
run :func:`run_blocking` inline; pooled plans and
:func:`~repro.runtime.parallel.spgemm_batch` run it on a
:class:`ShardPool`; :class:`~repro.serve.SpGEMMService` awaits
:func:`run_async`.  One :class:`ShardRun` per multiply applies the
failure rules tabulated in ``docs/RESILIENCE.md``.

Telemetry follows one rule at every entry point.  Events — spans,
allocations, injected faults — are recorded where they happen, into the
run's own sinks: pool threads start with empty ambient contexts, so a
pooled range enters a context holding the run's tracer, metrics and
profiler (whenever any is live) and records on a worker track
(:meth:`repro.obs.trace.Tracer.track`).  A multiply's work record — its
algorithm counters and its workload profile — is made once, by
:meth:`ShardRun.stitch`, from the stitched result; ranges run
``tile_spgemm``'s pipeline without it.  Budgets and fault plans reach a
pooled range only through the explicit options.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ThreadPoolExecutor,
    wait,
)
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.tile_matrix import TileMatrix
from repro.core.tilespgemm import (
    TileSpGEMMResult,
    _record_work,
    _tile_spgemm,
    check_operands,
)
from repro.errors import (
    DeviceOOMError,
    InvalidInputError,
    ResilienceExhausted,
    TransientKernelError,
)
from repro.obs.context import current_obs, obs_context
from repro.obs.propagate import TraceContext, new_trace_id
from repro.runtime.chunked import batch_bounds, slice_tile_rows, stitch_results
from repro.runtime.policy import RetryPolicy, backoff_wait

__all__ = [
    "RECOVERABLE",
    "ShardRun",
    "ShardPool",
    "default_run_shard",
    "run_blocking",
    "run_async",
    "BrokenExecutor",
]

#: The faults a range recovers from; every other exception propagates.
RECOVERABLE = (DeviceOOMError, TransientKernelError, BrokenExecutor)

#: One range of tile rows and the transient retries it has used.
Item = Tuple[int, int, int]


# ----------------------------------------------------------------------
# The shard body
# ----------------------------------------------------------------------
def default_run_shard(a_shard: TileMatrix, b: TileMatrix, opts: Dict[str, object]):
    """One range's multiply: ``tile_spgemm``'s pipeline, without the work
    record (the stitch makes it), keeping empty tiles for the
    order-preserving stitch.  ``pairs``/``symbolic`` are dropped: the
    stitch never reads them, and they pin large intermediates."""
    res = _tile_spgemm(a_shard, b, keep_empty_tiles=True, **opts)
    res.pairs = None
    res.symbolic = None
    return res


def _pool_task(token, fn, *args):
    """Pool-side wrapper: skip the task if its request already died."""
    if token is not None:
        token.raise_if_set()  # the request died while this range queued
    return fn(*args)


# ----------------------------------------------------------------------
# The pool owner
# ----------------------------------------------------------------------
class ShardPool:
    """A thread pool of ``workers`` (>= 1) threads that can be replaced
    after it breaks.  Its threads share every operand by reference."""

    def __init__(self, workers: int) -> None:
        if int(workers) < 1:
            raise InvalidInputError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        #: Replacements so far; a range submitted to an older generation
        #: that fails with ``BrokenExecutor`` was lost with that pool.
        self.generation = 0
        self._pool = self._make()

    def _make(self) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-shard"
        )

    def submit(self, fn, *args, token=None) -> Future:
        """Schedule ``fn(*args)``; never raises (a broken pool yields a
        failed future, which the run's failure rules handle).  A set
        ``token`` skips the call."""
        try:
            return self._pool.submit(_pool_task, token, fn, *args)
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
    """The range queue, failure rules, recovery tallies and stitch of one multiply.

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
        Telemetry namespace, ``"parallel"`` for ``chunked_tile_spgemm``
        and ``parallel_tile_spgemm``, ``"serve"`` for the serve tier:
        ``<track>_resplits_total`` /
        ``_retries_total`` / ``_pool_replacements_total`` counters;
        inline, ``<track>.batch`` spans and ``<track>_batches_total``;
        on a pool, ``<track>.shard`` summary spans over
        ``<track>.workers`` worker spans.
    labels:
        Labels added to those counters.
    trace_id:
        The trace pooled ranges record under, with a ``TraceContext`` of
        this id (a fresh id when not given).
    root_span_id:
        The coordinator span pooled ranges link under.
    run_fn:
        Shard body ``(a_shard, b, opts) -> TileSpGEMMResult``; defaults
        to :func:`default_run_shard`.  Tests inject faulty bodies here.
    """

    def __init__(
        self,
        a: TileMatrix,
        b: TileMatrix,
        bounds: Optional[Sequence[int]] = None,
        policy: Optional[RetryPolicy] = None,
        *,
        name: str = "multiply",
        track: str,
        labels: Optional[Dict[str, str]] = None,
        trace_id: Optional[str] = None,
        root_span_id: str = "",
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
        self.trace_id = trace_id or new_trace_id()
        self.root_span_id = root_span_id
        self.results: Dict[int, TileSpGEMMResult] = {}
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
        fut = pool.submit(self._run_pooled, item, opts, self._submitted, token=token)
        self._submitted += 1
        return fut

    def _run(self, item: Item, opts):
        """The one range body, inline or pooled: ``(result, seconds)``."""
        r0, r1, _ = item
        start = time.perf_counter()
        res = self.run_fn(self.shard(r0, r1), self.b, opts)
        return res, time.perf_counter() - start

    def _run_pooled(self, item: Item, opts, k: int):
        """Run range ``k`` on a pool thread, under the run's own sinks:
        its events land there, with a ``<track>.shard`` span on
        ``(track, thread)`` over its worker spans on
        ``(<track>.workers, thread)``."""
        if not self.obs.enabled:
            return self._run(item, opts)
        r0, r1, _ = item
        tracer = self.obs.tracer
        worker = threading.current_thread().name
        span_id = f"{self.root_span_id}/shard{k}"
        with obs_context(
            tracer=tracer,
            metrics=self.obs.metrics,
            profile=self.obs.profile,
            trace_ctx=TraceContext(self.trace_id, span_id),
        ), tracer.span(
            f"shard [{r0}, {r1})",
            cat=f"{self.track}.shard",
            pid=self.track,
            tid=worker,
            tile_rows=[r0, r1],
            trace_id=self.trace_id,
            span_id=span_id,
            parent_span_id=self.root_span_id,
        ), tracer.track(f"{self.track}.workers", worker, self.trace_id, span_id):
            return self._run(item, opts)

    def run_inline(self, item: Item, opts):
        """Run one range on the calling thread, under its ambient context.

        A range short of the whole matrix is a batch: it gets a
        ``<track>.batch`` span and counts in ``<track>_batches_total``.
        """
        r0, r1, _ = item
        if (r0, r1) == self.whole:
            return self._run(item, opts)
        with self.obs.tracer.span(
            f"batch [{r0}, {r1})", cat=f"{self.track}.batch", tile_rows=[r0, r1]
        ):
            out = self._run(item, opts)
        self.obs.metrics.inc(f"{self.track}_batches_total")
        return out

    def done(self, item: Item, out) -> None:
        """Record a completed range."""
        res, seconds = out
        self.results[item[0]] = res
        self.shards_run += 1
        self.shard_seconds += seconds

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
            if r1 - r0 <= 1:
                raise ResilienceExhausted(
                    f"{where} are over budget and cannot split further"
                ) from exc
            mid = r0 + int(batch_bounds(r1 - r0, 2)[1])
            self.queue.extend(((r0, mid, 0), (mid, r1, 0)))
            self.pieces += 1
            self.resplits += 1
            self._note("resplits")
            return 0.0
        if isinstance(exc, TransientKernelError):
            if retries >= self.policy.max_retries:
                raise ResilienceExhausted(
                    f"{where} still failing after {retries} retries"
                ) from exc
            wait_s = backoff_wait(self.policy, retries)
            self.retries += 1
            self.backoff_s += wait_s
            self.queue.append((r0, r1, retries + 1))
            self._note("retries")
            return wait_s
        # BrokenExecutor.  A range submitted before the last replacement
        # was lost with the old pool: rerun it, the break is handled.
        if pool is None or generation == pool.generation:
            if self.pool_replacements:
                raise ResilienceExhausted(
                    f"{where}: worker pool broken again after a replacement"
                ) from exc
            if pool is not None:
                pool.replace()
            self.pool_replacements += 1
            self._note("pool_replacements")
        self.queue.append(item)
        return 0.0

    def _note(self, counter: str) -> None:
        self.obs.metrics.inc(f"{self.track}_{counter}_total", **self.labels)

    # ------------------------------------------------------------ stitch
    def stitch(self, keep_empty_tiles: bool = True) -> TileSpGEMMResult:
        """The stitched product; records the run's recovery in
        ``stats["resplits"]`` / ``stats["retries"]``, charges the modelled
        backoff to its timer and makes the multiply's one work record.
        The run lets go of its pieces, so a caller that keeps the run
        (the service, for its response) keeps no per-range
        intermediates."""
        pieces = [self.results.pop(r0) for r0 in sorted(self.results)]
        res = stitch_results(pieces, self.a, self.b, keep_empty_tiles)
        res.stats.update(resplits=self.resplits, retries=self.retries)
        if self.backoff_s:
            res.timer.add("backoff", self.backoff_s)
        _record_work(self.obs, res)
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
    return [run.stitch(keep_empty_tiles) for run in runs]


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
    return run.stitch()
