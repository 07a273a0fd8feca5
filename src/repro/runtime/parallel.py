"""Sharded parallel execution: TileSpGEMM on a worker pool.

The candidate-C-tile space shards exactly like it chunks: tile row ``i``
of ``C`` depends only on tile row ``i`` of ``A`` (and all of ``B``).
:func:`parallel_tile_spgemm` resolves the execution configuration — an
optional plan, the worker count, executor, shard boundaries and kernel
backend — and hands the multiply to the shard engine
(:mod:`repro.runtime.shards`): inline on one worker (the planner's
``"serial"`` and ``"chunked"`` modes), on a
:class:`~repro.runtime.shards.ShardPool` otherwise.
:func:`spgemm_batch` runs many multiplies as engine runs sharing one
pool.

**Determinism.**  The merged result is byte-identical to the serial run —
indices, values and tile structure.  Two properties make that true: the
stitch concatenates shard outputs in tile-row order, and the numeric
phase chunks its product stream at C-tile boundaries
(:func:`repro.core.step3.step3_numeric`), so each tile's accumulation
order is independent of how the tile-row space was partitioned — or
re-split after an OOM.  The test suite asserts exact equality of all
eight output arrays for both executors.

**Backends.**  The kernel-backend spec is resolved to a registry *name*
in the coordinator (covering the process default, which is module state
and does not survive ``spawn``) and forwarded inside the shard options;
each pool worker re-resolves the name through its own freshly-imported
registry (:mod:`repro.backend`).  A worker that runs with no explicit
spec falls back to ``REPRO_BACKEND`` from its inherited environment.
Every shard of a run therefore executes the same backend, and the
conformance suite pins the merged result against the serial ``numpy``
run per the backend's declared tier — sharding and stitching never add
error of their own because chunk boundaries align with C tile rows.

**Failure.**  A failing shard gets the engine's rules — an OOM halves
it, a transient fault retries it after backoff, a broken pool is
replaced once — and never reruns the whole matrix.  See
``docs/RESILIENCE.md``.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend import resolve_backend_name
from repro.core.tile_matrix import TileMatrix
from repro.core.tilespgemm import TileSpGEMMResult
from repro.errors import ConfigurationError, InvalidInputError
from repro.obs.context import current_obs
from repro.obs.propagate import new_trace_id
from repro.runtime.chunked import batch_bounds, validate_bounds
from repro.runtime.policy import RetryPolicy
from repro.runtime.shards import EXECUTORS, ShardPool, ShardRun, run_blocking
from repro.runtime.tilecache import get_tile_cache

__all__ = [
    "ENV_WORKERS",
    "ENV_EXECUTOR",
    "resolve_workers",
    "resolve_executor",
    "parallel_tile_spgemm",
    "spgemm_batch",
]

#: Environment knobs consulted when the caller passes ``None``.
ENV_WORKERS = "REPRO_WORKERS"
ENV_EXECUTOR = "REPRO_EXECUTOR"

#: Shards per worker: a little oversharding evens out load imbalance
#: between tile rows without shrinking shards into stitch overhead.
_SHARDS_PER_WORKER = 2


def resolve_workers(workers: Optional[int] = None) -> int:
    """The effective worker count: argument, else ``REPRO_WORKERS``, else 1.

    ``0`` (from either source) means "auto": the number of CPUs this
    process may run on.  The result is always >= 1; ``1`` selects the
    serial engine.

    A malformed environment value raises
    :class:`~repro.errors.ConfigurationError` naming the variable (exit
    code 10 at the CLI); a malformed *argument* stays the caller's
    :class:`~repro.errors.InvalidInputError`.
    """
    from_env = False
    if workers is None:
        env = os.environ.get(ENV_WORKERS, "").strip()
        if not env:
            return 1
        from_env = True
        try:
            workers = int(env)
        except ValueError:
            raise ConfigurationError(
                f"must be an integer, got {env!r}", source=ENV_WORKERS
            ) from None
    workers = int(workers)
    if workers < 0:
        if from_env:
            raise ConfigurationError(
                f"must be >= 0, got {workers}", source=ENV_WORKERS
            )
        raise InvalidInputError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except AttributeError:  # non-Linux
            return max(1, os.cpu_count() or 1)
    return workers


def resolve_executor(executor: Optional[str] = None) -> str:
    """The effective executor kind: argument, else ``REPRO_EXECUTOR``,
    else ``"thread"``.

    Like :func:`resolve_workers`, a malformed environment value raises
    :class:`~repro.errors.ConfigurationError` naming the variable.
    """
    from_env = False
    if executor is None:
        executor = os.environ.get(ENV_EXECUTOR, "").strip() or "thread"
        from_env = True
    executor = executor.lower()
    if executor not in EXECUTORS:
        if from_env:
            raise ConfigurationError(
                f"must be one of {EXECUTORS}, got {executor!r}",
                source=ENV_EXECUTOR,
            )
        raise InvalidInputError(
            f"executor must be one of {EXECUTORS}, got {executor!r}"
        )
    return executor


def _record_plan(plan_dict: Dict[str, object]) -> None:
    """Land the plan record in the ambient workload profiler (if live)."""
    obs = current_obs()
    profile = getattr(obs, "profile", None)
    if getattr(profile, "enabled", False):
        profile.record_plan(plan_dict)


def parallel_tile_spgemm(
    a: TileMatrix,
    b: TileMatrix,
    workers: Optional[int] = None,
    executor: Optional[str] = None,
    shards: Optional[int] = None,
    plan=None,
    policy: Optional[RetryPolicy] = None,
    budget_bytes: Optional[int] = None,
    fault_plan=None,
    keep_empty_tiles: bool = True,
    backend=None,
    mp_context=None,
    **kwargs,
) -> TileSpGEMMResult:
    """Multiply ``a @ b`` on a worker pool; byte-identical to serial.

    Parameters
    ----------
    a, b:
        Tiled operands, as for :func:`repro.core.tilespgemm.tile_spgemm`.
    workers:
        Pool size; ``None`` consults ``REPRO_WORKERS``, ``0`` means one
        per available CPU, and ``1`` (the overall default) runs inline.
    executor:
        ``"thread"`` or ``"process"``; ``None`` consults
        ``REPRO_EXECUTOR`` and defaults to ``"thread"``.
    shards:
        Number of contiguous tile-row shards (clamped to
        ``a.num_tile_rows``); defaults to ``workers * 2`` so stragglers
        can be balanced, and to one shard on one worker.
    plan:
        An :class:`~repro.runtime.planner.ExecutionPlan` (duck-typed:
        ``workers`` / ``executor`` / ``bounds`` / ``tnnz`` / ``backend``
        / ``to_dict()``).  Fills in every option the caller left
        ``None`` — including the cost-weighted shard boundaries, used
        whenever ``shards`` is not given and the plan's bounds match
        ``a``'s tile rows.  The plan record lands in ``stats["plan"]``
        and the ambient workload profiler.  Explicit arguments still
        win.
    policy:
        The :class:`~repro.runtime.policy.RetryPolicy` governing
        transient-fault retries of a shard (defaults apply when
        ``None``).
    budget_bytes, fault_plan:
        Forwarded to every shard explicitly — pool workers inherit no
        ambient context.  On the process pool the fault plan is pickled
        per worker, so its counters advance independently per process.
        A shard over the budget is halved and requeued.
    keep_empty_tiles:
        As for ``tile_spgemm``; applied to the merged matrix.
    backend:
        Kernel backend spec (name, :class:`~repro.backend.KernelSet`, or
        ``None`` for the ambient default), resolved to a registry name
        here and shipped by name to the workers.
    mp_context:
        Optional :mod:`multiprocessing` context for the process pool
        (e.g. ``multiprocessing.get_context("spawn")``); ``None`` uses
        the platform default.
    **kwargs:
        Remaining ``tile_spgemm`` options (``tnnz``, methods, dtype...).

    Returns
    -------
    TileSpGEMMResult
        With ``stats["shards"]`` (stitched shards, re-splits included),
        ``stats["workers"]`` and ``stats["executor"]`` — ``"serial"`` or
        ``"chunked"`` when the shards ran inline.

    Raises
    ------
    ResilienceExhausted
        When a shard cannot be recovered (see ``docs/RESILIENCE.md``).
    """
    plan_dict: Optional[Dict[str, object]] = None
    bounds = None
    if plan is not None:
        # The plan supplies whatever the caller left open; its choices
        # already honoured the env knobs at planning time.
        plan_dict = plan.to_dict()
        if workers is None:
            workers = plan.workers
        if executor is None:
            executor = plan.executor
        if backend is None:
            backend = plan.backend
        if getattr(plan, "tnnz", None) is not None:
            kwargs.setdefault("tnnz", int(plan.tnnz))
        if shards is None and len(plan.bounds) >= 2:
            bounds = np.asarray(plan.bounds, dtype=np.int64)
            validate_bounds(bounds, a.num_tile_rows)
    workers = resolve_workers(workers)
    executor = resolve_executor(executor)
    if bounds is None:
        if shards is None:
            shards = workers * _SHARDS_PER_WORKER if workers > 1 else 1
        bounds = batch_bounds(a.num_tile_rows, shards)
    # The process default backend (module state) does not survive spawn,
    # so the resolved name — not the KernelSet — travels to the workers.
    opts = dict(
        kwargs,
        backend=resolve_backend_name(backend),
        budget_bytes=budget_bytes,
        fault_plan=fault_plan,
    )

    if workers <= 1 or len(bounds) <= 2:
        # Inline.  Several shards pay even without parallelism: each
        # shard's intermediates are smaller, so the working set stays
        # cache-resident (the planner's "chunked" mode).
        run = ShardRun(a, b, bounds, policy)
        res = run_blocking([run], opts, keep_empty_tiles=keep_empty_tiles)[0]
        res.stats.update(workers=1, executor="chunked" if run.pieces > 1 else "serial")
    else:
        res = _run_pooled(a, b, bounds, policy, opts, workers, executor, mp_context, keep_empty_tiles)
    res.stats["shards"] = res.stats["batches"]
    if plan_dict is not None:
        res.stats["plan"] = plan_dict
        _record_plan(plan_dict)
    return res


def _run_pooled(a, b, bounds, policy, opts, workers, executor, mp_context, keep_empty_tiles):
    """One engine run on a pool of its own, traced under one
    ``parallel_tile_spgemm`` span with a ``parallel.shard`` span per shard."""
    obs = current_obs()
    ambient = obs.trace_ctx
    trace_id = ambient.trace_id if ambient is not None else new_trace_id()
    root_span_id = f"{trace_id}/{new_trace_id('par')}"
    links: Dict[str, object] = {}
    if obs.tracer.enabled:
        links = {
            "trace_id": trace_id,
            "span_id": root_span_id,
            "parent_span_id": ambient.parent_span_id if ambient is not None else "",
        }
    with obs.tracer.span(
        "parallel_tile_spgemm",
        cat="parallel",
        workers=workers,
        shards=len(bounds) - 1,
        executor=executor,
        **links,
    ) as span:
        run = ShardRun(
            a,
            b,
            bounds,
            policy,
            track="parallel",
            trace_id=trace_id,
            root_span_id=root_span_id,
            # Shard spans and absorbed worker spans share this span's zero.
            epoch_s=time.perf_counter() - (getattr(span, "start_s", 0.0) or 0.0),
        )
        with ShardPool(workers, executor, mp_context, b=b, opts=opts) as pool:
            res = run_blocking([run], opts, pool, keep_empty_tiles)[0]
    res.stats.update(workers=workers, executor=executor)
    if obs.enabled:
        obs.metrics.inc("parallel_runs_total", executor=executor)
        obs.metrics.inc("parallel_shards_total", run.shards_run)
        obs.metrics.set_gauge("parallel_workers", workers)
        obs.metrics.inc("parallel_shard_seconds_total", run.shard_seconds)
    return res


# ----------------------------------------------------------------------
# Batching front end
# ----------------------------------------------------------------------
def spgemm_batch(
    pairs: Sequence[Tuple[object, object]],
    workers: Optional[int] = None,
    executor: Optional[str] = None,
    policy: Optional[RetryPolicy] = None,
    tile_size: Optional[int] = None,
    backend=None,
    **kwargs,
) -> List[TileSpGEMMResult]:
    """Run many small multiplies on one pool, preserving input order.

    The dual of sharding: instead of splitting one large multiply, each
    ``(a, b)`` pair is one shard-engine run, and the runs share one pool
    — the natural shape for an AMG setup phase (many small Galerkin
    products) or a batch of independent graph contractions.  Results
    arrive in input order and each equals its serial
    ``tile_spgemm(a, b, **kwargs)`` byte for byte.

    Parameters
    ----------
    pairs:
        ``(a, b)`` operand pairs; each operand may be a
        :class:`~repro.core.tile_matrix.TileMatrix` or a CSR matrix.
        CSR operands are tiled through the process-wide
        :func:`~repro.runtime.tilecache.get_tile_cache`, so a matrix
        appearing in several pairs is converted once.
    workers, executor:
        Pool configuration, resolved like
        :func:`parallel_tile_spgemm` (``workers=1`` runs the batch
        inline, in order).
    policy:
        The :class:`~repro.runtime.policy.RetryPolicy` every run's
        failure rules use.
    tile_size:
        Tile size used when tiling CSR operands (default
        :data:`~repro.core.tile_matrix.TILE`).
    backend:
        Kernel backend spec, resolved to a registry name on the
        coordinator and forwarded to every task (like
        :func:`parallel_tile_spgemm`).
    **kwargs:
        ``tile_spgemm`` options applied to every pair.
    """
    workers = resolve_workers(workers)
    executor = resolve_executor(executor)
    keep_empty_tiles = kwargs.pop("keep_empty_tiles", True)
    opts = dict(kwargs, backend=resolve_backend_name(backend))
    cache = get_tile_cache()
    ts = {} if tile_size is None else {"tile_size": tile_size}
    runs = [
        ShardRun(cache.tile(a, **ts), cache.tile(b, **ts), policy=policy, track="parallel")
        for a, b in pairs
    ]
    if workers <= 1 or len(runs) <= 1:
        return run_blocking(runs, opts, keep_empty_tiles=keep_empty_tiles)

    obs = current_obs()
    with obs.tracer.span(
        "spgemm_batch",
        cat="parallel",
        size=len(runs),
        workers=workers,
        executor=executor,
    ), ShardPool(workers, executor) as pool:
        out = run_blocking(runs, opts, pool, keep_empty_tiles)
    if obs.enabled:
        obs.metrics.inc("spgemm_batch_runs_total", executor=executor)
        obs.metrics.inc("spgemm_batch_tasks_total", len(runs))
    return out
