"""Sharded parallel execution: TileSpGEMM on a worker pool.

The candidate-C-tile space shards exactly like it chunks: tile row ``i``
of ``C`` depends only on tile row ``i`` of ``A`` (and all of ``B``).
:func:`parallel_tile_spgemm` resolves the execution configuration — an
optional plan, the worker count, shard boundaries and kernel
backend — and hands the multiply to the shard engine
(:mod:`repro.runtime.shards`): inline on one worker (the planner's
``"serial"`` mode), on a thread :class:`~repro.runtime.shards.ShardPool`
otherwise (``"parallel"``).
:func:`spgemm_batch` runs many multiplies as engine runs sharing one
pool.

**Determinism.**  The merged result is byte-identical to the serial run —
indices, values and tile structure.  Two properties make that true: the
stitch concatenates shard outputs in tile-row order, and the numeric
phase adds each product onto its value in pair order wherever its chunks
end (:func:`repro.core.step3.step3_numeric`), so each tile's
accumulation order is independent of how the tile-row space was
partitioned — or re-split after an OOM.  The test suite asserts exact equality of all
eight output arrays.

**Backends.**  The kernel-backend spec is resolved to a
:class:`~repro.backend.KernelSet` once per run, in the coordinator, and
that instance travels in the shard options, so every shard of the run
uses one backend, and an unregistered kernel set works as it does for
``tile_spgemm`` (:mod:`repro.backend`).  Every backend is exact,
and the conformance suite pins the merged result byte for byte against
the serial ``numpy`` run.

**Threads.**  Every pool is a thread pool: tile row ``i`` of ``C`` needs
all of ``B``, and threads share one resident ``B`` by reference where a
process pool would copy it into every worker (measured slower on every
benchmark workload; ``docs/PARALLEL.md``).

**Failure.**  A failing shard gets the engine's rules — an OOM halves
it, a transient fault retries it after backoff, a broken pool is
replaced once — and never reruns the whole matrix.  See
``docs/RESILIENCE.md``.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend import resolve_backend
from repro.core.tile_matrix import TileMatrix
from repro.core.tilespgemm import TileSpGEMMResult
from repro.errors import ConfigurationError, InvalidInputError
from repro.obs.context import current_obs
from repro.obs.propagate import new_trace_id
from repro.runtime.chunked import batch_bounds, validate_bounds
from repro.runtime.policy import RetryPolicy
from repro.runtime.shards import ShardPool, ShardRun, run_blocking
from repro.runtime.tilecache import get_tile_cache

__all__ = [
    "ENV_WORKERS",
    "resolve_workers",
    "parallel_tile_spgemm",
    "spgemm_batch",
]

#: Environment knob consulted when the caller passes ``workers=None``.
ENV_WORKERS = "REPRO_WORKERS"

#: Shards per worker: a little oversharding evens out load imbalance
#: between tile rows without shrinking shards into stitch overhead.
_SHARDS_PER_WORKER = 2


def resolve_workers(workers: Optional[int] = None) -> int:
    """The effective worker count: argument, else ``REPRO_WORKERS``, else 1.

    ``0`` (from either source) means "auto": the number of CPUs this
    process may run on.  The result is always >= 1; ``1`` selects the
    serial engine.  A malformed argument raises
    :class:`~repro.errors.InvalidInputError`; a malformed environment
    value raises :class:`~repro.errors.ConfigurationError` naming the
    variable (exit code 10 at the CLI).
    """
    raw, source = workers, None
    if raw is None:
        raw, source = os.environ.get(ENV_WORKERS, "").strip() or 1, ENV_WORKERS
    try:
        workers = int(raw)
    except ValueError:
        problem = f"must be an integer, got {raw!r}"
    else:
        problem = f"must be >= 0, got {workers}" if workers < 0 else ""
    if problem:
        if source is None:
            raise InvalidInputError(f"workers {problem}")
        raise ConfigurationError(problem, source=source)
    if workers == 0:
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except AttributeError:  # non-Linux
            return max(1, os.cpu_count() or 1)
    return workers


def parallel_tile_spgemm(
    a: TileMatrix,
    b: TileMatrix,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
    plan=None,
    policy: Optional[RetryPolicy] = None,
    budget_bytes: Optional[int] = None,
    fault_plan=None,
    keep_empty_tiles: bool = True,
    backend=None,
    **kwargs,
) -> TileSpGEMMResult:
    """Multiply ``a @ b`` on a thread pool; byte-identical to serial.

    Parameters
    ----------
    a, b:
        Tiled operands, as for :func:`repro.core.tilespgemm.tile_spgemm`.
    workers:
        Pool size; ``None`` consults ``REPRO_WORKERS``, ``0`` means one
        per available CPU, and ``1`` (the overall default) runs inline.
    shards:
        Number of contiguous tile-row shards (clamped to
        ``a.num_tile_rows``); defaults to ``workers * 2`` so stragglers
        can be balanced, and to one shard on one worker.
    plan:
        An :class:`~repro.runtime.planner.ExecutionPlan` (duck-typed:
        ``workers`` / ``bounds`` / ``backend`` /
        ``to_dict()``).  Fills in every option the caller left
        ``None`` — including the cost-weighted shard boundaries, used
        whenever ``shards`` is not given; bounds that do not partition
        ``a``'s tile rows raise :class:`~repro.errors.InvalidInputError`.
        The plan record lands in ``stats["plan"]`` and, before any range
        runs, as one ``plan`` instant (cat ``plan``, args the record) on
        the ambient tracer.  Explicit arguments still win.
    policy:
        The :class:`~repro.runtime.policy.RetryPolicy` governing
        transient-fault retries of a shard (defaults apply when
        ``None``).
    budget_bytes, fault_plan:
        Forwarded to every shard explicitly.  A shard over the budget is
        halved and requeued.
    keep_empty_tiles:
        As for ``tile_spgemm``; applied to the merged matrix.
    backend:
        Kernel backend spec (name, :class:`~repro.backend.KernelSet`, or
        ``None`` for ``REPRO_BACKEND``, else ``numpy``), resolved to a
        kernel set here, so every shard runs the same backend.
    **kwargs:
        Remaining ``tile_spgemm`` options (``tnnz``, ``force_accumulator``, ``value_dtype``).

    Returns
    -------
    TileSpGEMMResult
        With ``stats["shards"]`` (stitched shards, re-splits included),
        ``stats["workers"]`` (1 when the shards ran inline) and the
        recovery tallies ``stats["resplits"]`` / ``stats["retries"]``;
        the modelled backoff is ``timer.seconds["backoff"]``.

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
        if backend is None:
            backend = plan.backend
        if shards is None and len(plan.bounds) >= 2:
            bounds = np.asarray(plan.bounds, dtype=np.int64)
            validate_bounds(bounds, a.num_tile_rows)
    workers = resolve_workers(workers)
    if bounds is None:
        if shards is None:
            shards = workers * _SHARDS_PER_WORKER if workers > 1 else 1
        bounds = batch_bounds(a.num_tile_rows, shards)
    # Resolved once, so every shard runs one backend.
    opts = dict(
        kwargs,
        backend=resolve_backend(backend),
        budget_bytes=budget_bytes,
        fault_plan=fault_plan,
    )

    if plan_dict is not None:
        current_obs().tracer.instant("plan", cat="plan", **plan_dict)
    if workers <= 1 or len(bounds) <= 2:
        run = ShardRun(a, b, bounds, policy, track="parallel")
        res = run_blocking([run], opts, keep_empty_tiles=keep_empty_tiles)[0]
        res.stats["workers"] = 1
    else:
        res = _run_pooled(a, b, bounds, policy, opts, workers, keep_empty_tiles)
    res.stats["shards"] = res.stats["batches"]
    if plan_dict is not None:
        res.stats["plan"] = plan_dict
    return res


def _run_pooled(a, b, bounds, policy, opts, workers, keep_empty_tiles):
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
        **links,
    ):
        run = ShardRun(
            a,
            b,
            bounds,
            policy,
            track="parallel",
            trace_id=trace_id,
            root_span_id=root_span_id,
        )
        with ShardPool(workers) as pool:
            res = run_blocking([run], opts, pool, keep_empty_tiles)[0]
    res.stats["workers"] = workers
    if obs.enabled:
        obs.metrics.inc("parallel_runs_total")
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
    workers:
        Pool size, resolved like :func:`parallel_tile_spgemm`
        (``workers=1`` runs the batch inline, in order).
    policy:
        The :class:`~repro.runtime.policy.RetryPolicy` every run's
        failure rules use.
    tile_size:
        Tile size used when tiling CSR operands (default
        :data:`~repro.core.tile_matrix.TILE`).
    backend:
        Kernel backend spec, resolved once to a kernel set and forwarded
        to every task (like :func:`parallel_tile_spgemm`).
    **kwargs:
        ``tile_spgemm`` options applied to every pair.
    """
    workers = resolve_workers(workers)
    keep_empty_tiles = kwargs.pop("keep_empty_tiles", True)
    opts = dict(kwargs, backend=resolve_backend(backend))
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
    ), ShardPool(workers) as pool:
        return run_blocking(runs, opts, pool, keep_empty_tiles)
