"""Estimation-driven execution planning for TileSpGEMM runs.

The paper fixes its execution decisions statically: the caller chooses
worker count, shard split and backend by hand, and tile rows are split
uniformly.  This module makes, per run, the decisions that change the run,
from the cheap upfront estimate of :mod:`repro.analysis.estimate`
(OCEAN-style row-sampled nnz(C)/compression).

:func:`plan_execution` produces an :class:`ExecutionPlan` choosing

* **workers** — serial below a products threshold
  (:data:`DEFAULT_SERIAL_PRODUCTS`: pool startup and stitch overhead
  dominate tiny multiplies), scaling up to the available CPUs as
  predicted work grows.
* **shard count and boundaries** — shards exist for concurrency only:
  ``workers * _SHARDS_PER_WORKER`` shards on a pool, one shard on one
  worker (step 3 keeps its own working set cache-resident, so splitting
  a serial run buys nothing; a memory budget splits further through the
  shard engine's OOM halving).  :func:`weighted_bounds` equalises
  predicted products per shard instead of tile-row counts, so a
  power-law row distribution no longer leaves one straggler shard
  holding most of the work.
* **backend** — the explicit request if any, else ``REPRO_BACKEND``,
  else ``numpy``, resolved to a kernel set once (a custom, unregistered
  :class:`~repro.backend.KernelSet` included; the plan record keeps its
  name).

The plan also records the paper's accumulator threshold
``default_tnnz(tile_size)`` as ``tnnz``; it only selects which tiles
the ``use_dense`` statistic counts.  Step 3 picks its executed path
(scatter or dense tile) per C tile by product fill, from tile-local
data, so the plan cannot change it.

Every decision is a deterministic function of the operands and the
explicit arguments / environment knobs (the estimator samples
deterministically), so a plan is reproducible and the planned parallel
run stays byte-identical to a serial run — asserted by the determinism
tests.

The plan is recorded in ``stats["plan"]`` of the result and, as one
``plan`` instant whose args are :meth:`ExecutionPlan.to_dict`, on the
ambient trace of the :func:`~repro.runtime.parallel.parallel_tile_spgemm`
run it drives, so the trace that shows where the time went also shows
the plan, its estimate and its derivation notes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.analysis.estimate import estimate_multiply
from repro.backend import KernelSet, resolve_backend
from repro.core.step3 import default_tnnz
from repro.errors import InvalidInputError
from repro.runtime.chunked import batch_bounds
from repro.runtime.parallel import _SHARDS_PER_WORKER, ENV_WORKERS, resolve_workers

__all__ = [
    "ExecutionPlan",
    "plan_execution",
    "weighted_bounds",
    "DEFAULT_SERIAL_PRODUCTS",
]

#: Predicted intermediate products below which one worker is the plan:
#: pool startup + shard slicing + stitch cost a few milliseconds, and a
#: multiply this small finishes serially before a pool warms up.  Each
#: additional worker must bring at least this many products with it.
DEFAULT_SERIAL_PRODUCTS = 200_000


@dataclass(frozen=True)
class ExecutionPlan:
    """One run's execution decisions, ready to hand to the engines.

    Attributes
    ----------
    mode:
        ``"serial"`` (one worker; one shard unless the caller asked for
        more) or ``"parallel"`` (a worker pool).
    workers, shards:
        Pool shape (``workers=1``/``shards=1`` in serial mode).
    bounds:
        Tile-row shard boundaries, cost-weighted via
        :func:`weighted_bounds`; always covers ``[0, num_tile_rows)``
        exactly with no empty shard.
    tnnz:
        The paper's accumulator threshold, ``default_tnnz(tile_size)``;
        it selects the tiles the ``use_dense`` statistic counts.
    backend:
        The resolved :class:`~repro.backend.KernelSet` the run uses, an
        unregistered one included; :meth:`to_dict` records its name.
    estimate:
        Native-typed :meth:`~repro.analysis.estimate.MultiplyEstimate.to_dict`
        summary the decisions were derived from.
    notes:
        Human-readable derivation notes ("workers 2: explicit", ...),
        carried by the trace's ``plan`` instant.
    """

    mode: str
    workers: int
    shards: int
    bounds: np.ndarray
    tnnz: int
    backend: KernelSet
    estimate: Dict[str, Any] = field(default_factory=dict)
    notes: Tuple[str, ...] = ()

    @property
    def num_tile_rows(self) -> int:
        return int(self.bounds[-1]) if len(self.bounds) else 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able plan record (``stats["plan"]`` and the ``plan``
        trace instant's args)."""
        return {
            "mode": self.mode,
            "workers": int(self.workers),
            "shards": int(self.shards),
            "bounds": [int(x) for x in self.bounds],
            "tnnz": int(self.tnnz),
            "backend": self.backend.name,
            "estimate": dict(self.estimate),
            "notes": list(self.notes),
        }


def weighted_bounds(weights, num_shards: int) -> np.ndarray:
    """Shard boundaries equalising predicted cost, not row count.

    Splits ``[0, len(weights))`` into ``num_shards`` contiguous shards
    whose weight sums are as equal as a contiguous split allows: the
    cut points are where the cumulative weight crosses each equal-share
    target.  Guarantees of :func:`~repro.runtime.chunked.batch_bounds`
    are preserved — bounds start at 0, end at ``len(weights)``, and are
    strictly increasing (no empty shard) — so the planned bounds slot
    straight into the chunked/parallel engines.

    All-zero weights fall back to the uniform split.
    """
    w = np.asarray(weights, dtype=np.float64).ravel()
    n = int(w.size)
    if n == 0:
        return np.zeros(2, dtype=np.int64)
    num_shards = max(1, min(int(num_shards), n))
    if num_shards == 1:
        return np.array([0, n], dtype=np.int64)
    w = np.clip(w, 0.0, None)
    total = float(w.sum())
    if total <= 0.0:
        return batch_bounds(n, num_shards)
    cum = np.cumsum(w)
    targets = total * (np.arange(1, num_shards) / num_shards)
    cuts = np.searchsorted(cum, targets, side="left") + 1
    bounds = np.concatenate(
        (np.zeros(1, np.int64), cuts.astype(np.int64), np.full(1, n, np.int64))
    )
    # Crossing points can collide when one tile row dominates the total;
    # push colliding cuts apart (forward then backward) so every shard
    # keeps at least one tile row.  num_shards <= n makes both passes
    # satisfiable at once.
    for k in range(1, num_shards):
        if bounds[k] <= bounds[k - 1]:
            bounds[k] = bounds[k - 1] + 1
    for k in range(num_shards - 1, 0, -1):
        if bounds[k] >= bounds[k + 1]:
            bounds[k] = bounds[k + 1] - 1
    return bounds


def plan_execution(
    a,
    b,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
    backend=None,
) -> ExecutionPlan:
    """Derive an :class:`ExecutionPlan` for ``a @ b``.

    Explicit arguments (and the ``REPRO_WORKERS`` environment knob)
    always win over the estimator's choice — the
    planner fills in what the caller left open.
    """
    if a.shape[1] != b.shape[0]:
        raise InvalidInputError(
            f"dimension mismatch: A is {a.shape[0]}x{a.shape[1]}, "
            f"B is {b.shape[0]}x{b.shape[1]}"
        )
    est = estimate_multiply(a, b)
    notes = []

    # --- worker count: explicit/env wins; otherwise scale with work.
    explicit_workers = workers is not None or bool(
        os.environ.get(ENV_WORKERS, "").strip()
    )
    if explicit_workers:
        chosen_workers = resolve_workers(workers)
        notes.append(f"workers {chosen_workers}: explicit")
    else:
        cpus = resolve_workers(0)
        chosen_workers = int(min(cpus, max(1, est.products // DEFAULT_SERIAL_PRODUCTS)))
        notes.append(
            f"workers {chosen_workers}: {est.products} products vs "
            f"bar {DEFAULT_SERIAL_PRODUCTS}/worker (cpus {cpus})"
        )

    # --- shards exist for concurrency: a few per worker to balance
    # stragglers, one on one worker.  Boundaries equalise predicted
    # products per shard.
    if shards is None:
        shards = chosen_workers * _SHARDS_PER_WORKER if chosen_workers > 1 else 1
    bounds = weighted_bounds(est.tile_row_products, shards)
    num_shards = len(bounds) - 1
    chosen_workers = min(chosen_workers, num_shards)

    return ExecutionPlan(
        mode="parallel" if chosen_workers > 1 else "serial",
        workers=int(chosen_workers),
        shards=int(num_shards),
        bounds=bounds,
        tnnz=default_tnnz(est.tile_size),
        backend=resolve_backend(backend),
        estimate=est.to_dict(),
        notes=tuple(notes),
    )
