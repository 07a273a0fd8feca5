"""Resilient execution runtime: budgets, faults, chunking, retries.

The production-facing wrapper around the SpGEMM engines.  A run's memory
budget, fault plan and kernel backend are arguments of its entry point,
forwarded explicitly to every range it runs:

* :mod:`repro.runtime.faults` — deterministic seeded fault injection
  (:class:`FaultPlan`);
* :mod:`repro.runtime.shards` — the one shard engine behind every entry
  point: a tile-row range state machine (OOM re-split, transient retry,
  pool replacement), a replaceable thread pool, and blocking
  and async drivers;
* :mod:`repro.runtime.chunked` — chunked tile-row re-execution under a
  budget, stitching a bit-identical result;
* :mod:`repro.runtime.policy` — the retry/backoff policy
  (:class:`RetryPolicy`, :func:`backoff_wait`) the shard engine applies;
* :mod:`repro.runtime.parallel` — sharded execution on a thread pool
  (:func:`parallel_tile_spgemm`, :func:`spgemm_batch`),
  byte-identical to serial;
* :mod:`repro.runtime.planner` — estimation-driven execution planning
  (:func:`plan_execution` → :class:`ExecutionPlan`): worker count,
  cost-weighted shard bounds and backend derived per run from
  the row-sampled estimate of
  :mod:`repro.analysis.estimate`;
* :mod:`repro.runtime.tilecache` — content-hash-keyed LRU cache of tiled
  operands for repeated multiplies.

See ``docs/RESILIENCE.md`` and ``docs/PARALLEL.md`` for the designs.
"""

from __future__ import annotations

from repro.runtime.chunked import (
    batch_bounds,
    chunked_tile_spgemm,
    slice_tile_rows,
    stitch_results,
    validate_bounds,
)
from repro.runtime.faults import FaultPlan, FaultSpec, FiredFault
from repro.runtime.parallel import parallel_tile_spgemm, resolve_workers, spgemm_batch
from repro.runtime.planner import ExecutionPlan, plan_execution, weighted_bounds
from repro.runtime.policy import RetryPolicy, backoff_wait
from repro.runtime.tilecache import (
    TileCache,
    cached_algorithm,
    get_tile_cache,
    reset_tile_cache,
)

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "FiredFault",
    "chunked_tile_spgemm",
    "slice_tile_rows",
    "batch_bounds",
    "stitch_results",
    "validate_bounds",
    "ExecutionPlan",
    "plan_execution",
    "weighted_bounds",
    "RetryPolicy",
    "backoff_wait",
    "parallel_tile_spgemm",
    "spgemm_batch",
    "resolve_workers",
    "TileCache",
    "get_tile_cache",
    "reset_tile_cache",
    "cached_algorithm",
]
