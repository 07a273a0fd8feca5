"""Resilient execution runtime: budgets, faults, chunking, fallback.

The production-facing wrapper around the SpGEMM engines:

* :mod:`repro.runtime.context` — ambient execution context carrying the
  device memory budget and the active fault plan;
* :mod:`repro.runtime.faults` — deterministic seeded fault injection
  (:class:`FaultPlan`);
* :mod:`repro.runtime.shards` — the one shard engine behind every entry
  point: a tile-row range state machine (OOM re-split, transient retry,
  pool replacement), a replaceable thread/process pool, and blocking
  and async drivers;
* :mod:`repro.runtime.chunked` — chunked tile-row re-execution under a
  budget, stitching a bit-identical result;
* :mod:`repro.runtime.policy` — retry/backoff/fallback engine
  (:func:`run_resilient`) returning a :class:`ResilienceReport`;
* :mod:`repro.runtime.parallel` — sharded execution on a thread or
  process pool (:func:`parallel_tile_spgemm`, :func:`spgemm_batch`),
  byte-identical to serial;
* :mod:`repro.runtime.planner` — estimation-driven execution planning
  (:func:`plan_execution` → :class:`ExecutionPlan`): worker count,
  cost-weighted shard bounds, accumulator threshold and backend derived
  per run from the row-sampled estimate of
  :mod:`repro.analysis.estimate`;
* :mod:`repro.runtime.tilecache` — content-hash-keyed LRU cache of tiled
  operands for repeated multiplies.

See ``docs/RESILIENCE.md`` and ``docs/PARALLEL.md`` for the designs.

``shards``, ``chunked``, ``policy`` and ``parallel`` import the core algorithm, so
they are loaded lazily (PEP 562) — the core itself can import
:mod:`~repro.runtime.context` without a cycle.
"""

from __future__ import annotations

from repro.runtime.context import (
    ExecutionContext,
    current_budget_bytes,
    current_context,
    current_fault_plan,
    execution_context,
    note_broadcast,
    note_step,
)
from repro.runtime.faults import FaultPlan, FaultSpec, FiredFault

__all__ = [
    "ExecutionContext",
    "execution_context",
    "current_context",
    "current_budget_bytes",
    "current_fault_plan",
    "note_step",
    "note_broadcast",
    "FaultPlan",
    "FaultSpec",
    "FiredFault",
    # lazily loaded:
    "chunked_tile_spgemm",
    "slice_tile_rows",
    "batch_bounds",
    "stitch_results",
    "validate_bounds",
    "ExecutionPlan",
    "plan_execution",
    "weighted_bounds",
    "RetryPolicy",
    "AttemptRecord",
    "ResilienceReport",
    "ResilientResult",
    "backoff_wait",
    "run_resilient",
    "parallel_tile_spgemm",
    "spgemm_batch",
    "resolve_workers",
    "resolve_executor",
    "TileCache",
    "get_tile_cache",
    "reset_tile_cache",
    "cached_algorithm",
]

_LAZY = {
    "chunked_tile_spgemm": "repro.runtime.chunked",
    "slice_tile_rows": "repro.runtime.chunked",
    "batch_bounds": "repro.runtime.chunked",
    "stitch_results": "repro.runtime.chunked",
    "validate_bounds": "repro.runtime.chunked",
    "ExecutionPlan": "repro.runtime.planner",
    "plan_execution": "repro.runtime.planner",
    "weighted_bounds": "repro.runtime.planner",
    "RetryPolicy": "repro.runtime.policy",
    "AttemptRecord": "repro.runtime.policy",
    "ResilienceReport": "repro.runtime.policy",
    "ResilientResult": "repro.runtime.policy",
    "backoff_wait": "repro.runtime.policy",
    "run_resilient": "repro.runtime.policy",
    "parallel_tile_spgemm": "repro.runtime.parallel",
    "spgemm_batch": "repro.runtime.parallel",
    "resolve_workers": "repro.runtime.parallel",
    "resolve_executor": "repro.runtime.parallel",
    "TileCache": "repro.runtime.tilecache",
    "get_tile_cache": "repro.runtime.tilecache",
    "reset_tile_cache": "repro.runtime.tilecache",
    "cached_algorithm": "repro.runtime.tilecache",
}


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        return getattr(importlib.import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
