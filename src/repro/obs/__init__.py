"""Observability: structured tracing, kernel-counter metrics, exports.

The instrumentation layer the ROADMAP's performance work stands on — you
cannot tune the adaptive-accumulator switch or the SUMMA broadcast costs
without seeing the counters and the timeline.  Three pieces:

* :mod:`repro.obs.trace` — hierarchical spans with Chrome trace-event
  (Perfetto / ``chrome://tracing``) JSON export;
* :mod:`repro.obs.metrics` — counters/gauges/histograms of the
  algorithm's decision points, with deterministic snapshots and
  Prometheus text export;
* :mod:`repro.obs.context` — the ambient :class:`ObsContext` carried
  through ``tile_spgemm``, every baseline, the resilient runtime and
  distributed SUMMA;
* :mod:`repro.obs.gputrace` — the cost model's warp-task schedules laid
  out on virtual SM/slot tracks;
* :mod:`repro.obs.propagate` — the :class:`TraceContext` identity a
  pooled range records under, so its spans link to the request (or
  multiply) that caused it;
* :mod:`repro.obs.profile` — the always-on workload profiler: work per
  tile-row band, aggregated into ``repro.profile/1`` artifacts.

Typical use::

    from repro.obs import make_obs, obs_context

    obs = make_obs()
    with obs_context(tracer=obs.tracer, metrics=obs.metrics):
        result = tile_spgemm(a, b)
    obs.tracer.write("trace.json")      # open in https://ui.perfetto.dev
    print(obs.metrics.to_prometheus())

Everything is zero-cost when disabled: outside an :func:`obs_context`
the no-op singletons absorb every call, and guarded sites skip even the
attribute arithmetic.  See ``docs/OBSERVABILITY.md``.
"""

from repro.obs.context import NULL_OBS, ObsContext, current_obs, make_obs, obs_context
from repro.obs.gputrace import emit_gpu_timeline
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NULL_METRICS,
    MetricsRegistry,
    NullMetrics,
)
from repro.obs.native import json_default, to_native
from repro.obs.profile import (
    DEFAULT_BAND_TILE_ROWS,
    NULL_PROFILER,
    PROFILE_SCHEMA,
    NullProfiler,
    WorkloadProfiler,
    load_profile,
    render_profile,
    validate_profile,
    write_profile,
)
from repro.obs.propagate import TraceContext, new_trace_id
from repro.obs.trace import NULL_TRACER, NullTracer, Span, TraceEvent, Tracer

__all__ = [
    "ObsContext",
    "NULL_OBS",
    "obs_context",
    "current_obs",
    "make_obs",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "TraceEvent",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "DEFAULT_BUCKETS",
    "emit_gpu_timeline",
    "TraceContext",
    "new_trace_id",
    "to_native",
    "json_default",
    "WorkloadProfiler",
    "NullProfiler",
    "NULL_PROFILER",
    "PROFILE_SCHEMA",
    "DEFAULT_BAND_TILE_ROWS",
    "validate_profile",
    "write_profile",
    "load_profile",
    "render_profile",
]
