"""Ambient observability context: which tracer/metrics a run reports to.

This is the package's one ambient state; a run's budget, fault plan and
kernel backend are plain arguments.  The tracer and metrics registry
must reach code many frames below the caller who configured them
(``AllocationTracker`` events, baseline kernels, SUMMA broadcasts), so a
run is wrapped in :func:`obs_context` and instrumented call sites consult
:func:`current_obs`.

Outside any context, :func:`current_obs` returns :data:`NULL_OBS` — a
shared disabled context whose sinks are the no-op singletons, so
un-instrumented runs pay one list lookup per site and nothing else.  Contexts nest; fields left ``None`` inherit from the
enclosing context.

The stack is **per-thread** (:class:`threading.local`): pool threads
start with an empty stack and therefore report to :data:`NULL_OBS`
unless an engine enters a context for them.  A :class:`~repro.obs.trace.Tracer` is safe to use from several
threads (one span stack per thread), and a
:class:`~repro.obs.metrics.MetricsRegistry` and a
:class:`~repro.obs.profile.WorkloadProfiler` lock their updates, so a
pooled range enters a context holding the run's own sinks and records
its events into them directly (:mod:`repro.runtime.shards`); the
multiply's work record is made once, from the stitched result.  The
ambient ``trace_ctx`` field carries
the request identity (:class:`~repro.obs.propagate.TraceContext`) so
nested engines keep attributing work to the request that caused it.

The module imports nothing from the rest of the package (beyond the
sibling sink modules), so every layer can depend on it without cycles.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.obs.metrics import NULL_METRICS, MetricsRegistry, NullMetrics
from repro.obs.profile import NULL_PROFILER, NullProfiler, WorkloadProfiler
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "ObsContext",
    "NULL_OBS",
    "obs_context",
    "current_obs",
    "make_obs",
]


@dataclass(frozen=True)
class ObsContext:
    """The observability sinks of one run.

    Attributes
    ----------
    tracer:
        A :class:`~repro.obs.trace.Tracer` or the no-op
        :data:`~repro.obs.trace.NULL_TRACER`.
    metrics:
        A :class:`~repro.obs.metrics.MetricsRegistry` or the no-op
        :data:`~repro.obs.metrics.NULL_METRICS`.
    profile:
        A :class:`~repro.obs.profile.WorkloadProfiler` or the no-op
        :data:`~repro.obs.profile.NULL_PROFILER`.
    trace_ctx:
        The propagated :class:`~repro.obs.propagate.TraceContext` this
        work runs under (``None`` at top level).  Engines that fan work
        out to pools consult this so shards stay attributed to the
        originating request across pool threads.
    enabled:
        True when at least one sink is live.  Guarded call sites check
        this before computing attribute/metric values so disabled runs
        skip even the arithmetic.
    """

    tracer: object = NULL_TRACER
    metrics: object = NULL_METRICS
    profile: object = NULL_PROFILER
    trace_ctx: Optional[object] = None
    enabled: bool = False


#: The default, disabled context returned outside any ``obs_context``.
NULL_OBS = ObsContext()

class _ThreadStack(threading.local):
    """Per-thread context stack; every thread starts empty."""

    def __init__(self) -> None:
        self.items: List[ObsContext] = []


_STACK = _ThreadStack()


def current_obs() -> ObsContext:
    """The innermost active context of this thread, or :data:`NULL_OBS`."""
    items = _STACK.items
    return items[-1] if items else NULL_OBS


def make_obs(
    trace: bool = True,
    metrics: bool = True,
    profile: bool = True,
    clock=None,
) -> ObsContext:
    """Build an enabled context with fresh sinks.

    Parameters
    ----------
    trace, metrics, profile:
        Which sinks to enable; a disabled sink stays the no-op
        singleton.  The workload profiler defaults **on**: it is the
        always-on substrate of the ``obs profile`` report and its
        recording cost is covered by the <5 % overhead bound.
    clock:
        Optional deterministic clock forwarded to the tracer.
    """
    tracer = (Tracer(clock=clock) if clock is not None else Tracer()) if trace else NULL_TRACER
    registry = MetricsRegistry() if metrics else NULL_METRICS
    profiler = WorkloadProfiler() if profile else NULL_PROFILER
    enabled = trace or metrics or profile
    return ObsContext(
        tracer=tracer,
        metrics=registry,
        profile=profiler,
        enabled=enabled,
    )


def _is_live(sink) -> bool:
    return not isinstance(sink, (NullTracer, NullMetrics, NullProfiler))


@contextmanager
def obs_context(
    tracer: Optional[object] = None,
    metrics: Optional[object] = None,
    profile: Optional[object] = None,
    trace_ctx: Optional[object] = None,
) -> Iterator[ObsContext]:
    """Activate an observability context for the ``with`` block.

    Fields left ``None`` inherit from the enclosing context (the no-op
    singletons at top level), so a library layer can add a metrics
    registry without disturbing an outer tracer.  ``trace_ctx`` likewise
    inherits, so a propagated request identity survives nested
    ``obs_context`` entries on the same thread.
    """
    parent = current_obs()
    if tracer is None:
        tracer = parent.tracer
    if metrics is None:
        metrics = parent.metrics
    if profile is None:
        profile = parent.profile
    if trace_ctx is None:
        trace_ctx = parent.trace_ctx
    enabled = _is_live(tracer) or _is_live(metrics) or _is_live(profile)
    ctx = ObsContext(
        tracer=tracer,
        metrics=metrics,
        profile=profile,
        trace_ctx=trace_ctx,
        enabled=enabled,
    )
    _STACK.items.append(ctx)
    try:
        yield ctx
    finally:
        _STACK.items.pop()
