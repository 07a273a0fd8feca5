"""Cross-thread trace propagation: spans recorded where the work ran.

The coordinator-side tracer cannot be driven from pool threads (the
ambient observability context is deliberately thread-local, see
:mod:`repro.obs.context`), so a pool thread starts with no tracer at
all.  Three pieces carry what a shard records back to the coordinator
and attribute it to the request (or multiply) that caused it:

* :class:`TraceContext` — a tiny identity ``(trace_id,
  parent_span_id, row_offset)`` that travels to the pool thread
  alongside the shard arguments;
* :func:`run_with_worker_obs` — the worker-side harness: runs the shard
  body under a **fresh thread-local tracer** (and metrics registry and
  profiler) and packs everything recorded into a plain-data
  :class:`WorkerTelemetry`;
* :func:`absorb_telemetry` — the coordinator-side merge: re-bases the
  worker spans onto the coordinator's timeline (both sides stamp the
  same monotonic clock, so the shift is exact) and imports them with
  ``trace_id`` / ``span_id`` / ``parent_span_id`` attributes whose
  links resolve within the merged trace.

Span identity lives in span *attributes*, not in a schema change:
``args["span_id"]`` names a span, ``args["parent_span_id"]`` points at
its parent, and ``args["trace_id"]`` groups everything one request (or
one parallel multiply) caused.  A Perfetto/Chrome viewer renders the
spans on their worker tracks; the analysis layer and the tests resolve
the links explicitly.

Everything here is zero-cost when tracing is disabled: the engines only
construct a :class:`TraceContext` when the ambient tracer is live, and a
``None`` context short-circuits the worker harness to a plain call.
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.context import obs_context
from repro.obs.metrics import MetricsRegistry
from repro.obs.native import to_native
from repro.obs.profile import WorkloadProfiler, profile_row_offset
from repro.obs.trace import Tracer

__all__ = [
    "TraceContext",
    "WorkerTelemetry",
    "new_trace_id",
    "span_id_of",
    "run_with_worker_obs",
    "absorb_telemetry",
]

_trace_counter = itertools.count()


def new_trace_id(prefix: str = "trace") -> str:
    """A process-unique trace id (``prefix-<pid>-<n>``).

    Monotonic per process — deterministic *structure* (no randomness);
    the pid keeps ids from different processes' traces apart.
    """
    return f"{prefix}-{os.getpid()}-{next(_trace_counter)}"


@dataclass(frozen=True)
class TraceContext:
    """The identity a unit of traced work runs under.

    Attributes
    ----------
    trace_id:
        Groups every span one request (or one top-level parallel
        multiply) caused, across pool threads.
    parent_span_id:
        ``span_id`` of the coordinator-side span that spawned this work;
        worker-recorded top-level spans parent-link to it.
    row_offset:
        Global tile-row index that the shipped work's local row 0 maps
        to.  Sharded engines slice ``A`` into 0-based sub-matrices; the
        worker harness re-bases its workload profile by this offset so
        tile-row-band attribution stays in whole-matrix coordinates.
    """

    trace_id: str
    parent_span_id: str = ""
    row_offset: int = 0


def span_id_of(ctx: "TraceContext", tag: str) -> str:
    """A deterministic child span id under ``ctx`` (used by coordinators
    to pre-assign ids to spans they will record after the fact)."""
    return f"{ctx.trace_id}/{tag}"


@dataclass
class WorkerTelemetry:
    """Everything one worker-side unit of work recorded, as plain data.

    Attributes
    ----------
    ctx:
        The :class:`TraceContext` the work ran under.
    worker:
        Track label: the name of the thread the work ran on
        (``repro-shard_<n>`` on a :class:`~repro.runtime.shards.ShardPool`).
    epoch_s:
        *Absolute* system-wide monotonic timestamp
        (:func:`time.perf_counter`) of the local tracer's epoch — what
        the coordinator subtracts to re-base span times.
    spans:
        Plain-dict span records (name, cat, start_s, dur_s, seq,
        parent_seq, args) with attrs coerced to native types.
    events:
        Instant markers recorded worker-side, same plain-dict shape.
    counters:
        ``(name, labels, value)`` triples from the worker's local
        metrics registry, for coordinator-side accumulation.
    profile:
        The worker's :meth:`~repro.obs.profile.WorkloadProfiler.to_payload`
        dict (``None`` when the worker recorded nothing) — the additive
        workload-profile state the coordinator absorbs.
    """

    ctx: TraceContext
    worker: str
    epoch_s: float
    spans: List[Dict[str, Any]] = field(default_factory=list)
    events: List[Dict[str, Any]] = field(default_factory=list)
    counters: List[Tuple[str, Dict[str, str], float]] = field(
        default_factory=list
    )
    profile: Optional[Dict[str, Any]] = None


def _worker_track() -> str:
    return threading.current_thread().name


def run_with_worker_obs(
    ctx: Optional[TraceContext], fn, *args: Any, **kwargs: Any
):
    """Run ``fn(*args, **kwargs)`` recording worker-local telemetry.

    Returns ``(result, WorkerTelemetry)``; with ``ctx=None`` the call is
    a plain ``fn(...)`` and the telemetry is ``None`` (the disabled
    path, so untraced runs pay one ``is None`` check).

    The local tracer and registry live only for this call: pool workers
    start with empty ambient context stacks, so entering a fresh
    :func:`~repro.obs.context.obs_context` here is what makes the shard
    body's existing instrumentation record *worker-side* spans instead
    of silently hitting the no-op singletons.

    If ``fn`` raises, the exception propagates unchanged (the spans of a
    failed shard die with it — the coordinator logs the failure event).
    """
    if ctx is None:
        return fn(*args, **kwargs), None
    tracer = Tracer()
    registry = MetricsRegistry()
    profiler = WorkloadProfiler()
    epoch_s = tracer.epoch_s
    with obs_context(
        tracer=tracer, metrics=registry, profile=profiler, trace_ctx=ctx
    ):
        with profile_row_offset(ctx.row_offset):
            result = fn(*args, **kwargs)
    telemetry = WorkerTelemetry(
        ctx=ctx, worker=_worker_track(), epoch_s=epoch_s
    )
    if profiler.runs:
        telemetry.profile = profiler.to_payload()
    for sp in tracer.spans:
        telemetry.spans.append(
            {
                "name": sp.name,
                "cat": sp.cat,
                "start_s": float(sp.start_s),
                "dur_s": float(sp.duration_s),
                "seq": int(sp.seq),
                "parent_seq": int(sp.parent_seq),
                "args": to_native(sp.args),
            }
        )
    for ev in tracer.events:
        if ev.ph != "i":
            continue
        telemetry.events.append(
            {
                "name": ev.name,
                "cat": ev.cat,
                "ts_s": float(ev.ts_s),
                "args": to_native(ev.args),
            }
        )
    for name, labels, value in registry.counter_items():
        telemetry.counters.append((name, dict(labels), float(value)))
    return result, telemetry


def absorb_telemetry(
    tracer,
    telemetry: Optional[WorkerTelemetry],
    *,
    epoch_s: Optional[float] = None,
    metrics=None,
    profile=None,
    pid: str = "workers",
) -> int:
    """Merge a :class:`WorkerTelemetry` into the coordinator's sinks.

    Parameters
    ----------
    tracer:
        The coordinator tracer (may be the null tracer — absorbed spans
        then vanish, which is the correct disabled behaviour).
    telemetry:
        The worker record; ``None`` is a no-op (returns 0).
    epoch_s:
        Absolute monotonic timestamp the destination timeline's zero
        corresponds to; defaults to the tracer's own epoch.  Worker span
        times are shifted by ``telemetry.epoch_s - epoch_s`` — exact on
        one machine because both sides stamped
        :func:`time.perf_counter`, which is system-wide monotonic.
    metrics:
        Optional coordinator registry; when given, the worker's counters
        are accumulated into it (counters only — merging is additive and
        order-free, exactly the property gauges and histograms lack).
    profile:
        Optional coordinator :class:`~repro.obs.profile.WorkloadProfiler`
        (or the null profiler); when given, the worker's profile payload
        is merged additively under the worker's track label.
    pid:
        Virtual process the worker tracks are drawn under.

    Returns the number of spans absorbed.

    Span links: worker span ``seq=k`` becomes
    ``{parent_span_id}/w{k}`` on track ``telemetry.worker``; its parent
    is the worker-local parent when it had one, else
    ``ctx.parent_span_id`` — so every absorbed span's parent link
    resolves either within the worker's own spans or at the
    coordinator-side span that spawned the work.
    """
    if telemetry is None:
        return 0
    if epoch_s is None:
        epoch_s = getattr(tracer, "epoch_s", telemetry.epoch_s)
    offset = telemetry.epoch_s - epoch_s
    ctx = telemetry.ctx
    base = ctx.parent_span_id or ctx.trace_id
    for sp in telemetry.spans:
        args = dict(sp["args"])
        args["trace_id"] = ctx.trace_id
        args["span_id"] = f"{base}/w{sp['seq']}"
        args["parent_span_id"] = (
            f"{base}/w{sp['parent_seq']}"
            if sp["parent_seq"] >= 0
            else ctx.parent_span_id
        )
        args["worker"] = telemetry.worker
        tracer.add_complete(
            sp["name"],
            max(sp["start_s"] + offset, 0.0),
            sp["dur_s"],
            pid=pid,
            tid=telemetry.worker,
            cat=sp["cat"],
            **args,
        )
    for ev in telemetry.events:
        args = dict(ev["args"])
        args["trace_id"] = ctx.trace_id
        args["worker"] = telemetry.worker
        tracer.instant(ev["name"], cat=ev["cat"], **args)
    if metrics is not None:
        for name, labels, value in telemetry.counters:
            metrics.inc(name, value, **labels)
    if profile is not None and telemetry.profile is not None:
        profile.absorb_payload(telemetry.profile, worker=telemetry.worker)
    return len(telemetry.spans)
