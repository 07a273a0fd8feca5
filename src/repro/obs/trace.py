"""Hierarchical span tracing with Chrome trace-event (Perfetto) export.

The paper's evaluation lives and dies by *seeing inside* the three-step
algorithm (Figures 10/14 are runtime breakdowns per step); a production
deployment additionally needs to see retries, re-splits and chunked
re-execution batches.  A :class:`Tracer` records **spans** — named
begin/end intervals with attributes, nested like call frames — plus
instant markers and counter samples, and serialises everything as a
Chrome trace-event JSON document loadable in Perfetto or
``chrome://tracing``.

Design constraints honoured here:

* **zero-cost when disabled** — :data:`NULL_TRACER` returns one shared
  re-entrant no-op context manager from :meth:`NullTracer.span`, so a
  guarded call site costs a method call and nothing else;
* **deterministic structure** — span names, nesting, ordering and
  attributes depend only on the algorithm's decisions (deterministic
  under a seeded :class:`~repro.runtime.faults.FaultPlan`); only the
  timestamps vary run to run, and the ``clock`` parameter lets tests pin
  those too;
* **safe from several threads** — each thread keeps its own span stack,
  so pool threads nest their spans correctly while recording into the
  run's one tracer; :meth:`Tracer.track` lays a thread's spans on a
  worker track and links them to the span that spawned the work;
* **no upward imports** — this module depends on the standard library
  only, so every layer of the package may use it freely.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Span",
    "TraceEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "DEFAULT_PROCESS",
    "DEFAULT_THREAD",
]

#: Default virtual process/thread the host-side spans are laid on.
DEFAULT_PROCESS = "repro"
DEFAULT_THREAD = "pipeline"


@dataclass
class Span:
    """One completed begin/end interval.

    Attributes
    ----------
    name, cat:
        Span name (e.g. ``"step2"``) and category (``"step"``,
        ``"kernel"``, ``"resilience"``, ``"chunked"``, ``"summa"``...).
    start_s, end_s:
        Seconds since the tracer's epoch.
    depth:
        Nesting depth at begin time (0 = top level).
    seq:
        Begin-order sequence number (total order of span begins).
    parent_seq:
        ``seq`` of the enclosing span, or ``-1`` at top level.
    pid, tid:
        Virtual process/track the span is drawn on.
    args:
        Attributes attached at begin time (JSON-serialisable values).
    """

    name: str
    cat: str
    start_s: float
    end_s: float = 0.0
    depth: int = 0
    seq: int = 0
    parent_seq: int = -1
    pid: str = DEFAULT_PROCESS
    tid: str = DEFAULT_THREAD
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        """Wall-clock span length in seconds."""
        return max(self.end_s - self.start_s, 0.0)


@dataclass(frozen=True)
class TraceEvent:
    """A non-span event: instant marker (``ph="i"``) or counter sample
    (``ph="C"``)."""

    ph: str
    name: str
    cat: str
    ts_s: float
    pid: str
    tid: str
    args: Dict[str, Any]


@dataclass(frozen=True)
class _Track:
    """Where one thread's spans go while a :meth:`Tracer.track` is open."""

    pid: str
    tid: str
    trace_id: str
    parent_span_id: str
    base: str  #: prefix of the span ids minted on this track
    depth: int  #: stack depth at entry; shallower spans are not on the track


class _ThreadState(threading.local):
    """One thread's open spans and active track; every thread starts empty."""

    def __init__(self) -> None:
        self.stack: List[Span] = []
        self.track: Optional[_Track] = None


class Tracer:
    """Records hierarchical spans and exports Chrome trace-event JSON.

    Several threads may record into one tracer at once: each has its own
    span stack, and appends to the span and event lists are atomic.

    Parameters
    ----------
    clock:
        Monotonic time source in seconds (default
        :func:`time.perf_counter`).  Tests inject a fake incrementing
        clock to make timestamps — not just structure — deterministic.

    Examples
    --------
    >>> ticks = iter(range(100))
    >>> t = Tracer(clock=lambda: float(next(ticks)))
    >>> with t.span("step1", cat="step", tiles=4):
    ...     with t.span("intersect"):
    ...         pass
    >>> [s.name for s in t.spans], [s.depth for s in t.spans]
    (['intersect', 'step1'], [1, 0])
    """

    enabled: bool = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._epoch = clock()
        self.spans: List[Span] = []  #: completed spans, in *end* order
        self.events: List[TraceEvent] = []
        self._local = _ThreadState()
        self._seq = itertools.count()

    @property
    def epoch_s(self) -> float:
        """Absolute clock value of this tracer's zero point.

        Under the default :func:`time.perf_counter` clock,
        ``perf_counter() - epoch_s`` is a time on this tracer's timeline:
        what callers that time a span themselves (the serve tier's
        request spans) pass to :meth:`add_complete`.
        """
        return self._epoch

    # ------------------------------------------------------------- recording
    def _now(self) -> float:
        return self._clock() - self._epoch

    @contextmanager
    def span(
        self,
        name: str,
        cat: str = "phase",
        pid: str = DEFAULT_PROCESS,
        tid: str = DEFAULT_THREAD,
        **attrs: Any,
    ) -> Iterator[Span]:
        """Open a span for the duration of the ``with`` block.

        Inside a :meth:`track` the span goes on the track's ``(pid,
        tid)`` instead, with ``trace_id`` / ``span_id`` /
        ``parent_span_id`` / ``worker`` attributes.
        """
        local = self._local
        stack = local.stack
        parent = stack[-1] if stack else None
        seq = next(self._seq)
        track = local.track
        if track is not None:
            pid, tid = track.pid, track.tid
            attrs["trace_id"] = track.trace_id
            attrs["span_id"] = f"{track.base}/w{seq}"
            attrs["parent_span_id"] = (
                f"{track.base}/w{parent.seq}"
                if len(stack) > track.depth
                else track.parent_span_id
            )
            attrs["worker"] = tid
        sp = Span(
            name=name,
            cat=cat,
            start_s=self._now(),
            depth=len(stack),
            seq=seq,
            parent_seq=parent.seq if parent is not None else -1,
            pid=pid,
            tid=tid,
            args=dict(attrs),
        )
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end_s = self._now()
            stack.pop()
            self.spans.append(sp)

    @contextmanager
    def track(
        self, pid: str, tid: str, trace_id: str, parent_span_id: str = ""
    ) -> Iterator[None]:
        """Lay this thread's spans on ``(pid, tid)`` for the ``with`` block.

        Each span opened inside gets ``trace_id``, a ``span_id`` of
        ``{base}/w{seq}`` (``base`` is ``parent_span_id``, or ``trace_id``
        when that is empty) and a ``parent_span_id`` naming the enclosing
        span on this thread, or ``parent_span_id`` at the track's top
        level — so every link resolves within the tracer.  Other threads
        are unaffected.
        """
        local = self._local
        prev = local.track
        local.track = _Track(
            pid,
            tid,
            trace_id,
            parent_span_id,
            parent_span_id or trace_id,
            len(local.stack),
        )
        try:
            yield
        finally:
            local.track = prev

    def instant(self, name: str, cat: str = "event", **attrs: Any) -> None:
        """Record a zero-duration marker (faults, retries, selections).

        Inside a :meth:`track` the marker carries the track's
        ``trace_id`` and ``worker``.
        """
        track = self._local.track
        if track is not None:
            attrs["trace_id"] = track.trace_id
            attrs["worker"] = track.tid
        self.events.append(
            TraceEvent("i", name, cat, self._now(), DEFAULT_PROCESS, DEFAULT_THREAD, dict(attrs))
        )

    def counter(self, name: str, value: float, cat: str = "counter") -> None:
        """Record a counter sample (drawn as a stacked chart in Perfetto)."""
        self.events.append(
            TraceEvent(
                "C", name, cat, self._now(), DEFAULT_PROCESS, DEFAULT_THREAD, {name: value}
            )
        )

    def add_complete(
        self,
        name: str,
        start_s: float,
        duration_s: float,
        pid: str,
        tid: str,
        cat: str = "gpu",
        **attrs: Any,
    ) -> None:
        """Add an externally-timed complete span (virtual GPU tracks).

        ``start_s`` is relative to the tracer's epoch; the GPU timeline
        helpers use this to lay modelled warp tasks onto virtual SM/slot
        tracks with times that come from the scheduler, not the clock.
        """
        sp = Span(
            name=name,
            cat=cat,
            start_s=start_s,
            end_s=start_s + max(duration_s, 0.0),
            depth=0,
            seq=next(self._seq),
            parent_seq=-1,
            pid=pid,
            tid=tid,
            args=dict(attrs),
        )
        self.spans.append(sp)

    # ------------------------------------------------------------- queries
    @property
    def open_spans(self) -> Tuple[str, ...]:
        """Names of the calling thread's open spans (innermost last)."""
        return tuple(sp.name for sp in self._local.stack)

    def find(self, name: str) -> List[Span]:
        """All completed spans with the given name, in begin order."""
        return sorted((s for s in self.spans if s.name == name), key=lambda s: s.seq)

    def total_seconds(self, name: str) -> float:
        """Summed duration of all completed spans named ``name``."""
        return sum(s.duration_s for s in self.spans if s.name == name)

    # ------------------------------------------------------------- export
    def to_chrome_trace(self) -> Dict[str, Any]:
        """The trace as a Chrome trace-event JSON object.

        Uses the JSON-object format (``{"traceEvents": [...]}``) with
        complete (``"X"``), instant (``"i"``), counter (``"C"``) and
        process/thread-name metadata (``"M"``) events.  Timestamps are
        microseconds since the tracer epoch, as the format requires.
        """
        from repro.obs.native import to_native

        events: List[Dict[str, Any]] = []
        tracks: Dict[Tuple[str, str], None] = {}
        for sp in sorted(self.spans, key=lambda s: (s.start_s, s.seq)):
            tracks.setdefault((sp.pid, sp.tid))
            events.append(
                {
                    "name": sp.name,
                    "cat": sp.cat,
                    "ph": "X",
                    "ts": sp.start_s * 1e6,
                    "dur": sp.duration_s * 1e6,
                    "pid": sp.pid,
                    "tid": sp.tid,
                    # Coerce at export time: span attrs routinely pick up
                    # NumPy scalars (nnz counts, timings) and json.dump
                    # refuses the integer kinds.
                    "args": to_native(sp.args),
                }
            )
        for ev in self.events:
            tracks.setdefault((ev.pid, ev.tid))
            record: Dict[str, Any] = {
                "name": ev.name,
                "cat": ev.cat,
                "ph": ev.ph,
                "ts": ev.ts_s * 1e6,
                "pid": ev.pid,
                "tid": ev.tid,
                "args": to_native(ev.args),
            }
            if ev.ph == "i":
                record["s"] = "t"  # instant scope: thread
            events.append(record)
        meta: List[Dict[str, Any]] = []
        for pid, tid in tracks:
            meta.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": pid},
                }
            )
            meta.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": tid},
                }
            )
        return {"traceEvents": meta + events, "displayTimeUnit": "ms"}

    def write(self, path) -> None:
        """Serialise :meth:`to_chrome_trace` to ``path`` as JSON.

        Attribute values are coerced to native Python types first, and
        anything still non-serialisable degrades to its ``str()`` — a
        stray object attribute must never cost the whole trace.
        """
        from repro.obs.native import json_default

        with open(path, "w") as fh:
            json.dump(self.to_chrome_trace(), fh, default=json_default)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tracer(spans={len(self.spans)}, events={len(self.events)})"


class _NullSpan:
    """Shared re-entrant no-op context manager (one instance, ever)."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every method is a no-op.

    ``span()`` returns one shared context manager object so disabled
    tracing allocates nothing per call — the zero-overhead property the
    observability tests assert by counting calls on a subclass.
    """

    enabled: bool = False

    def span(self, name: str, cat: str = "phase", **attrs: Any):
        return _NULL_SPAN

    def instant(self, name: str, cat: str = "event", **attrs: Any) -> None:
        pass

    def counter(self, name: str, value: float, cat: str = "counter") -> None:
        pass

    def add_complete(self, *args: Any, **kwargs: Any) -> None:
        pass

    def track(self, *args: Any, **kwargs: Any):
        return _NULL_SPAN


#: Singleton used by the default (disabled) observability context.
NULL_TRACER = NullTracer()
