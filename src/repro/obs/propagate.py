"""Trace identity across pool threads: which request caused this work.

Pool threads record straight into the run's own tracer (see
:meth:`repro.obs.trace.Tracer.track`); what they need from the
coordinator is only the identity to record under.  A
:class:`TraceContext` carries it: the engines put one in the ambient
context of each traced pooled range, so nested engines keep attributing
work to the request (or multiply) that caused it.

Span identity lives in span *attributes*, not in a schema change:
``args["span_id"]`` names a span, ``args["parent_span_id"]`` points at
its parent, and ``args["trace_id"]`` groups everything one request (or
one parallel multiply) caused.  A Perfetto/Chrome viewer renders the
spans on their worker tracks; the analysis layer and the tests resolve
the links explicitly.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

__all__ = ["TraceContext", "new_trace_id"]

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
        ``span_id`` of the span that spawned this work; engines nested
        inside it link their own spans under it.
    """

    trace_id: str
    parent_span_id: str = ""
