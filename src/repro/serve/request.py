"""Request/response contract of the async serving tier.

A request is one multiply submitted by one client ("tenant"): operands,
an optional deadline, an optional per-request memory budget and an
optional fault plan.  A response is the *terminal* record of that
request — exactly one of the four outcomes below, always delivered, so a
submitter can account for every request it sent:

* :data:`OUTCOME_SERVED` — the product, byte-identical to a serial
  :func:`~repro.core.tilespgemm.tile_spgemm` run;
* :data:`OUTCOME_SHED` — rejected at admission (queue full, or the
  upfront cost estimate would blow the device budget); carries a
  :class:`~repro.errors.ServiceOverloadError`;
* :data:`OUTCOME_DEADLINE` — the deadline passed before completion;
  carries a :class:`~repro.errors.DeadlineExceededError`;
* :data:`OUTCOME_EXHAUSTED` — recovery ran out of road (a single tile
  row still over budget, transient retries spent, the worker pool broken
  beyond replacement); carries a
  :class:`~repro.errors.ResilienceExhausted`.

The outcome strings double as the ``outcome`` label of the
``serve_outcomes_total`` Prometheus counter, and every error maps onto
the CLI exit-code contract via :func:`repro.errors.exit_code_for`.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.errors import (
    DeadlineExceededError,
    ResilienceExhausted,
    ServiceOverloadError,
)

__all__ = [
    "OUTCOME_SERVED",
    "OUTCOME_SHED",
    "OUTCOME_DEADLINE",
    "OUTCOME_EXHAUSTED",
    "OUTCOMES",
    "outcome_for",
    "ServeRequest",
    "ServeResponse",
]

OUTCOME_SERVED = "served"
OUTCOME_SHED = "shed"
OUTCOME_DEADLINE = "deadline"
OUTCOME_EXHAUSTED = "exhausted"

#: Every terminal state of a request, in severity order.
OUTCOMES: Tuple[str, ...] = (
    OUTCOME_SERVED,
    OUTCOME_SHED,
    OUTCOME_DEADLINE,
    OUTCOME_EXHAUSTED,
)


def outcome_for(exc: BaseException) -> str:
    """The outcome label a failed request terminates with."""
    if isinstance(exc, ServiceOverloadError):
        return OUTCOME_SHED
    if isinstance(exc, DeadlineExceededError):
        return OUTCOME_DEADLINE
    return OUTCOME_EXHAUSTED


@dataclass
class ServeRequest:
    """One queued multiply (service-internal).

    Attributes
    ----------
    a, b:
        Tiled operands (the service tiles CSR submissions through the
        process-wide :class:`~repro.runtime.tilecache.TileCache`).
    tenant, seq:
        Client identity and its 0-based per-tenant submission index;
        together they name the request in traces and error messages.
    deadline_s:
        Wall-clock budget measured from submission; ``None`` = none.
    budget_bytes:
        Per-request logical device-memory budget enforced on every shard.
    fault_plan:
        Optional :class:`~repro.runtime.faults.FaultPlan` threaded into
        every shard of this request (isolation: other requests never see
        this plan's faults).
    trace_id:
        The trace identity assigned at submission; the request span and
        every span its pool threads record carry it.
    admitted_bytes:
        Bytes this request reserved against the admission controller's
        aggregate in-flight gate; released exactly once at the terminal
        response (0 = no reservation held).
    submitted_s:
        Service-clock timestamp of admission.
    done:
        Future resolved with the :class:`ServeResponse`; what
        ``submit()`` awaits.
    order_prev, order_gate:
        The per-tenant ordering chain: ``done`` is not resolved until
        ``order_prev`` (the previous request's gate) is, and
        ``order_gate`` is resolved right after — so responses arrive in
        submission order per tenant even when later requests finish
        first.
    """

    a: object
    b: object
    tenant: str
    seq: int
    deadline_s: Optional[float] = None
    budget_bytes: Optional[int] = None
    fault_plan: Optional[object] = None
    trace_id: str = ""
    admitted_bytes: int = 0
    submitted_s: float = 0.0
    done: Optional["asyncio.Future"] = field(default=None, repr=False)
    order_prev: Optional["asyncio.Future"] = field(default=None, repr=False)
    order_gate: Optional["asyncio.Future"] = field(default=None, repr=False)

    @property
    def name(self) -> str:
        return f"{self.tenant}#{self.seq}"


@dataclass
class ServeResponse:
    """The terminal record of one request.

    Exactly one of ``c`` (served) and ``error`` (shed / deadline /
    exhausted) is set.  The bookkeeping fields tell the story of the
    execution: how long the request queued, how many shards ran, how
    often a budget blow-up forced a re-split, how many transient retries
    and worker-pool replacements it took.
    """

    tenant: str
    seq: int
    outcome: str
    c: Optional[object] = None
    error: Optional[BaseException] = None
    trace_id: str = ""
    latency_s: float = 0.0
    queue_s: float = 0.0
    shards_run: int = 0
    resplits: int = 0
    retries: int = 0
    pool_replacements: int = 0

    @property
    def ok(self) -> bool:
        """True when the request was served."""
        return self.outcome == OUTCOME_SERVED

    def result_or_raise(self):
        """The product, or the typed error the request terminated with."""
        if self.ok:
            return self.c
        raise self.error
