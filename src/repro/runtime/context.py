"""Execution context: the ambient memory budget and fault plan of a run.

The budget and the fault plan have to reach code that is many call frames
away from the caller who decided them — ``AllocationTracker`` instances
are constructed deep inside ``tile_spgemm`` and every baseline.  Rather
than threading two extra parameters through every signature, a run is
wrapped in an :func:`execution_context`; trackers and step hooks consult
the innermost active context.

This module deliberately imports nothing from the rest of the package so
that low-level modules (``repro.util.alloc``) can look it up lazily
without creating an import cycle.  Contexts nest: fields left ``None``
inherit from the enclosing context, so a caller can set a budget once and
an inner run refine it.

The stack is **per-thread** (:class:`threading.local`): the sharded
parallel engine (:mod:`repro.runtime.parallel`) runs shards on worker
threads, and a worker pushing/popping a shared stack would race with its
siblings.  Each thread starts with an empty stack, so pool workers inherit
nothing ambient — budgets and fault plans reach a shard as the explicit
``budget_bytes``/``fault_plan`` arguments the engine forwards.  Within one
thread the semantics are unchanged: a plain list, innermost context last.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional

__all__ = [
    "ExecutionContext",
    "execution_context",
    "current_context",
    "current_budget_bytes",
    "current_fault_plan",
    "note_step",
    "note_broadcast",
]


@dataclass(frozen=True)
class ExecutionContext:
    """The ambient constraints of one run.

    Attributes
    ----------
    budget_bytes:
        Logical device-memory budget; ``None`` means unbounded.
    fault_plan:
        A :class:`repro.runtime.faults.FaultPlan` (typed loosely to keep
        this module import-free), or ``None`` for fault-free execution.
    """

    budget_bytes: Optional[int] = None
    fault_plan: Optional[Any] = None


class _ThreadStack(threading.local):
    """Per-thread context stack; every thread starts empty."""

    def __init__(self) -> None:
        self.items: List[ExecutionContext] = []


_STACK = _ThreadStack()


def current_context() -> Optional[ExecutionContext]:
    """The innermost active context of this thread, or ``None``."""
    items = _STACK.items
    return items[-1] if items else None


def current_budget_bytes() -> Optional[int]:
    """The active memory budget, or ``None`` when unbounded."""
    ctx = current_context()
    return None if ctx is None else ctx.budget_bytes


def current_fault_plan() -> Optional[Any]:
    """The active fault plan, or ``None`` for fault-free execution."""
    ctx = current_context()
    return None if ctx is None else ctx.fault_plan


@contextmanager
def execution_context(
    budget_bytes: Optional[int] = None,
    fault_plan: Optional[Any] = None,
) -> Iterator[ExecutionContext]:
    """Activate a context for the duration of the ``with`` block.

    Fields left ``None`` inherit from the enclosing context, so nesting a
    bare ``execution_context()`` inside a budgeted one keeps the budget.
    """
    parent = current_context()
    if parent is not None:
        if budget_bytes is None:
            budget_bytes = parent.budget_bytes
        if fault_plan is None:
            fault_plan = parent.fault_plan
    ctx = ExecutionContext(budget_bytes=budget_bytes, fault_plan=fault_plan)
    _STACK.items.append(ctx)
    try:
        yield ctx
    finally:
        _STACK.items.pop()


def note_step(name: str, fault_plan: Optional[Any] = None) -> None:
    """Report entering algorithm step ``name`` to the active fault plan.

    A no-op without a plan.  The plan may raise a typed error here — that
    is the injection.
    """
    plan = fault_plan if fault_plan is not None else current_fault_plan()
    if plan is not None:
        plan.on_step(name)


def note_broadcast(stage: str, fault_plan: Optional[Any] = None) -> None:
    """Report one point-to-point transfer of a broadcast to the fault plan."""
    plan = fault_plan if fault_plan is not None else current_fault_plan()
    if plan is not None:
        plan.on_broadcast(stage)
