"""Memory-allocation tracking used to reproduce the paper's Figure 9.

Figure 9 of the paper plots, for every SpGEMM method, the *peak runtime
space cost* against completion time: each library allocates and frees
device buffers as it moves through its phases, and the curve of live bytes
over time is the quantity of interest (bhSPARSE's intermediate-product
expansion dominates, TileSpGEMM allocates no global intermediate space at
all).

Every algorithm in this repository routes its logical buffer lifetime
through an :class:`AllocationTracker`.  The tracker records an event log
(``alloc``/``free`` with a label, byte size and phase), maintains the live
total and the running peak, and can replay the log as a step curve for the
memory-over-time bench.

Note the tracker tracks the *algorithm's logical allocations* (what a CUDA
implementation would cudaMalloc), not Python's interpreter heap — that is
exactly the substitution DESIGN.md documents for the absent GPU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import DeviceOOMError
from repro.obs.context import current_obs

__all__ = ["AllocationEvent", "AllocationTracker"]


@dataclass(frozen=True)
class AllocationEvent:
    """One allocation or free in the logical device-memory log."""

    kind: str  #: ``"alloc"`` or ``"free"``
    label: str  #: human-readable buffer name, e.g. ``"tileNnz_C"``
    nbytes: int  #: size of the buffer
    phase: str  #: algorithm phase active when the event happened
    live_after: int  #: total live bytes immediately after this event


class AllocationTracker:
    """Logical device-memory ledger with peak tracking.

    The tracker is deliberately strict: freeing an unknown label or
    double-freeing raises, because those are real bugs in the algorithm's
    buffer lifecycle that a CUDA implementation would hit as well.

    Parameters
    ----------
    budget_bytes:
        Optional device-memory budget.  An allocation that would push the
        live total past the budget raises
        :class:`~repro.errors.DeviceOOMError` *before* any state changes —
        the tracker stays consistent, exactly like a failed ``cudaMalloc``.
    fault_plan:
        Optional :class:`~repro.runtime.faults.FaultPlan` consulted before
        every allocation; the plan may raise a typed error there — that is
        the injection.
    use_context:
        When true (the default), every allocation is recorded in the
        active observability context (``device_alloc_*`` counters, the
        ``device_live_bytes`` trace counter).  False makes a detached
        ledger that describes a run rather than being one: the stitched
        ledger (:func:`~repro.runtime.chunked.stitch_results`) and the
        priced serial ledger (:func:`~repro.core.tilespgemm.serial_ledger`)
        replay allocations that already happened, so they do not count
        them again.
    """

    def __init__(
        self,
        budget_bytes: Optional[int] = None,
        *,
        fault_plan=None,
        use_context: bool = True,
    ) -> None:
        self.events: List[AllocationEvent] = []
        self._live: Dict[str, int] = {}
        self.live_bytes: int = 0
        self.peak_bytes: int = 0
        self.total_allocated: int = 0
        self.current_phase: str = ""
        self.fault_plan = fault_plan
        self._record = use_context
        self.budget_bytes: Optional[int] = None if budget_bytes is None else int(budget_bytes)

    def set_phase(self, phase: str) -> None:
        """Tag subsequent events with the given phase name."""
        self.current_phase = phase

    def alloc(self, label: str, nbytes: int) -> None:
        """Record the allocation of buffer ``label`` of ``nbytes`` bytes.

        Raises :class:`~repro.errors.DeviceOOMError` when a budget is set
        and the allocation would exceed it; the tracker state is untouched
        in that case, so a recovery layer can resume from a clean ledger.
        """
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError(f"negative allocation for {label!r}: {nbytes}")
        if label in self._live:
            raise ValueError(f"buffer {label!r} allocated twice without free")
        if self.fault_plan is not None:
            self.fault_plan.on_alloc(label, nbytes)
        if self.budget_bytes is not None and self.live_bytes + nbytes > self.budget_bytes:
            raise DeviceOOMError(label, nbytes, self.live_bytes, self.budget_bytes)
        self._live[label] = nbytes
        self.live_bytes += nbytes
        self.total_allocated += nbytes
        self.peak_bytes = max(self.peak_bytes, self.live_bytes)
        self.events.append(
            AllocationEvent("alloc", label, nbytes, self.current_phase, self.live_bytes)
        )
        if self._record:
            obs = current_obs()
            if obs.enabled:
                obs.metrics.inc("device_alloc_events_total")
                obs.tracer.counter("device_live_bytes", self.live_bytes)

    def alloc_array(self, label: str, array) -> None:
        """Record an allocation sized from a NumPy array's ``nbytes``."""
        self.alloc(label, int(array.nbytes))

    def free(self, label: str) -> None:
        """Record the release of buffer ``label``."""
        if label not in self._live:
            raise ValueError(f"free of unknown buffer {label!r}")
        nbytes = self._live.pop(label)
        self.live_bytes -= nbytes
        self.events.append(
            AllocationEvent("free", label, nbytes, self.current_phase, self.live_bytes)
        )
        if self._record:
            obs = current_obs()
            if obs.enabled:
                obs.tracer.counter("device_live_bytes", self.live_bytes)

    def free_all(self) -> None:
        """Release every live buffer (end-of-algorithm cleanup)."""
        for label in list(self._live):
            self.free(label)

    def live_labels(self) -> Tuple[str, ...]:
        """Currently live buffer labels (insertion order)."""
        return tuple(self._live)

    def timeline(self, total_seconds: Optional[float] = None) -> List[Tuple[float, int]]:
        """Replay the log as a ``(time, live_bytes)`` step curve.

        Events are spaced evenly across ``total_seconds`` (default: one
        unit per event), which matches how the paper's Figure 9 tooling
        samples the allocator between phases.
        """
        n = len(self.events)
        if n == 0:
            return [(0.0, 0)]
        span = float(total_seconds) if total_seconds is not None else float(n)
        step = span / n
        return [(step * (i + 1), ev.live_after) for i, ev in enumerate(self.events)]

    def peak_by_phase(self) -> Dict[str, int]:
        """Maximum live bytes observed within each phase."""
        peaks: Dict[str, int] = {}
        for ev in self.events:
            peaks[ev.phase] = max(peaks.get(ev.phase, 0), ev.live_after)
        return peaks
