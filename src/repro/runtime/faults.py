"""Deterministic seeded fault injection for the resilience tests.

A :class:`FaultPlan` is a list of trigger specifications evaluated at the
three observation sites the library reports:

* **alloc** — every logical device allocation
  (:meth:`repro.util.alloc.AllocationTracker.alloc`);
* **step** — entry into a named algorithm phase (``step1``/``step2``/
  ``step3`` for the tiled path, ``analysis``/``symbolic``/``numeric`` for
  the baselines);
* **broadcast** — each point-to-point transfer of a SUMMA broadcast
  (:func:`repro.distributed.summa.summa_spgemm`).

Each spec can fire once at the N-th matching event (``at=``), on every
k-th matching event (``every=``), or with a seeded per-event probability
(``probability=``); an optional ``match=`` substring restricts which
events count.  All randomness comes from one seeded generator, so a plan
replays identically — the property the chunked-recovery and retry tests
rely on.

Counters are cumulative across retries by design: a one-shot ``at=N``
fault fires during the first attempt and *not* during the retry, which is
exactly how a transient fault behaves.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import CommFailure, DeviceOOMError, TransientKernelError
from repro.obs.context import current_obs

__all__ = ["FaultSpec", "FiredFault", "FaultPlan"]

_SITES = ("alloc", "step", "broadcast")
_ERRORS = ("oom", "transient", "comm")


@dataclass
class FaultSpec:
    """One injection trigger.

    Attributes
    ----------
    error:
        ``"oom"``, ``"transient"`` or ``"comm"`` — which typed error to
        raise when the trigger fires.
    site:
        ``"alloc"``, ``"step"`` or ``"broadcast"`` — which observation
        site the trigger watches.
    at:
        Fire exactly once, at the ``at``-th matching event (1-based).
    every:
        Fire at every ``every``-th matching event.
    probability:
        Fire independently per matching event with this probability.
    match:
        Substring filter on the event name (allocation label, step name or
        broadcast tag); ``None`` matches everything.
    """

    error: str
    site: str
    at: Optional[int] = None
    every: Optional[int] = None
    probability: float = 0.0
    match: Optional[str] = None
    matched: int = 0  #: matching events seen so far (cumulative)
    fired: int = 0  #: times this spec has fired

    def __post_init__(self) -> None:
        if self.error not in _ERRORS:
            raise ValueError(f"error must be one of {_ERRORS}, got {self.error!r}")
        if self.site not in _SITES:
            raise ValueError(f"site must be one of {_SITES}, got {self.site!r}")
        if self.at is None and self.every is None and self.probability <= 0.0:
            raise ValueError("spec needs one of at=, every= or probability=")


@dataclass(frozen=True)
class FiredFault:
    """Record of one injected fault (kept in :attr:`FaultPlan.fired`)."""

    error: str
    site: str
    name: str
    event_index: int  #: cumulative event count at this site when it fired


class FaultPlan:
    """A deterministic, seeded schedule of injected faults.

    Build a plan with the chainable helpers and hand it to ``tile_spgemm``,
    ``summa_spgemm`` or :func:`repro.runtime.parallel.parallel_tile_spgemm`::

        plan = FaultPlan(seed=7).oom_at_alloc(3).transient_at_step("step2", every=1)
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        self.specs: List[FaultSpec] = []
        self.counts = {site: 0 for site in _SITES}
        self.fired: List[FiredFault] = []

    # ------------------------------------------------------------ builders
    def inject(
        self,
        error: str,
        site: str,
        at: Optional[int] = None,
        every: Optional[int] = None,
        probability: float = 0.0,
        match: Optional[str] = None,
    ) -> "FaultPlan":
        """Add a trigger; returns ``self`` for chaining.

        With no ``at``/``every``/``probability`` given, the trigger fires
        once at the first matching event (``at=1``).
        """
        if at is None and every is None and probability <= 0.0:
            at = 1
        self.specs.append(
            FaultSpec(error=error, site=site, at=at, every=every, probability=probability, match=match)
        )
        return self

    def oom_at_alloc(
        self, at: Optional[int] = None, match: Optional[str] = None, every: Optional[int] = None
    ) -> "FaultPlan":
        """OOM at the ``at``-th allocation (or every/matching ones)."""
        return self.inject("oom", "alloc", at=at, every=every, match=match)

    def transient_at_step(
        self, match: Optional[str] = None, at: Optional[int] = None, every: Optional[int] = None
    ) -> "FaultPlan":
        """Transient kernel fault when a matching step begins."""
        return self.inject("transient", "step", at=at, every=every, match=match)

    def comm_at_broadcast(
        self, at: Optional[int] = None, match: Optional[str] = None, every: Optional[int] = None
    ) -> "FaultPlan":
        """Lost message at the ``at``-th (or matching) broadcast transfer."""
        return self.inject("comm", "broadcast", at=at, every=every, match=match)

    # ------------------------------------------------------------ plumbing
    def reset(self) -> None:
        """Forget all counters and history; reseed the generator."""
        self._rng = random.Random(self.seed)
        self.counts = {site: 0 for site in _SITES}
        self.fired = []
        for spec in self.specs:
            spec.matched = 0
            spec.fired = 0

    @property
    def num_fired(self) -> int:
        """Total faults injected so far."""
        return len(self.fired)

    def on_alloc(self, label: str, nbytes: int) -> None:
        """Observation hook: one logical device allocation."""
        self._observe("alloc", label, nbytes=nbytes)

    def on_step(self, name: str) -> None:
        """Observation hook: entry into a named algorithm step."""
        self._observe("step", name)

    def on_broadcast(self, stage: str) -> None:
        """Observation hook: one transfer of a SUMMA broadcast."""
        self._observe("broadcast", stage)

    def _observe(self, site: str, name: str, nbytes: int = 0) -> None:
        self.counts[site] += 1
        for spec in self.specs:
            if spec.site != site:
                continue
            if spec.match is not None and spec.match not in name:
                continue
            spec.matched += 1
            fire = False
            if spec.at is not None and spec.matched == spec.at:
                fire = True
            elif spec.every is not None and spec.matched % spec.every == 0:
                fire = True
            elif spec.probability > 0.0 and self._rng.random() < spec.probability:
                fire = True
            if fire:
                spec.fired += 1
                self.fired.append(FiredFault(spec.error, site, name, self.counts[site]))
                obs = current_obs()
                if obs.enabled:
                    obs.metrics.inc(
                        "faults_injected_total", error=spec.error, site=site
                    )
                    obs.tracer.instant(
                        "inject:" + spec.error, cat="fault", site=site, event=name
                    )
                raise self._make_error(spec, name, nbytes)

    def _make_error(self, spec: FaultSpec, name: str, nbytes: int) -> Exception:
        if spec.error == "oom":
            return DeviceOOMError(name, nbytes, live_bytes=0, budget_bytes=None)
        if spec.error == "comm":
            return CommFailure(name, "injected fault")
        return TransientKernelError(name, "injected fault")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan(seed={self.seed}, specs={len(self.specs)}, fired={len(self.fired)})"
