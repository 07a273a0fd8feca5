"""Phase timing used to reproduce the paper's runtime-breakdown figures.

The paper reports (Figures 10 and 14) how TileSpGEMM's runtime splits
across *step 1* (tile layout), *step 2* (symbolic), *step 3* (numeric) and
*memory allocation*.  Every algorithm in this repository therefore runs
under a :class:`PhaseTimer` that accumulates wall-clock time per named
phase, so the breakdown benches can read the split straight off the result
object.

:meth:`PhaseTimer.phase` is the one place a phase is timed.  Under a live
tracer (:func:`repro.obs.context.current_obs`) it opens that tracer's
``cat="step"`` span and credits the timer with the span's own
``duration_s``; otherwise it reads :func:`time.perf_counter` at entry and
exit.  Either way each phase is measured once, so ``result.timer``, the
trace's step spans and
:func:`repro.analysis.profiling.breakdown_from_trace` all report the same
numbers.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator

from repro.obs.context import current_obs

__all__ = ["PhaseTimer"]


class PhaseTimer:
    """Accumulates wall-clock seconds per named phase.

    Phases may be entered repeatedly; durations add up.  Nested phases are
    allowed and accounted independently (the outer phase includes the inner
    one, exactly like CUDA event ranges around nested kernels would).

    .. warning::
       Because nested phases are accounted independently, :attr:`total`
       **double-counts** time spent inside a nested phase: the inner
       phase's seconds are also part of the outer phase's seconds.  For a
       breakdown of *disjoint* buckets, time sibling phases at one level
       (as the pipeline's ``step1``/``step2``/``step3``/``malloc`` phases
       are) or subtract the inner phases yourself.

    Examples
    --------
    >>> timer = PhaseTimer()
    >>> with timer.phase("step1"):
    ...     pass
    >>> "step1" in timer.seconds
    True

    Nested phases overlap, so ``total`` exceeds real wall-clock time:

    >>> t = PhaseTimer()
    >>> t.add("outer", 2.0)   # outer phase, includes the inner one
    >>> t.add("inner", 0.5)   # also counted inside "outer"
    >>> t.total               # 2.5 "phase-seconds" for 2.0s of wall clock
    2.5
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}

    @contextmanager
    def phase(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        """Context manager timing one execution of phase ``name``.

        Under a live tracer the phase is that tracer's ``cat="step"``
        span (carrying ``attrs``) and the timer is credited with the
        span's duration; untraced, ``attrs`` are unused.  The block gets
        the span's attributes, to add what it learns while it runs.
        """
        tracer = current_obs().tracer
        if not tracer.enabled:
            start = time.perf_counter()
            try:
                yield attrs
            finally:
                self._record(name, time.perf_counter() - start)
            return
        try:
            with tracer.span(name, cat="step", **attrs) as sp:
                yield sp.args
        finally:
            self._record(name, sp.duration_s)

    def add(self, name: str, seconds: float) -> None:
        """Manually credit ``seconds`` to phase ``name``."""
        if seconds < 0:
            raise ValueError("cannot add negative time")
        self._record(name, seconds)

    def _record(self, name: str, elapsed: float) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
        self._counts[name] = self._counts.get(name, 0) + 1

    def count(self, name: str) -> int:
        """Number of times phase ``name`` was entered."""
        return self._counts.get(name, 0)

    @property
    def total(self) -> float:
        """Sum of all phase times in seconds.

        Nested phases overlap (see the class warning), so this is the sum
        of *phase-seconds*, not necessarily elapsed wall-clock time.
        """
        return sum(self.seconds.values())

    def fractions(self) -> Dict[str, float]:
        """Per-phase fraction of the total (empty dict if nothing timed)."""
        total = self.total
        if total <= 0.0:
            return {}
        return {name: sec / total for name, sec in self.seconds.items()}

    def merge(self, other: "PhaseTimer") -> None:
        """Fold another timer's accumulated phases into this one.

        Totals and counts add.  Phase ordering is deterministic: this
        timer's existing phases keep their positions, and ``other``'s new
        phases append in ``other``'s insertion order — so merging the same
        sequence of timers always yields the same ``seconds`` key order.
        """
        for name, sec in other.seconds.items():
            self.seconds[name] = self.seconds.get(name, 0.0) + sec
        for name, cnt in other._counts.items():
            self._counts[name] = self._counts.get(name, 0) + cnt

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{k}={v * 1e3:.3f}ms" for k, v in sorted(self.seconds.items()))
        return f"PhaseTimer({parts})"
