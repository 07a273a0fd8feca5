"""Retry/backoff policy engine: the resilient front door of the library.

:func:`run_resilient` wraps one SpGEMM under three recovery mechanisms,
applied in order of increasing cost:

1. **Chunked re-execution** on :class:`~repro.errors.DeviceOOMError` —
   the ``tilespgemm`` rung is one inline run of the shard engine
   (:mod:`repro.runtime.shards`), which halves the over-budget tile-row
   range until it fits (or a single tile row still does not).  The
   result stays bit-identical to the single-shot product.
2. **Exponential backoff** on :class:`~repro.errors.TransientKernelError`
   (and :class:`~repro.errors.CommFailure`) — the modelled wait time is
   charged to the result's timer and to the estimated runtime, because a
   production system pays it for real.
3. **Algorithm fallback** once retries are exhausted — the run degrades
   down a ladder of progressively simpler methods (default
   ``tilespgemm → nsparse_hash → gustavson``), trading speed for the
   smaller attack surface of the simpler kernels.

:class:`~repro.errors.InvalidInputError` is never retried — it is the
caller's bug, re-raised immediately.  If the last rung also fails,
:class:`~repro.errors.ResilienceExhausted` chains the final error.

Every outcome is recorded in a :class:`ResilienceReport`: the attempt
log, the faults seen, the batch count of the winning run, and whether the
result came from a degraded (fallback) method.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.errors import (
    DeviceOOMError,
    InvalidInputError,
    ResilienceExhausted,
    TransientKernelError,
)
from repro.obs.context import current_obs
from repro.runtime.context import execution_context

__all__ = [
    "RetryPolicy",
    "AttemptRecord",
    "ResilienceReport",
    "ResilientResult",
    "backoff_wait",
    "run_resilient",
]

#: Default fallback ladder: the paper's method, then the NSPARSE-strategy
#: hash baseline, then the reference row-row loop.
DEFAULT_LADDER: Tuple[str, ...] = ("tilespgemm", "nsparse_hash", "gustavson")


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs of the recovery behaviour.

    Attributes
    ----------
    max_retries:
        Transient-fault retries per tile-row range (shard engine) or per
        baseline rung before giving up.
    backoff_base_s, backoff_factor, max_backoff_s:
        Exponential backoff: retry ``k`` waits
        ``min(base * factor**k, max)`` modelled seconds.
    jitter_frac:
        Fraction of the wait randomised away: retry ``k`` waits
        ``wait * (1 + jitter_frac * u_k)`` with ``u_k`` drawn uniformly
        from ``[-1, 1]`` by a generator seeded from ``jitter_seed`` and
        ``k`` — deterministic per (seed, retry), so two runs of the same
        policy wait identically.  ``0`` (default) disables jitter.
    jitter_seed:
        Seed of the deterministic jitter stream.
    sleep:
        Optional callable invoked with each computed wait.  ``None``
        (default) keeps the backoff *modelled-only* — charged to timers
        and estimates but never actually slept, so unit tests stay
        instant.  Pass :func:`time.sleep` for real wall-clock backoff in
        a synchronous deployment; the async serving tier
        (:mod:`repro.serve`) computes the same waits via
        :func:`backoff_wait` and ``await``\\ s them on the event loop
        instead of blocking it.
    ladder:
        Method names tried in order; the first is the primary.
    """

    max_retries: int = 3
    backoff_base_s: float = 1e-3
    backoff_factor: float = 2.0
    max_backoff_s: float = 1.0
    jitter_frac: float = 0.0
    jitter_seed: int = 0
    sleep: Optional[Callable[[float], None]] = None
    ladder: Tuple[str, ...] = DEFAULT_LADDER

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise InvalidInputError(f"max_retries must be >= 0, got {self.max_retries}")


@dataclass(frozen=True)
class AttemptRecord:
    """One attempt of one ladder rung."""

    method: str
    batches: int
    outcome: str  #: ``"ok"`` or the exception class name
    error: str = ""  #: stringified error for failed attempts
    backoff_s: float = 0.0  #: modelled wait charged before the *next* attempt


@dataclass
class ResilienceReport:
    """What it took to produce the result."""

    attempts: List[AttemptRecord] = field(default_factory=list)
    faults: List[str] = field(default_factory=list)
    batches: int = 1  #: batch count of the successful run
    degraded: bool = False  #: True when a fallback method produced the result
    method: str = ""  #: method that produced the result
    backoff_s: float = 0.0  #: total modelled backoff wait
    budget_bytes: Optional[int] = None

    @property
    def num_attempts(self) -> int:
        """Total attempts across all rungs."""
        return len(self.attempts)

    @property
    def num_faults(self) -> int:
        """Faults observed across all rungs."""
        return len(self.faults)


@dataclass
class ResilientResult:
    """A product plus the story of how it was obtained.

    Attributes
    ----------
    c:
        The product: a :class:`~repro.core.tile_matrix.TileMatrix` when
        the tiled path succeeded, a CSR matrix from a fallback method.
    result:
        The underlying ``TileSpGEMMResult`` / ``SpGEMMResult``.
    report:
        The :class:`ResilienceReport`.
    estimate:
        GPU cost-model estimate of the successful run (when ``device``
        was given); excludes backoff.
    estimated_seconds:
        Estimate *including* the modelled backoff waits.
    """

    c: object
    result: object
    report: ResilienceReport
    estimate: Optional[object] = None
    estimated_seconds: Optional[float] = None

    def c_csr(self):
        """The product in CSR form regardless of which path produced it."""
        return self.c.to_csr() if hasattr(self.c, "to_csr") else self.c


def run_resilient(
    a,
    b,
    device=None,
    policy: Optional[RetryPolicy] = None,
    budget_bytes: Optional[int] = None,
    fault_plan=None,
    **tile_kwargs,
) -> ResilientResult:
    """Multiply ``a @ b`` under the full recovery policy.

    Parameters
    ----------
    a, b:
        Operands as :class:`~repro.core.tile_matrix.TileMatrix` or CSR;
        whichever form a rung needs is converted once and cached.
    device:
        Optional :class:`~repro.gpu.device.DeviceModel`; when given, the
        result carries a cost-model estimate with backoff charged.  If
        ``budget_bytes`` is unset, the device's Table-1 DRAM capacity
        becomes the budget.
    policy:
        A :class:`RetryPolicy` (defaults apply when ``None``).
    budget_bytes:
        Logical device-memory budget enforced on every attempt.
    fault_plan:
        Optional :class:`~repro.runtime.faults.FaultPlan`; its counters
        run cumulatively across attempts, so one-shot faults behave as
        genuine transients.
    **tile_kwargs:
        Extra options for the tiled path (``tnnz``, methods, dtype...).

    Raises
    ------
    InvalidInputError
        Immediately, without retries.
    ResilienceExhausted
        When every ladder rung failed; chains the last underlying error.
    """
    policy = policy or RetryPolicy()
    if budget_bytes is None and device is not None:
        budget_bytes = device.dram_capacity_bytes
    report = ResilienceReport(budget_bytes=budget_bytes)
    obs = current_obs()

    with obs.tracer.span(
        "run_resilient", cat="resilience", ladder=list(policy.ladder)
    ):
        return _run_ladder(
            a, b, device, policy, budget_bytes, fault_plan, report, obs, tile_kwargs
        )


def _run_ladder(a, b, device, policy, budget_bytes, fault_plan, report, obs, tile_kwargs):
    """The ladder walk of :func:`run_resilient` (split out so the whole
    recovery story nests under one ``run_resilient`` span)."""
    from repro.baselines import get_algorithm  # deferred: registry import is heavy
    from repro.core.tile_matrix import TileMatrix
    from repro.runtime.shards import ShardRun, run_blocking

    at = a if isinstance(a, TileMatrix) else None
    bt = b if isinstance(b, TileMatrix) else None
    a_csr = None if at is not None else a
    b_csr = None if bt is not None else b
    last_error: Optional[BaseException] = None
    trace_id = getattr(obs.trace_ctx, "trace_id", None)
    for rung, method in enumerate(policy.ladder):
        if rung > 0 and obs.enabled:
            obs.metrics.inc("resilience_fallbacks_total", method=method)
            obs.tracer.instant("fallback", cat="resilience", method=method, rung=rung)
            obs.log.emit(
                "resilience_fallback",
                trace_id=trace_id,
                method=method,
                rung=rung,
            )
        if method == "tilespgemm":
            if at is None:
                at = TileMatrix.from_csr(a)
                bt = at if b is a else TileMatrix.from_csr(b)
            # One inline shard-engine run: an OOM halves the failing
            # tile-row range, a transient fault retries it after backoff.
            run = ShardRun(at, bt, policy=policy)
            opts = dict(tile_kwargs, budget_bytes=budget_bytes, fault_plan=fault_plan)
            try:
                with obs.tracer.span(
                    "attempt:" + method,
                    cat="resilience",
                    rung=rung,
                    attempt=report.num_attempts + 1,
                ):
                    res = run_blocking([run], opts)[0]
            except ResilienceExhausted as exc:
                last_error = exc.__cause__ or exc
                continue
            finally:
                for record in run.attempts:
                    _record_failure(report, record)
            report.attempts.append(AttemptRecord(method, run.pieces, "ok"))
            return _finish(res, method, rung, run.pieces, report, device)

        if a_csr is None:
            a_csr = a.to_csr()
            b_csr = a_csr if b is a else b.to_csr()
        algorithm = get_algorithm(method)
        retries = 0
        while True:
            try:
                with obs.tracer.span(
                    "attempt:" + method,
                    cat="resilience",
                    rung=rung,
                    attempt=report.num_attempts + 1,
                ):
                    with execution_context(budget_bytes=budget_bytes, fault_plan=fault_plan):
                        res = algorithm(a_csr, b_csr)
                report.attempts.append(AttemptRecord(method, 1, "ok"))
                return _finish(res, method, rung, 1, report, device)
            except (DeviceOOMError, TransientKernelError) as exc:
                # The baselines have no chunked mode: an OOM, or a
                # transient fault past its retries, goes down a rung.
                last_error = exc
                retry = isinstance(exc, TransientKernelError) and retries < policy.max_retries
                wait = _backoff(policy, retries) if retry else 0.0
                _record_failure(
                    report,
                    AttemptRecord(method, 1, type(exc).__name__, error=str(exc), backoff_s=wait),
                )
                if not retry:
                    break
                retries += 1

    if obs.enabled:
        obs.metrics.inc("resilience_exhausted_total")
        obs.log.emit(
            "resilience_exhausted",
            trace_id=trace_id,
            attempts=report.num_attempts,
            ladder=list(policy.ladder),
        )
    raise ResilienceExhausted(
        f"all fallbacks failed after {report.num_attempts} attempts "
        f"(ladder: {' -> '.join(policy.ladder)})"
    ) from last_error


def backoff_wait(policy: RetryPolicy, retry: int) -> float:
    """The wait before re-running retry ``retry`` (0-based) of a rung.

    ``min(base * factor**retry, max)``, then jittered by the policy's
    deterministic seeded stream (see :class:`RetryPolicy.jitter_frac`).
    Pure — computing the wait never sleeps; callers decide whether to
    charge it to a model (:func:`run_resilient` with ``sleep=None``),
    block on it (``sleep=time.sleep``) or ``await`` it (the async
    serving tier).
    """
    wait = min(
        policy.backoff_base_s * policy.backoff_factor**retry, policy.max_backoff_s
    )
    if policy.jitter_frac:
        u = random.Random(policy.jitter_seed * 1_000_003 + retry).uniform(-1.0, 1.0)
        wait *= 1.0 + policy.jitter_frac * u
    return max(wait, 0.0)


def _backoff(policy: RetryPolicy, retry: int) -> float:
    wait = backoff_wait(policy, retry)
    if policy.sleep is not None:
        policy.sleep(wait)
    return wait


def _record_failure(report: ResilienceReport, record: AttemptRecord) -> None:
    report.attempts.append(record)
    report.faults.append(f"{record.outcome}: {record.error}")
    report.backoff_s += record.backoff_s
    obs = current_obs()
    if obs.enabled:
        method, kind, backoff_s = record.method, record.outcome, record.backoff_s
        obs.metrics.inc("resilience_failed_attempts_total", method=method, error=kind)
        obs.tracer.instant(
            "fault:" + kind,
            cat="resilience",
            method=method,
            batches=record.batches,
            backoff_s=backoff_s,
        )
        obs.log.emit(
            "attempt_failed",
            trace_id=getattr(obs.trace_ctx, "trace_id", None),
            method=method,
            batches=record.batches,
            error=kind,
            detail=record.error,
            backoff_s=backoff_s or None,
        )
        if backoff_s > 0:
            obs.metrics.inc("resilience_retries_total", method=method)
            obs.metrics.inc("resilience_backoff_seconds_total", backoff_s)


def _finish(res, method: str, rung: int, batches: int, report: ResilienceReport, device):
    report.method = method
    report.degraded = rung > 0
    report.batches = batches
    obs = current_obs()
    if obs.enabled:
        obs.metrics.inc("resilience_runs_total", method=method)
        obs.metrics.inc("resilience_attempts_total", report.num_attempts)
        if report.degraded:
            obs.metrics.inc("resilience_degraded_runs_total", method=method)
    # The wait is real time a production run would spend; charge what the
    # winning rung's timer does not carry yet (the shard engine charges
    # its own retries).
    uncharged = report.backoff_s - res.timer.seconds.get("backoff", 0.0)
    if uncharged > 0:
        res.timer.add("backoff", uncharged)

    estimate = None
    estimated_seconds = None
    if device is not None:
        from repro.gpu.costmodel import estimate_run

        if method == "tilespgemm":
            estimate = estimate_run(res.as_spgemm_result(), device)
        else:
            estimate = estimate_run(res, device)
        estimated_seconds = estimate.seconds + report.backoff_s

    return ResilientResult(
        c=res.c,
        result=res,
        report=report,
        estimate=estimate,
        estimated_seconds=estimated_seconds,
    )
