"""Retry/backoff policy engine: the resilient front door of the library.

:func:`run_resilient` runs one SpGEMM as one inline run of the shard
engine (:mod:`repro.runtime.shards`), under the failure rules every
entry point shares (``docs/RESILIENCE.md``):

1. **Chunked re-execution** on :class:`~repro.errors.DeviceOOMError` —
   the over-budget tile-row range is halved until it fits.  The result
   stays bit-identical to the single-shot product.
2. **Exponential backoff** on :class:`~repro.errors.TransientKernelError`
   (and :class:`~repro.errors.CommFailure`) — the modelled wait time is
   charged to the result's timer and to the estimated runtime, because a
   production system pays it for real.

:class:`~repro.errors.InvalidInputError` is never retried — it is the
caller's bug, re-raised immediately.  When a single tile row still does
not fit, or a range runs out of retries, the engine's
:class:`~repro.errors.ResilienceExhausted` propagates, exactly as it
does from the parallel engine and the serving tier.

Every outcome is recorded in a :class:`ResilienceReport`: the attempt
log, the faults seen and the batch count of the winning run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.errors import InvalidInputError, ResilienceExhausted
from repro.obs.context import current_obs

__all__ = [
    "RetryPolicy",
    "AttemptRecord",
    "ResilienceReport",
    "ResilientResult",
    "backoff_wait",
    "run_resilient",
]

@dataclass(frozen=True)
class RetryPolicy:
    """Knobs of the recovery behaviour.

    Attributes
    ----------
    max_retries:
        Transient-fault retries per tile-row range before giving up.
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
    """

    max_retries: int = 3
    backoff_base_s: float = 1e-3
    backoff_factor: float = 2.0
    max_backoff_s: float = 1.0
    jitter_frac: float = 0.0
    jitter_seed: int = 0
    sleep: Optional[Callable[[float], None]] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise InvalidInputError(f"max_retries must be >= 0, got {self.max_retries}")


@dataclass(frozen=True)
class AttemptRecord:
    """One attempt of a tile-row range."""

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
    method: str = ""  #: method that produced the result
    backoff_s: float = 0.0  #: total modelled backoff wait
    budget_bytes: Optional[int] = None

    @property
    def num_attempts(self) -> int:
        """Total attempts, failed ones included."""
        return len(self.attempts)

    @property
    def num_faults(self) -> int:
        """Faults observed during the run."""
        return len(self.faults)


@dataclass
class ResilientResult:
    """A product plus the story of how it was obtained.

    Attributes
    ----------
    c:
        The product as a :class:`~repro.core.tile_matrix.TileMatrix`.
    result:
        The underlying ``TileSpGEMMResult``.
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
        """The product in CSR form."""
        return self.c.to_csr()


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
        CSR operands are tiled once.
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
        When a single tile row does not fit the budget or a range runs
        out of retries; chains the last underlying error.
    """
    from repro.core.tile_matrix import TileMatrix
    from repro.runtime.shards import ShardRun, run_blocking

    policy = policy or RetryPolicy()
    if budget_bytes is None and device is not None:
        budget_bytes = device.dram_capacity_bytes
    report = ResilienceReport(budget_bytes=budget_bytes)
    obs = current_obs()
    at = a if isinstance(a, TileMatrix) else TileMatrix.from_csr(a)
    if isinstance(b, TileMatrix):
        bt = b
    else:
        bt = at if b is a else TileMatrix.from_csr(b)

    # One inline shard-engine run: an OOM halves the failing tile-row
    # range, a transient fault retries it after backoff.
    run = ShardRun(at, bt, policy=policy)
    opts = dict(tile_kwargs, budget_bytes=budget_bytes, fault_plan=fault_plan)
    with obs.tracer.span("run_resilient", cat="resilience"):
        try:
            res = run_blocking([run], opts)[0]
        except ResilienceExhausted:
            if obs.enabled:
                obs.metrics.inc("resilience_exhausted_total")
            raise
        finally:
            for record in run.attempts:
                _record_failure(report, record)
    report.attempts.append(AttemptRecord("tilespgemm", run.pieces, "ok"))
    return _finish(res, run.pieces, report, device)


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
        if backoff_s > 0:
            obs.metrics.inc("resilience_retries_total", method=method)
            obs.metrics.inc("resilience_backoff_seconds_total", backoff_s)


def _finish(res, batches: int, report: ResilienceReport, device):
    report.method = "tilespgemm"
    report.batches = batches
    obs = current_obs()
    if obs.enabled:
        obs.metrics.inc("resilience_runs_total", method=report.method)
        obs.metrics.inc("resilience_attempts_total", report.num_attempts)
    estimate = None
    estimated_seconds = None
    if device is not None:
        from repro.gpu.costmodel import estimate_run

        estimate = estimate_run(res.as_spgemm_result(), device)
        estimated_seconds = estimate.seconds + report.backoff_s

    return ResilientResult(
        c=res.c,
        result=res,
        report=report,
        estimate=estimate,
        estimated_seconds=estimated_seconds,
    )
