"""Typed error taxonomy for the resilient execution runtime.

Real SpGEMM deployments fail in a handful of characteristic ways — the
symbolic phase discovers that ``nnz(C)`` does not fit device memory, a
kernel hits a transient fault, a broadcast in a distributed run is lost,
or the inputs were malformed to begin with.  The reproduction previously
surfaced all of these as ad-hoc ``ValueError``s (or raw tracebacks); this
module gives each failure class its own exception type so the runtime
(:mod:`repro.runtime`) can react differently to each:

* :class:`InvalidInputError` — permanent, the caller's fault; never retried.
* :class:`ConfigurationError` — a malformed deployment knob (environment
  variable, service config); permanent, but the *operator's* fault, so it
  gets its own exit code and a one-line message naming the knob.
* :class:`DeviceOOMError` — deterministic for a given budget; recovered by
  re-splitting the tile-row range (:mod:`repro.runtime.shards`), not by
  retrying.
* :class:`TransientKernelError` — assumed to vanish on retry; handled with
  exponential backoff.
* :class:`CommFailure` — a transient specific to the distributed layer;
  recovered by retransmission.
* :class:`ServiceOverloadError` / :class:`DeadlineExceededError` — the
  serving tier (:mod:`repro.serve`) shedding load at admission or giving
  up on a request whose deadline passed.

The classes double-inherit from the builtin types they historically were
(``ValueError`` / ``MemoryError`` / ``RuntimeError``), so every existing
``except ValueError`` caller keeps working.

The module also owns the CLI exit-code contract: one distinct non-zero
code per error class (see :func:`exit_code_for`).
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "ReproError",
    "InvalidInputError",
    "ConfigurationError",
    "DeviceOOMError",
    "TransientKernelError",
    "CommFailure",
    "ResilienceExhausted",
    "BenchRegressionError",
    "ServiceOverloadError",
    "DeadlineExceededError",
    "EXIT_OK",
    "EXIT_CHECK_FAILED",
    "EXIT_USAGE",
    "EXIT_INVALID_INPUT",
    "EXIT_FILE_NOT_FOUND",
    "EXIT_OOM",
    "EXIT_TRANSIENT",
    "EXIT_COMM",
    "EXIT_EXHAUSTED",
    "EXIT_REGRESSION",
    "EXIT_CONFIG",
    "EXIT_SHED",
    "EXIT_DEADLINE",
    "exit_code_for",
]


class ReproError(Exception):
    """Base class of every typed error raised by this library."""


class InvalidInputError(ReproError, ValueError):
    """The inputs are malformed: bad file, bad format, mismatched shapes.

    Permanent — retrying or degrading cannot help, so the resilient runtime
    re-raises these immediately.
    """


class ConfigurationError(InvalidInputError):
    """A deployment knob holds a malformed value.

    Raised when an environment variable (``REPRO_WORKERS``,
    ``REPRO_BACKEND``) or a service configuration
    field cannot be parsed or names something unknown.  Subclasses
    :class:`InvalidInputError` so every existing handler keeps working,
    but carries its own exit code (:data:`EXIT_CONFIG`) and names the
    offending knob so an operator can fix the deployment in one read.
    """

    def __init__(self, message: str, source: str = "") -> None:
        self.source = source
        super().__init__(f"{source}: {message}" if source else message)


class DeviceOOMError(ReproError, MemoryError):
    """A logical device allocation exceeded the memory budget.

    Raised by :class:`repro.util.alloc.AllocationTracker` at the offending
    allocation, i.e. exactly where ``cudaMalloc`` would have returned
    ``cudaErrorMemoryAllocation``.  Carries the context a recovery policy
    needs to decide how much to shrink the working set.
    """

    def __init__(
        self,
        label: str,
        requested_bytes: int,
        live_bytes: int,
        budget_bytes: Optional[int],
    ) -> None:
        self.label = label
        self.requested_bytes = int(requested_bytes)
        self.live_bytes = int(live_bytes)
        self.budget_bytes = None if budget_bytes is None else int(budget_bytes)
        budget = "unbounded" if budget_bytes is None else f"{int(budget_bytes)} B"
        super().__init__(
            f"device OOM allocating {label!r}: requested {self.requested_bytes} B "
            f"with {self.live_bytes} B live (budget {budget})"
        )

    def __reduce__(self):
        # The default Exception reduction replays ``args`` — a single
        # message string here — into the four-argument ``__init__`` and
        # fails.  Replaying the real constructor arguments keeps OOMs
        # picklable and copyable.
        return (
            type(self),
            (self.label, self.requested_bytes, self.live_bytes, self.budget_bytes),
        )


class TransientKernelError(ReproError, RuntimeError):
    """A kernel failed in a way expected to vanish on retry.

    The modelled analogue of an ECC hiccup, a watchdog timeout or a
    preempted kernel; injected via :class:`repro.runtime.faults.FaultPlan`
    and retried with exponential backoff by the shard engine
    (:mod:`repro.runtime.shards`).
    """

    def __init__(self, site: str, detail: str = "") -> None:
        self.site = site
        self.detail = detail
        msg = f"transient kernel fault at {site!r}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)

    def __reduce__(self):
        # See DeviceOOMError.__reduce__: without this, unpickling replays
        # the rendered message into ``site`` and double-wraps it.
        return (type(self), (self.site, self.detail))


class CommFailure(TransientKernelError):
    """A lost or corrupted message in the distributed (SUMMA) layer.

    A subclass of :class:`TransientKernelError` because it shares the
    retry-with-backoff handling; kept distinct so retransmission counters
    and exit codes can tell the two apart.
    """

    def __init__(self, stage: str, detail: str = "") -> None:
        msg = f"communication failure at {stage!r}"
        if detail:
            msg += f": {detail}"
        RuntimeError.__init__(self, msg)
        self.site = stage
        self.stage = stage
        self.detail = detail  # inherited __reduce__ replays (site, detail)


class ResilienceExhausted(ReproError):
    """Recovery ran out: a fault outlived the shard engine's rules.

    Raised by the shard engine, and so by every entry point that runs on
    it (the CLI, :func:`repro.runtime.parallel.parallel_tile_spgemm`, the
    chunked runner, the serving tier), when a single tile row is still over budget or a
    range keeps failing past its retries; chains the final underlying
    error.
    """


class ServiceOverloadError(ReproError):
    """The serving tier shed this request at admission.

    Raised by :class:`repro.serve.admission.AdmissionController` when the
    bounded request queue is full or the upfront cost-model estimate says
    the request cannot fit the device budget.  Shedding is *deliberate*
    load protection, not a crash: the submitter is expected to back off
    and retry, so the error carries the reason and the current depth.
    """

    def __init__(self, reason: str, detail: str = "") -> None:
        self.reason = reason
        msg = f"request shed ({reason})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class DeadlineExceededError(ReproError, TimeoutError):
    """A request's deadline passed before its result was complete.

    The serving tier cancels the request cooperatively — shards already
    running finish, nothing new is scheduled — and responds with this
    error instead of a stale result.
    """

    def __init__(self, deadline_s: float, elapsed_s: float) -> None:
        self.deadline_s = float(deadline_s)
        self.elapsed_s = float(elapsed_s)
        super().__init__(
            f"deadline of {self.deadline_s:.3f} s exceeded "
            f"({self.elapsed_s:.3f} s elapsed)"
        )

    def __reduce__(self):
        # See DeviceOOMError.__reduce__: replay the constructor args so
        # the exception survives a pickle round trip.
        return (type(self), (self.deadline_s, self.elapsed_s))


class BenchRegressionError(ReproError):
    """The planner gate failed.

    Built by ``repro bench compare`` when the planned method is slower
    than some static configuration: a per-matrix slowdown beyond the
    noise threshold that is statistically significant, or a geomean
    speedup below 1.0 (see :mod:`repro.analysis.bench_compare`).
    ``regressions`` holds the failing keys as strings so CI logs name
    exactly what regressed.
    """

    def __init__(self, regressions) -> None:
        self.regressions = list(regressions)
        keys = ", ".join(self.regressions)
        super().__init__(
            f"{len(self.regressions)} benchmark series regressed: {keys}"
        )


# ----------------------------------------------------------------------
# CLI exit-code contract (one distinct code per error class)
# ----------------------------------------------------------------------
EXIT_OK = 0  #: run completed and the cross-check passed
EXIT_CHECK_FAILED = 1  #: run completed but the cross-check failed
EXIT_USAGE = 2  #: bad command line (argparse's own convention)
EXIT_INVALID_INPUT = 3  #: malformed matrix file or dimension mismatch
EXIT_FILE_NOT_FOUND = 4  #: matrix file does not exist
EXIT_OOM = 5  #: device memory budget exceeded
EXIT_TRANSIENT = 6  #: transient kernel fault (retries exhausted)
EXIT_COMM = 7  #: communication failure in the distributed layer
EXIT_EXHAUSTED = 8  #: recovery ran out (ResilienceExhausted)
EXIT_REGRESSION = 9  #: benchmark gate found a significant regression
EXIT_CONFIG = 10  #: malformed environment/service configuration value
EXIT_SHED = 11  #: serving tier shed the request (queue full / admission)
EXIT_DEADLINE = 12  #: request deadline expired before completion


def exit_code_for(exc: BaseException) -> int:
    """Map an exception to the CLI's exit-code contract.

    Subclass checks run most-specific first (``CommFailure`` before
    ``TransientKernelError``, ``ConfigurationError`` before
    ``InvalidInputError``, typed errors before their builtin bases).
    """
    if isinstance(exc, BenchRegressionError):
        return EXIT_REGRESSION
    if isinstance(exc, ServiceOverloadError):
        return EXIT_SHED
    if isinstance(exc, DeadlineExceededError):
        return EXIT_DEADLINE
    if isinstance(exc, ResilienceExhausted):
        return EXIT_EXHAUSTED
    if isinstance(exc, CommFailure):
        return EXIT_COMM
    if isinstance(exc, TransientKernelError):
        return EXIT_TRANSIENT
    if isinstance(exc, DeviceOOMError):
        return EXIT_OOM
    if isinstance(exc, FileNotFoundError):
        return EXIT_FILE_NOT_FOUND
    if isinstance(exc, ConfigurationError):
        return EXIT_CONFIG
    if isinstance(exc, InvalidInputError):
        return EXIT_INVALID_INPUT
    return 1
