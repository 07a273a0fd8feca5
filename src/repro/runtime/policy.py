"""Retry/backoff policy: how a failing tile-row range is retried.

One :class:`RetryPolicy` governs transient faults at every entry point
— the shard engine (:mod:`repro.runtime.shards`) behind the CLI,
:func:`~repro.runtime.parallel.parallel_tile_spgemm` and
:func:`~repro.runtime.chunked.chunked_tile_spgemm`, and the async
serving tier.  :func:`backoff_wait` computes the wait before each retry;
the failure rules themselves live in the shard engine
(``docs/RESILIENCE.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import InvalidInputError

__all__ = ["RetryPolicy", "backoff_wait"]


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
    sleep: Optional[Callable[[float], None]] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise InvalidInputError(f"max_retries must be >= 0, got {self.max_retries}")


def backoff_wait(policy: RetryPolicy, retry: int) -> float:
    """The wait before re-running retry ``retry`` (0-based) of a range:
    ``min(base * factor**retry, max)``.

    Pure — computing the wait never sleeps; callers decide whether to
    charge it to a model (the shard engine with ``sleep=None``), block
    on it (``sleep=time.sleep``) or ``await`` it (the async serving
    tier).
    """
    return max(
        min(policy.backoff_base_s * policy.backoff_factor**retry, policy.max_backoff_s),
        0.0,
    )
