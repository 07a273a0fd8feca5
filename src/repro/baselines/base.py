"""Common result type and registry for all SpGEMM implementations.

The paper compares TileSpGEMM against five libraries; this repository
implements each library's *strategy* from scratch (see DESIGN.md for the
mapping).  Every implementation — baselines and TileSpGEMM alike — reports
through the same :class:`SpGEMMResult` shape so the benches can iterate
over methods generically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from repro.formats.csr import CSRMatrix
from repro.obs.context import current_obs
from repro.util.alloc import AllocationTracker
from repro.util.timing import PhaseTimer

__all__ = [
    "SpGEMMResult",
    "register",
    "get_algorithm",
    "available_algorithms",
    "flops_of_product",
]


@dataclass
class SpGEMMResult:
    """Outcome of one SpGEMM run of any method.

    Attributes
    ----------
    c:
        The product in CSR form.
    method:
        Registry name of the algorithm that produced it.
    timer:
        Wall-clock seconds per phase (phase names are method-specific but
        always include ``numeric``; ``malloc`` collects allocation time).
    alloc:
        Logical device-memory ledger (drives the Figure 9 bench).
    stats:
        Cost-model inputs: per-row/per-tile work arrays and scalar counts.
        Common keys: ``flops``, ``num_products``, ``nnz_c``.
    """

    c: CSRMatrix
    method: str
    timer: PhaseTimer
    alloc: AllocationTracker
    stats: Dict[str, object] = field(default_factory=dict)

    @property
    def flops(self) -> int:
        """Floating point operations (2x intermediate products)."""
        return int(self.stats.get("flops", 0))

    def gflops(self, seconds: Optional[float] = None) -> float:
        """Throughput in GFlops for the given (default: measured) time."""
        t = self.timer.total if seconds is None else seconds
        return self.flops / t / 1e9 if t > 0 else 0.0


_REGISTRY: Dict[str, Callable[..., SpGEMMResult]] = {}


def _instrumented(name: str, fn: Callable[..., SpGEMMResult]) -> Callable[..., SpGEMMResult]:
    """Wrap a registered algorithm with the observability hooks.

    One wrapper at the registry — not eight edits in the baselines —
    gives every method a ``spgemm:<name>`` span and a
    ``spgemm_calls_total{method}`` count (the work it did is in the
    result's ``stats``); the method's own :meth:`~repro.util.timing.PhaseTimer.phase`
    blocks are its step spans inside it.  Disabled observability costs
    one context lookup per call.
    """
    import functools

    @functools.wraps(fn)
    def run(a, b, *args, **kwargs):
        obs = current_obs()
        if not obs.enabled:
            return fn(a, b, *args, **kwargs)
        with obs.tracer.span(
            "spgemm:" + name,
            cat="kernel",
            nnz_a=int(getattr(a, "nnz", 0)),
            nnz_b=int(getattr(b, "nnz", 0)),
        ):
            result = fn(a, b, *args, **kwargs)
        obs.metrics.inc("spgemm_calls_total", method=name)
        return result

    return run


def register(name: str):
    """Class/function decorator adding an algorithm to the registry.

    The callable must accept ``(a: CSRMatrix, b: CSRMatrix, **kwargs)`` and
    return an :class:`SpGEMMResult`.  The registry entry is wrapped with
    the observability hooks (span + counters per call) once, here — the
    decorated function itself is returned unwrapped, so direct imports
    behave exactly as written.
    """

    def wrap(fn):
        if name in _REGISTRY:
            raise ValueError(f"algorithm {name!r} registered twice")
        _REGISTRY[name] = _instrumented(name, fn)
        return fn

    return wrap


def get_algorithm(name: str) -> Callable[..., SpGEMMResult]:
    """Look up a registered SpGEMM implementation by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown SpGEMM algorithm {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def available_algorithms() -> tuple:
    """Names of all registered algorithms, sorted."""
    return tuple(sorted(_REGISTRY))


def flops_of_product(a: CSRMatrix, b: CSRMatrix) -> int:
    """Flop count of ``A @ B``: ``2 * sum_k nnz(a_*k) * nnz(b_k*)``.

    This is the paper's ``#flops`` (Table 2): two operations (multiply and
    add) per intermediate product.
    """
    b_row_len = np.diff(b.indptr)
    return int(2 * b_row_len[a.indices].sum()) if a.nnz else 0
