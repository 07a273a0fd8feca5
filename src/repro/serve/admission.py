"""Admission control: cheap upfront cost estimates and the shed decision.

A serving tier that admits every request eventually serves none of them —
overload must be refused at the door, cheaply, before any symbolic work
runs.  Following the estimation-driven strategy selection of OCEAN
(PAPERS.md, arXiv:2604.19004), admission prices a request from the same
quantities the cost model already uses: the exact upper bound on the
number of intermediate products

    ``products = sum_k nnz(a_*k) * nnz(b_k*)``

is one pass over ``nnz(A)`` (the paper's ``#flops`` is twice it), and
``nnz(C) <= products`` bounds the output, so operand bytes plus a
products-priced output bound is a sound *upper* estimate of the working
set.  A request whose estimate cannot fit the device budget is shed
with a typed :class:`~repro.errors.ServiceOverloadError` instead of
being allowed to OOM after burning queue time; queue-depth overflow
sheds the same way.

The estimate works directly on either operand format through the
estimator's sort-free reconstruction
(:func:`~repro.analysis.estimate.row_nnz`,
:func:`~repro.analysis.estimate.col_indices`): O(nnz) vectorised work,
so admission never converts, sorts or multiplies anything.  Admission
keeps this one sound price: the row-sampled nnz(C) estimate of
:func:`~repro.analysis.estimate.estimate_multiply` may undershoot, so
it chooses the planner's shape but never licenses a request.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

from repro.analysis.estimate import col_indices, row_nnz
from repro.errors import ServiceOverloadError

__all__ = ["CostEstimate", "AdmissionController", "estimate_cost"]

#: Bytes charged per intermediate product in the output bound: an 8-byte
#: value plus a 4-byte index, the CSR-side price of one kept nonzero.
_BYTES_PER_PRODUCT = 12


@dataclass(frozen=True)
class CostEstimate:
    """The upfront price of one multiply.

    Attributes
    ----------
    products:
        Exact count of intermediate products (``nnz(C) <= products``).
    flops:
        The paper's ``#flops``: ``2 * products``.
    operand_bytes:
        Resident bytes of the two operands.
    c_upper_bytes:
        Upper bound on the output's bytes, priced per product.
    """

    products: int
    flops: int
    operand_bytes: int
    c_upper_bytes: int

    @property
    def total_bytes(self) -> int:
        """Upper bound on the request's working set."""
        return self.operand_bytes + self.c_upper_bytes


def estimate_cost(a, b) -> CostEstimate:
    """Price ``a @ b`` without running any phase of it.

    O(nnz) and allocation-light; accepts CSR or tiled operands in any
    mix.  The products count is exact; the byte figures are upper
    bounds (the admission contract needs soundness, not tightness).
    """
    b_rows = row_nnz(b)
    a_cols = col_indices(a)
    products = int(b_rows[a_cols].sum()) if a_cols.size else 0
    nnz_c_bound = min(products, int(a.shape[0]) * int(b.shape[1]))
    operand_bytes = int(a.memory_bytes() + b.memory_bytes())
    return CostEstimate(
        products=products,
        flops=2 * products,
        operand_bytes=operand_bytes,
        c_upper_bytes=nnz_c_bound * _BYTES_PER_PRODUCT,
    )


class AdmissionController:
    """The shed decision: queue depth and memory-estimate gates.

    The memory gate accounts for *concurrency*: each admitted request
    reserves its priced bytes until the service releases them at the
    request's terminal response, and the gate sheds when the aggregate
    of in-flight reservations plus the new request would exceed the
    budget.  Pricing each request in isolation would let concurrent
    admitted requests jointly blow ``budget_bytes``.

    Parameters
    ----------
    max_queue_depth:
        Hard bound of the request queue; ``admit`` sheds at this depth
        (the queue itself enforces the same bound as a backstop).
    budget_bytes:
        Device budget the memory gate checks against; ``None`` disables
        the memory gate (queue depth still applies).  A request whose
        bound does not fit it outright is shed.
    """

    def __init__(
        self,
        max_queue_depth: int,
        budget_bytes: Optional[int] = None,
    ) -> None:
        if max_queue_depth < 1:
            raise ValueError(f"max_queue_depth must be >= 1, got {max_queue_depth}")
        self.max_queue_depth = int(max_queue_depth)
        self.budget_bytes = None if budget_bytes is None else int(budget_bytes)
        self._inflight_bytes = 0
        self._lock = threading.Lock()

    @property
    def inflight_bytes(self) -> int:
        """Bytes currently reserved by admitted, unfinished requests."""
        with self._lock:
            return self._inflight_bytes

    def check_memory(self, estimate: CostEstimate) -> None:
        """Shed when the upfront estimate cannot fit the device budget.

        Waiting cannot fix an oversized request, so this gate fires
        regardless of the submitter's backpressure mode.  Checks the
        single request against the budget only; :meth:`admit_memory` adds
        the aggregate in-flight gate and the reservation.
        """
        if self.budget_bytes is None:
            return
        if estimate.total_bytes > self.budget_bytes:
            raise ServiceOverloadError(
                "memory_estimate",
                f"estimated working set {estimate.total_bytes} B "
                f"(operands {estimate.operand_bytes} B + output bound "
                f"{estimate.c_upper_bytes} B) exceeds {self.budget_bytes} B",
            )

    def admit_memory(self, estimate: CostEstimate) -> int:
        """Admit one request against the budget *and* the in-flight total.

        Returns the reserved byte count the caller must hand back to
        :meth:`release_memory` exactly once, at the request's terminal
        response.  Sheds with reason ``memory_estimate`` when the
        request alone cannot fit, ``memory_inflight`` when it would push
        the aggregate of admitted requests past the budget (waiting *can*
        fix that one, but blocking submission risks deadlocking the
        backpressure path, so the service sheds and lets the client
        retry).
        """
        self.check_memory(estimate)
        if self.budget_bytes is None:
            return 0
        nbytes = int(estimate.total_bytes)
        with self._lock:
            if self._inflight_bytes + nbytes > self.budget_bytes:
                raise ServiceOverloadError(
                    "memory_inflight",
                    f"admitting {nbytes} B on top of {self._inflight_bytes} B "
                    f"already in flight would exceed {self.budget_bytes} B",
                )
            self._inflight_bytes += nbytes
        return nbytes

    def release_memory(self, nbytes: int) -> None:
        """Return an :meth:`admit_memory` reservation (request finished)."""
        if nbytes <= 0:
            return
        with self._lock:
            self._inflight_bytes = max(0, self._inflight_bytes - int(nbytes))

    def check_depth(self, depth: int) -> None:
        """Shed when the queue is at its bound."""
        if depth >= self.max_queue_depth:
            raise ServiceOverloadError(
                "queue_full",
                f"queue depth {depth} at configured bound {self.max_queue_depth}",
            )
