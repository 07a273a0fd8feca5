"""The ``KernelSet`` contract: the hot inner kernels of the tile pipeline.

TileSpGEMM's three steps spend essentially all of their time in four
primitive kernels, and everything else (pair enumeration, chunking,
stitching, bookkeeping) is orchestration around them:

* **mask OR-accumulate** (:meth:`KernelSet.mask_or_into`) — step 2's
  ``AtomicOr``: every nonzero of an ``A`` tile ORs a ``B`` row mask onto
  a ``C`` row mask;
* **popcount** (:meth:`KernelSet.popcount`) and **popcount rank**
  (:meth:`KernelSet.prefix_popcount`) — the paper's ``__popc`` uses:
  per-row nonzero counts and the sparse accumulator's within-row offset;
* **scatter-add numeric accumulate** (:meth:`KernelSet.scatter_add_into`)
  — step 3's ``AtomicAdd`` over expanded products;
* **tile compaction** (:meth:`KernelSet.nth_set_bit`) — converting the
  symbolic masks back into compacted local column indices.

A *backend* is one implementation of these five methods.  The registry
(:mod:`repro.backend`) lets the same pipeline run on any of them, and the
conformance suite (``tests/test_backend_conformance.py``) enforces the
contract below.

Conformance contract
--------------------
Backends are interchangeable only if they are **byte-identical** to the
``numpy`` reference, not merely numerically close:

* ``popcount``, ``prefix_popcount`` and ``nth_set_bit`` return ``uint8``
  arrays with the reference's shapes and sentinel values (``nth_set_bit``
  yields 255 for ranks at or beyond the mask's popcount);
* ``mask_or_into`` must be an unbuffered OR scatter (OR is idempotent and
  commutative, so any ordering is conformant);
* ``scatter_add_into(out, positions, weights)`` must equal
  ``np.add.at(out, positions, weights)`` down to the last bit: add each
  weight onto its ``out`` element, one at a time *in input order*, with
  no intermediate buffer.  The order is observable in the float64
  results; a backend that reassociates the sums (or first sums them in
  a buffer) produces values that differ in the last ulp and fails
  conformance.  An element no weight reaches keeps its bytes, ``-0.0``
  included.

Every kernel invocation ticks ``KernelSet.calls[<kernel>]``; the tests
and benches use the counters to prove which backend actually executed.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

__all__ = ["KernelSet", "KERNEL_NAMES"]

#: The kernel methods every backend must provide (and counts calls of).
KERNEL_NAMES = (
    "mask_or_into",
    "popcount",
    "prefix_popcount",
    "nth_set_bit",
    "scatter_add_into",
)


class KernelSet:
    """Base class for a named set of TileSpGEMM inner kernels.

    Subclasses set :attr:`name` and implement the five kernels; the
    module docstring states the exact conformance contract.  The base
    class only provides the per-kernel call counters.
    """

    #: Registry name of the backend (``numpy``, ``pyloops``, ...).
    name: str = "abstract"

    def __init__(self) -> None:
        #: Number of invocations per kernel since construction (or the
        #: last :meth:`reset_calls`); proof-of-execution for the tests.
        self.calls: Dict[str, int] = {k: 0 for k in KERNEL_NAMES}

    def _tick(self, kernel: str) -> None:
        self.calls[kernel] = self.calls.get(kernel, 0) + 1

    def reset_calls(self) -> None:
        """Zero the per-kernel invocation counters."""
        for k in self.calls:
            self.calls[k] = 0

    @property
    def total_calls(self) -> int:
        return sum(self.calls.values())

    # ------------------------------------------------------------ kernels
    def mask_or_into(
        self, out: np.ndarray, positions: np.ndarray, masks: np.ndarray
    ) -> None:
        """OR-accumulate ``masks`` into ``out`` at ``positions`` (step 2).

        ``out`` is the flattened ``(num_c_tiles, T)`` mask array; repeated
        positions must all land (the ``AtomicOr`` semantics).
        """
        raise NotImplementedError

    def popcount(self, masks: np.ndarray) -> np.ndarray:
        """Set-bit count of each 16-bit mask, as ``uint8`` of same shape."""
        raise NotImplementedError

    def prefix_popcount(self, masks: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Rank of bit ``cols`` in ``masks``: set bits strictly below it."""
        raise NotImplementedError

    def nth_set_bit(self, masks: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        """Column of the ``ranks``-th set bit (255 when out of range)."""
        raise NotImplementedError

    def scatter_add_into(
        self, out: np.ndarray, positions: np.ndarray, weights: np.ndarray
    ) -> None:
        """Add each weight onto ``out[position]``, in input order (step 3).

        The unbuffered ``np.add.at`` — see the module docstring's
        conformance contract.

        ``out`` may be a contiguous slice view of ``C``'s values: step 3
        passes each chunk its window ``val_c[lo:hi]``, and ``positions``
        are relative to the view (``0 <= position < out.size``).  Only
        the view's elements may be written.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<KernelSet {self.name!r}>"
