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

Conformance tiers
-----------------
Every backend declares a :class:`ConformanceTier` at registration:

* :attr:`ConformanceTier.EXACT` (tier 1) — the original byte-identity
  contract below.  All eight result arrays, values included, must equal
  the ``numpy`` reference bit for bit.
* :attr:`ConformanceTier.FAST_MATH` (tier 2) — *structure* (tile
  pointers, row/column indices, masks, the dense/sparse accumulator
  split) must still be byte-identical, but the ``val`` array is only
  required to stay within the backend's declared
  :class:`ValueTolerance` of the reference.  This is what admits
  kernels that reassociate floating-point accumulation — ``prange`` +
  ``fastmath`` loops, batched 16×16 fragment accumulators — which the
  byte-identity contract deliberately locks out.

Structure identity is non-negotiable in both tiers because every
downstream consumer (chunk stitching, the serve tier's cost accounting,
the differential suite) indexes results positionally.  Callers that need
bit-reproducible *values* request :attr:`ConformanceTier.EXACT` when
resolving a backend; resolution then refuses fast-math backends loudly
instead of silently degrading.

Conformance contract (tier 1)
-----------------------------
Exact-tier backends are interchangeable only if they are
**byte-identical** to the ``numpy`` reference, not merely numerically
close:

* ``popcount``, ``prefix_popcount`` and ``nth_set_bit`` return ``uint8``
  arrays with the reference's shapes and sentinel values (``nth_set_bit``
  yields 255 for ranks at or beyond the mask's popcount);
* ``mask_or_into`` must be an unbuffered OR scatter (OR is idempotent and
  commutative, so any ordering is conformant);
* ``scatter_add_into(out, positions, weights)`` must equal
  ``out += np.bincount(positions, weights, minlength=out.size)`` down to
  the last bit: accumulate the weights *in input order* into a fresh
  zero buffer, then add the buffer onto ``out`` elementwise.  Both the
  input-order partial sums and the separate final add are observable in
  the float64 results; a backend that adds directly into ``out`` (or
  reassociates the partial sums) produces values that differ in the last
  ulp and fails conformance.

Every kernel invocation ticks ``KernelSet.calls[<kernel>]``; the tests
and benches use the counters to prove which backend actually executed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict

import numpy as np

__all__ = [
    "ConformanceTier",
    "ValueTolerance",
    "EXACT_TOLERANCE",
    "DEFAULT_FAST_MATH_TOLERANCE",
    "KernelSet",
    "KERNEL_NAMES",
]

#: The kernel methods every backend must provide (and counts calls of).
KERNEL_NAMES = (
    "mask_or_into",
    "popcount",
    "prefix_popcount",
    "nth_set_bit",
    "scatter_add_into",
)


class ConformanceTier(str, enum.Enum):
    """The two conformance classes a backend can be registered under.

    A ``str`` enum so the tier round-trips through stats dicts, plan
    ``to_dict()`` serialisation and JSON without special casing:
    ``ConformanceTier.EXACT == "exact"`` holds.
    """

    #: Tier 1 — all eight result arrays byte-identical to ``numpy``.
    EXACT = "exact"
    #: Tier 2 — structure byte-identical, values within :class:`ValueTolerance`.
    FAST_MATH = "fast-math"

    @classmethod
    def coerce(cls, value: "ConformanceTier | str") -> "ConformanceTier":
        """Accept a member or its string value (``"exact"``/``"fast-math"``)."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            raise ValueError(
                f"unknown conformance tier {value!r}; expected one of "
                f"{[m.value for m in cls]}"
            ) from None


@dataclass(frozen=True)
class ValueTolerance:
    """The value-error bound a fast-math backend declares at registration.

    An element ``got`` passes against reference ``ref`` when *any* of:

    * the bit patterns are identical (always true for tier 1);
    * the ULP distance is at most :attr:`max_ulp`;
    * ``|got - ref| <= atol + rtol * max(|ref|, scale)``, where ``scale``
      is the caller-supplied accumulation magnitude — for SpGEMM the
      per-element ``(|A| @ |B|)`` sum of absolute products, the natural
      yardstick for reordered-summation error (``n·eps·Σ|products|``).
      The scale term is what keeps catastrophic-cancellation outputs
      (tiny ``ref``, legitimately larger absolute error) honest without
      loosening the bound everywhere else.

    The exact tier uses the all-zero :data:`EXACT_TOLERANCE`, which only
    the bit-identity clause can satisfy.
    """

    max_ulp: int = 0
    rtol: float = 0.0
    atol: float = 0.0

    def to_dict(self) -> Dict[str, float]:
        return {"max_ulp": int(self.max_ulp), "rtol": self.rtol, "atol": self.atol}


#: Tier-1 bound: nothing but bit identity passes.
EXACT_TOLERANCE = ValueTolerance()

#: Default tier-2 bound.  Reassociating a float64 accumulation of n
#: products perturbs the sum by at most ~log2(n)·eps relative to
#: Σ|products|; 1e-11 (≈ 45000 eps) covers every corpus case with two
#: orders of magnitude to spare, while max_ulp=1024 admits last-ulps
#: jitter on well-conditioned sums without consulting the scale.
DEFAULT_FAST_MATH_TOLERANCE = ValueTolerance(max_ulp=1024, rtol=1e-11)


class KernelSet:
    """Base class for a named set of TileSpGEMM inner kernels.

    Subclasses set :attr:`name` and implement the five kernels; the
    module docstring states the exact conformance contract.  The base
    class only provides the per-kernel call counters.
    """

    #: Registry name of the backend (``numpy``, ``pyloops``, ...).
    name: str = "abstract"

    #: Conformance class; overridden per backend and stamped from the
    #: registry entry on instantiation (the registration wins).
    tier: ConformanceTier = ConformanceTier.EXACT

    #: Declared value bound; only consulted for FAST_MATH backends.
    tolerance: ValueTolerance = EXACT_TOLERANCE

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
        """``out += bincount(positions, weights, minlength=out.size)``.

        The partial sums must be accumulated in input order into a fresh
        zero buffer which is then added onto ``out`` — see the module
        docstring's conformance contract.

        ``out`` may be a contiguous slice view of ``C``'s values: step 3
        passes each chunk its window ``val_c[lo:hi]``, and ``positions``
        are relative to the view (``0 <= position < out.size``).  Only
        the view's elements may be written.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<KernelSet {self.name!r}>"
