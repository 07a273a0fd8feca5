"""The optional ``numba`` backends: JIT-compiled kernels.

Registered only when :func:`numba_available` passes — a cached probe
that actually compiles a trivial ``njit`` function, so a half-installed
numba (package present, llvmlite broken, unsupported interpreter)
degrades to "backend absent" instead of erroring at first kernel call.

Both kernel sets keep the one conformance contract
(:mod:`repro.backend.base`): float64 results byte-identical to the
``numpy`` reference.  ``fastmath`` stays off in both, because
reassociating a sum changes its last ulp.

* :class:`NumbaKernelSet` (``numba``) — *sequential* compiled loops, not
  ``prange`` + atomics, on purpose: parallel atomic float adds reorder
  the partial sums between runs.  A fixed input-order add of each weight
  onto ``out`` — the same operation sequence as ``np.add.at`` — is both
  deterministic and conformant, and the JIT still removes the Python
  interpreter overhead that makes ``pyloops`` slow.
* :class:`NumbaParKernelSet` (``numba-par``) — ``prange`` variants.
  The scatters are *sort-and-segment*, not atomics: the coordinator
  stable-sorts the scatter positions once in NumPy, and the compiled
  kernel then ``prange``-s over the distinct output positions, each
  thread adding its own position's weights, in input order, onto that
  position's value in ``out``.  Each segment is reduced by exactly one
  thread in a fixed order, so every position sees ``np.add.at``'s
  operation sequence.

A CuPy backend is deliberately *not* shipped: ``cupyx.scatter_add``
runs on GPU atomics whose accumulation order is nondeterministic
*between runs*, which no byte-identity contract can admit.  See
``docs/BACKENDS.md``.
"""

from __future__ import annotations

import importlib.util
from typing import Optional

import numpy as np

from repro.backend.base import KernelSet

__all__ = ["NumbaKernelSet", "NumbaParKernelSet", "numba_available"]


#: Cached result of the compile probe (None = not probed yet).
_NUMBA_OK: Optional[bool] = None


def numba_available() -> bool:
    """True when ``numba`` imports *and* a trivial ``njit`` compiles.

    ``find_spec`` alone is not enough: a package directory can be
    present while the import (llvmlite ABI mismatch, unsupported
    Python) or the first compilation fails.  Probing one real ``njit``
    compile catches all of those up front; the verdict is cached for
    the life of the process (:func:`_reset_numba_probe` clears it for
    tests).
    """
    global _NUMBA_OK
    if _NUMBA_OK is not None:
        return _NUMBA_OK
    if importlib.util.find_spec("numba") is None:
        _NUMBA_OK = False
        return False
    try:
        from numba import njit

        probe = njit(cache=False)(lambda x: x + 1)
        if probe(1) != 2:
            raise RuntimeError("numba njit probe returned a wrong value")
    except Exception:
        _NUMBA_OK = False
    else:
        _NUMBA_OK = True
    return _NUMBA_OK


def _reset_numba_probe(value: Optional[bool] = None) -> None:
    """Reset (or force) the cached probe verdict — test hook only."""
    global _NUMBA_OK
    _NUMBA_OK = value


def _compile_kernels():
    """JIT-compile the scalar kernels (deferred so import stays cheap)."""
    from numba import njit

    @njit(cache=True)
    def mask_or(out, positions, masks):
        for i in range(positions.size):
            out[positions[i]] |= masks[i]

    @njit(cache=True)
    def popcount(flat, out):
        for i in range(flat.size):
            m = flat[i]
            c = 0
            while m:
                c += m & 1
                m >>= 1
            out[i] = c

    @njit(cache=True)
    def prefix_popcount(masks, cols, out):
        for i in range(masks.size):
            m = masks[i] & ((1 << cols[i]) - 1)
            c = 0
            while m:
                c += m & 1
                m >>= 1
            out[i] = c

    @njit(cache=True)
    def nth_set_bit(masks, ranks, out):
        for i in range(masks.size):
            m = masks[i]
            r = ranks[i]
            col = 255
            seen = 0
            for c in range(16):
                if m & (1 << c):
                    if seen == r:
                        col = c
                        break
                    seen += 1
            out[i] = col

    @njit(cache=True)
    def scatter_add(out, positions, weights):
        # Input-order adds straight into out: the np.add.at operation
        # sequence, hence byte-identical results.
        for i in range(positions.size):
            out[positions[i]] += weights[i]

    return mask_or, popcount, prefix_popcount, nth_set_bit, scatter_add


def _compile_par_kernels():
    """JIT-compile the ``prange`` sort-and-segment kernels."""
    from numba import njit, prange

    @njit(cache=True, parallel=True)
    def popcount(flat, out):
        for i in prange(flat.size):
            m = flat[i]
            c = 0
            while m:
                c += m & 1
                m >>= 1
            out[i] = c

    @njit(cache=True, parallel=True)
    def prefix_popcount(masks, cols, out):
        for i in prange(masks.size):
            m = masks[i] & ((1 << cols[i]) - 1)
            c = 0
            while m:
                c += m & 1
                m >>= 1
            out[i] = c

    @njit(cache=True, parallel=True)
    def nth_set_bit(masks, ranks, out):
        for i in prange(masks.size):
            m = masks[i]
            r = ranks[i]
            col = 255
            seen = 0
            for c in range(16):
                if m & (1 << c):
                    if seen == r:
                        col = c
                        break
                    seen += 1
            out[i] = col

    @njit(cache=True, parallel=True)
    def seg_or(out, uniq, starts, ends, order, masks):
        # One segment (= one distinct output position) per iteration, so
        # no two threads ever touch the same out slot: race-free without
        # atomics.  OR is order-insensitive anyway.
        for s in prange(uniq.size):
            acc = out[uniq[s]]
            for k in range(starts[s], ends[s]):
                acc |= masks[order[k]]
            out[uniq[s]] = acc

    @njit(cache=True, parallel=True)
    def seg_add(out, uniq, starts, ends, order, weights):
        # Each segment adds its weights in stable input order onto its
        # out slot — the np.add.at sequence per position.
        for s in prange(uniq.size):
            acc = out[uniq[s]]
            for k in range(starts[s], ends[s]):
                acc += weights[order[k]]
            out[uniq[s]] = acc

    return popcount, prefix_popcount, nth_set_bit, seg_or, seg_add


def _sorted_segments(positions: np.ndarray):
    """Stable-sort ``positions`` and return the per-position segments.

    Returns ``(order, uniq, starts, ends)`` where ``order`` is the
    stable permutation sorting ``positions``, ``uniq`` the distinct
    positions, and ``positions[order[starts[s]:ends[s]]] == uniq[s]``.
    The stable sort preserves input order *within* each segment, so a
    sequential per-segment reduction reproduces ``np.add.at``'s sums
    exactly; parallelism comes from segments being independent.
    """
    order = np.argsort(positions, kind="stable")
    sp = positions[order]
    starts = np.flatnonzero(np.r_[True, sp[1:] != sp[:-1]])
    ends = np.r_[starts[1:], sp.size]
    return order, sp[starts], starts, ends


class NumbaKernelSet(KernelSet):
    """Numba-JIT scalar kernels (sequential, byte-identical by design)."""

    name = "numba"

    def __init__(self) -> None:
        super().__init__()
        (
            self._mask_or,
            self._popcount,
            self._prefix_popcount,
            self._nth_set_bit,
            self._scatter_add,
        ) = _compile_kernels()

    def mask_or_into(self, out, positions, masks):
        self._tick("mask_or_into")
        self._mask_or(
            out,
            np.ascontiguousarray(positions, dtype=np.int64),
            np.ascontiguousarray(masks, dtype=out.dtype),
        )

    def popcount(self, masks):
        self._tick("popcount")
        arr = np.ascontiguousarray(masks, dtype=np.uint32)
        out = np.empty(arr.size, dtype=np.uint8)
        self._popcount(arr.reshape(-1), out)
        return out.reshape(np.asarray(masks).shape)

    def prefix_popcount(self, masks, cols):
        self._tick("prefix_popcount")
        m_arr, c_arr = np.broadcast_arrays(np.asarray(masks), np.asarray(cols))
        shape = m_arr.shape
        m_flat = np.ascontiguousarray(m_arr, dtype=np.uint32).reshape(-1)
        c_flat = np.ascontiguousarray(c_arr, dtype=np.uint32).reshape(-1)
        out = np.empty(m_flat.size, dtype=np.uint8)
        self._prefix_popcount(m_flat, c_flat, out)
        return out.reshape(shape)

    def nth_set_bit(self, masks, ranks):
        self._tick("nth_set_bit")
        m_arr, r_arr = np.broadcast_arrays(np.asarray(masks), np.asarray(ranks))
        shape = m_arr.shape
        m_flat = np.ascontiguousarray(m_arr, dtype=np.uint32).reshape(-1)
        r_flat = np.ascontiguousarray(r_arr, dtype=np.int64).reshape(-1)
        out = np.empty(m_flat.size, dtype=np.uint8)
        self._nth_set_bit(m_flat, r_flat, out)
        return out.reshape(shape)

    def scatter_add_into(self, out, positions, weights):
        self._tick("scatter_add_into")
        self._scatter_add(
            out,
            np.ascontiguousarray(positions, dtype=np.int64),
            np.ascontiguousarray(weights, dtype=out.dtype),
        )


class NumbaParKernelSet(KernelSet):
    """Numba ``prange`` kernels, byte-identical like :class:`NumbaKernelSet`.

    Elementwise kernels parallelise trivially; the two scatters go
    through :func:`_sorted_segments` so each distinct output position is
    reduced by exactly one ``prange`` iteration (race-free, repeatable).
    """

    name = "numba-par"

    def __init__(self) -> None:
        super().__init__()
        (
            self._popcount,
            self._prefix_popcount,
            self._nth_set_bit,
            self._seg_or,
            self._seg_add,
        ) = _compile_par_kernels()

    def mask_or_into(self, out, positions, masks):
        self._tick("mask_or_into")
        pos = np.ascontiguousarray(positions, dtype=np.int64).reshape(-1)
        if pos.size == 0:
            return
        m = np.ascontiguousarray(
            np.broadcast_to(np.asarray(masks, dtype=out.dtype), pos.shape)
        )
        order, uniq, starts, ends = _sorted_segments(pos)
        self._seg_or(out, uniq, starts, ends, order, m)

    def popcount(self, masks):
        self._tick("popcount")
        arr = np.ascontiguousarray(masks, dtype=np.uint32)
        out = np.empty(arr.size, dtype=np.uint8)
        self._popcount(arr.reshape(-1), out)
        return out.reshape(np.asarray(masks).shape)

    def prefix_popcount(self, masks, cols):
        self._tick("prefix_popcount")
        m_arr, c_arr = np.broadcast_arrays(np.asarray(masks), np.asarray(cols))
        shape = m_arr.shape
        m_flat = np.ascontiguousarray(m_arr, dtype=np.uint32).reshape(-1)
        c_flat = np.ascontiguousarray(c_arr, dtype=np.uint32).reshape(-1)
        out = np.empty(m_flat.size, dtype=np.uint8)
        self._prefix_popcount(m_flat, c_flat, out)
        return out.reshape(shape)

    def nth_set_bit(self, masks, ranks):
        self._tick("nth_set_bit")
        m_arr, r_arr = np.broadcast_arrays(np.asarray(masks), np.asarray(ranks))
        shape = m_arr.shape
        m_flat = np.ascontiguousarray(m_arr, dtype=np.uint32).reshape(-1)
        r_flat = np.ascontiguousarray(r_arr, dtype=np.int64).reshape(-1)
        out = np.empty(m_flat.size, dtype=np.uint8)
        self._nth_set_bit(m_flat, r_flat, out)
        return out.reshape(shape)

    def scatter_add_into(self, out, positions, weights):
        self._tick("scatter_add_into")
        pos = np.ascontiguousarray(positions, dtype=np.int64).reshape(-1)
        if pos.size == 0:
            return
        w = np.ascontiguousarray(
            np.broadcast_to(np.asarray(weights, dtype=out.dtype), pos.shape)
        )
        order, uniq, starts, ends = _sorted_segments(pos)
        self._seg_add(out, uniq, starts, ends, order, w)
