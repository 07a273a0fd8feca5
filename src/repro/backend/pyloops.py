"""The ``pyloops`` backend: pure-Python loops, the differential oracle.

Each kernel is written as the most obviously-correct scalar loop — no
lookup tables, no ufunc scatters — so that an error in the vectorised
reference and an error in this oracle are maximally unlikely to
coincide.  It is deliberately slow (orders of magnitude behind
``numpy``) and exists for the conformance and fuzz suites, which demand
*byte-identical* results:

* popcounts are recomputed bit by bit per element;
* ``scatter_add_into`` adds each weight onto its ``out`` element, one
  at a time in input order — the same IEEE-754 operation sequence as
  ``np.add.at``, which is what makes the float64 results match the
  reference exactly rather than just closely.
"""

from __future__ import annotations

import numpy as np

from repro.backend.base import KernelSet

__all__ = ["PyLoopsKernelSet"]


def _popcount_int(m: int) -> int:
    return bin(m).count("1")


class PyLoopsKernelSet(KernelSet):
    """Scalar pure-Python kernels (slow, obviously-correct oracle)."""

    name = "pyloops"

    def mask_or_into(self, out, positions, masks):
        self._tick("mask_or_into")
        for p, m in zip(
            np.asarray(positions).tolist(), np.asarray(masks).tolist()
        ):
            out[p] = out[p] | m

    def popcount(self, masks):
        self._tick("popcount")
        arr = np.asarray(masks)
        flat = arr.reshape(-1).tolist()
        counts = [_popcount_int(int(m)) for m in flat]
        return np.asarray(counts, dtype=np.uint8).reshape(arr.shape)

    def prefix_popcount(self, masks, cols):
        self._tick("prefix_popcount")
        m_arr, c_arr = np.broadcast_arrays(np.asarray(masks), np.asarray(cols))
        out = [
            _popcount_int(int(m) & ((1 << int(c)) - 1))
            for m, c in zip(m_arr.reshape(-1).tolist(), c_arr.reshape(-1).tolist())
        ]
        return np.asarray(out, dtype=np.uint8).reshape(m_arr.shape)

    def nth_set_bit(self, masks, ranks):
        self._tick("nth_set_bit")
        m_arr, r_arr = np.broadcast_arrays(np.asarray(masks), np.asarray(ranks))
        out = []
        for m, r in zip(m_arr.reshape(-1).tolist(), r_arr.reshape(-1).tolist()):
            m, r = int(m), int(r)
            col = 255  # the reference tables' out-of-range sentinel
            seen = 0
            for c in range(16):
                if m & (1 << c):
                    if seen == r:
                        col = c
                        break
                    seen += 1
            out.append(col)
        return np.asarray(out, dtype=np.uint8).reshape(m_arr.shape)

    def scatter_add_into(self, out, positions, weights):
        self._tick("scatter_add_into")
        for p, w in zip(
            np.asarray(positions).tolist(), np.asarray(weights).tolist()
        ):
            out[p] += w
