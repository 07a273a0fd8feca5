"""The ``numpy`` backend: the always-registered vectorised reference.

These are exactly the kernels the pipeline ran before the backend seam
existed — thin wrappers over :mod:`repro.util.bits` (``np.bitwise_count``
popcounts, the ``nth_set_bit`` table) and the unbuffered
``np.bitwise_or.at`` / ``np.add.at`` scatters — so the reference backend
*defines* the byte-level conformance contract rather than merely
satisfying it.
"""

from __future__ import annotations

import numpy as np

from repro.backend.base import KernelSet
from repro.util.bits import nth_set_bit, popcount16, prefix_popcount

__all__ = ["NumpyKernelSet"]


class NumpyKernelSet(KernelSet):
    """Vectorised NumPy kernels (native bit counts + ufunc scatters)."""

    name = "numpy"

    def mask_or_into(self, out, positions, masks):
        self._tick("mask_or_into")
        np.bitwise_or.at(out, positions, masks)

    def popcount(self, masks):
        self._tick("popcount")
        return popcount16(masks)

    def prefix_popcount(self, masks, cols):
        self._tick("prefix_popcount")
        return prefix_popcount(masks, cols)

    def nth_set_bit(self, masks, ranks):
        self._tick("nth_set_bit")
        return nth_set_bit(masks, ranks)

    def scatter_add_into(self, out, positions, weights):
        self._tick("scatter_add_into")
        np.add.at(out, positions, weights)
