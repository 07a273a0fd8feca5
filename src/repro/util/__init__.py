"""Shared low-level utilities: bit manipulation, phase timing, allocation
tracking and argument validation.

These helpers are deliberately free of any knowledge about sparse formats
or SpGEMM algorithms so that every other subpackage can depend on them.
"""

from repro.util.arrays import (
    concat_ranges,
    segment_ids,
    segment_positions,
    segmented_sum,
)
from repro.util.bits import (
    nth_set_bit,
    popcount16,
    prefix_popcount,
)
from repro.util.timing import PhaseTimer
from repro.util.alloc import AllocationTracker, AllocationEvent
from repro.util.validation import (
    check_dims_match,
    check_square,
    require_dtype,
)

__all__ = [
    "concat_ranges",
    "segment_ids",
    "segment_positions",
    "segmented_sum",
    "nth_set_bit",
    "popcount16",
    "prefix_popcount",
    "PhaseTimer",
    "AllocationTracker",
    "AllocationEvent",
    "check_dims_match",
    "check_square",
    "require_dtype",
]
