"""The shared edge-case corpus: one place to add a case, every suite runs it.

Historically the conformance harness and the differential edge-case
suite each built their own copies of the same matrices (empty operands,
the fully dense 16x16 tile, duplicate COO entries, ragged shapes, the
fp16 value mode...).  This module is the single source: the backend
conformance suites, the differential suite and the
property suite all parametrise over :data:`CORPUS`, so a new entry here
is exercised everywhere with zero copy-paste.

Each case carries *tags* the suites filter on:

* ``"fp16"`` — runs the pipeline in the half-precision value mode
  (``value_dtype=np.float16``); the differential suite substitutes its
  own fp16 comparison for these.
* ``"stress"`` — accumulation-order stress cases: catastrophic
  cancellation and 10^6-scale magnitude spreads, where any reassociated
  sum shows up in the low bits.  The byte-identity suites and the
  baselines run them; a comparison against a dense product holds them
  to a ``Σ|products|``-scaled bound, since plain relative error is
  meaningless there.
* ``"nonfinite"`` — ``inf``/``nan`` operand values.  The byte-identity
  suites run them; suites that compare values against an oracle skip
  them, since ``nan`` compares unequal to itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Tuple

import numpy as np

from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from tests.conftest import random_csr

__all__ = [
    "CorpusCase",
    "CORPUS",
    "corpus_names",
    "corpus_case",
    "dup_coo",
    "cancelling_coo",
    "dense_16x16",
    "dense_tile_in_larger",
    "outer_product",
    "cancellation_tile_pair",
    "magnitude_spread",
    "nonfinite_tile_pair",
]


@dataclass(frozen=True)
class CorpusCase:
    """One named (A, B, tile_spgemm kwargs) corpus entry."""

    name: str
    a: CSRMatrix
    b: CSRMatrix
    kwargs: Dict[str, object] = field(default_factory=dict)
    tags: FrozenSet[str] = frozenset()

    def has(self, tag: str) -> bool:
        return tag in self.tags


def _dense(d) -> CSRMatrix:
    return CSRMatrix.from_dense(np.asarray(d, dtype=np.float64))


# ------------------------------------------------------------- builders
def dup_coo() -> CSRMatrix:
    """Duplicate COO entries that must be pre-summed."""
    rows = np.array([0, 0, 1, 1, 1, 2])
    cols = np.array([1, 1, 2, 2, 2, 0])
    vals = np.array([1.0, 2.0, 0.5, 0.5, 1.0, 4.0])
    return COOMatrix((3, 3), rows, cols, vals).to_csr()


def cancelling_coo() -> CSRMatrix:
    """+v/-v duplicates summing to an explicit stored zero."""
    rows = np.array([0, 0, 1])
    cols = np.array([1, 1, 0])
    vals = np.array([2.5, -2.5, 1.0])
    return COOMatrix((18, 18), rows, cols, vals).to_csr()


def dense_16x16() -> CSRMatrix:
    """One completely full tile: the uint8 rowptr offset-256 boundary."""
    rng = np.random.default_rng(302)
    return _dense(rng.uniform(0.5, 1.5, size=(16, 16)))


def dense_tile_in_larger() -> CSRMatrix:
    rng = np.random.default_rng(303)
    d = np.zeros((40, 40))
    d[16:32, 16:32] = rng.uniform(0.5, 1.5, size=(16, 16))
    d[0, 39] = 2.0
    return _dense(d)


def outer_product() -> Tuple[CSRMatrix, CSRMatrix]:
    col = np.zeros((20, 20))
    col[:, 3] = np.arange(1, 21)
    row = np.zeros((20, 20))
    row[3, :] = np.arange(1, 21)[::-1]
    return _dense(col), _dense(row)


def cancellation_tile_pair() -> Tuple[CSRMatrix, CSRMatrix]:
    """Catastrophic-cancellation tiles: every output element sums large
    paired products of opposite sign down to an O(1) remainder.

    ``Σ|products|`` per element is ~1e8 while the true value is ~1, so
    any reassociating accumulation lands *relatively* far off the
    reference result.
    """
    rng = np.random.default_rng(412)
    k = 16
    a = np.zeros((16, k))
    big = rng.uniform(1.0, 2.0, size=(16, k // 2)) * 1e8
    # Interleave +big and -big in the inner dimension so the running
    # partial sums swing to 1e8 magnitudes before cancelling.
    a[:, 0::2] = big
    a[:, 1::2] = -big
    a += rng.uniform(-1.0, 1.0, size=a.shape)  # O(1) remainder
    b = np.zeros((k, 16))
    b[0::2, :] = 1.0
    b[1::2, :] = 1.0
    return _dense(a), _dense(b)


def magnitude_spread(seed: int, n: int = 48, decades: int = 6) -> CSRMatrix:
    """Random pattern with values spanning ``10^±decades``."""
    rng = np.random.default_rng(seed)
    base = random_csr(n, n, 0.12, seed=seed)
    exponents = rng.integers(-decades, decades + 1, size=base.val.size)
    signs = rng.choice([-1.0, 1.0], size=base.val.size)
    vals = signs * rng.uniform(1.0, 9.9, size=base.val.size) * 10.0 ** exponents
    return CSRMatrix(base.shape, base.indptr, base.indices, vals)


def nonfinite_tile_pair() -> Tuple[CSRMatrix, CSRMatrix]:
    """A full tile holding ``inf`` and ``nan`` times a tile with holes.

    Row 5 of ``B`` misses columns 3 and 9, so ``C[2, 3]`` and ``C[2, 9]``
    are finite even though ``A[2, 5]`` is ``inf``: only the stored
    products reach them.  A dense tile product would add ``inf * 0``
    there and make them ``nan``.  All values are positive, so no
    ``inf - inf`` arises.
    """
    rng = np.random.default_rng(441)
    a = rng.uniform(0.5, 1.5, size=(16, 16))
    a[2, 5] = np.inf
    a[7, 11] = np.nan
    b = rng.uniform(0.5, 1.5, size=(16, 16))
    b[5, [3, 9]] = 0.0
    b[11, 0] = 0.0
    return _dense(a), _dense(b)


def _build_corpus() -> Dict[str, CorpusCase]:
    dup = dup_coo()
    cancel = cancelling_coo()
    full = dense_16x16()
    embedded = dense_tile_in_larger()
    outer_a, outer_b = outer_product()
    cancel_a, cancel_b = cancellation_tile_pair()
    nonfinite_a, nonfinite_b = nonfinite_tile_pair()
    cases = [
        CorpusCase("empty_square", _dense(np.zeros((20, 20))), _dense(np.zeros((20, 20)))),
        CorpusCase(
            "empty_times_random",
            _dense(np.zeros((24, 24))),
            random_csr(24, 24, 0.3, seed=301),
        ),
        CorpusCase("dense_16x16_offset_boundary", full, full),
        CorpusCase("dense_tile_in_larger", embedded, embedded),
        CorpusCase("duplicate_coo", dup, dup),
        CorpusCase("cancelling_duplicates", cancel, cancel),
        CorpusCase(
            "ragged_17x19",
            random_csr(17, 19, 0.15, seed=321),
            random_csr(19, 17, 0.15, seed=322),
        ),
        CorpusCase(
            "ragged_31x33",
            random_csr(31, 33, 0.15, seed=335),
            random_csr(33, 31, 0.15, seed=338),
        ),
        CorpusCase(
            "ragged_50x47",
            random_csr(50, 47, 0.15, seed=354),
            random_csr(47, 50, 0.15, seed=352),
        ),
        CorpusCase(
            "rectangular_8x32",
            random_csr(8, 32, 0.25, seed=361),
            random_csr(32, 8, 0.25, seed=362),
        ),
        CorpusCase("outer_product", outer_a, outer_b),
        CorpusCase(
            "fp16_value_mode",
            full,
            full,
            kwargs={"value_dtype": np.float16},
            tags=frozenset({"fp16"}),
        ),
        CorpusCase(
            "moderate_random",
            random_csr(96, 96, 0.06, seed=371),
            random_csr(96, 96, 0.06, seed=372),
        ),
        # Accumulation-order stress cases.
        CorpusCase(
            "cancellation_tile",
            cancel_a,
            cancel_b,
            tags=frozenset({"stress"}),
        ),
        CorpusCase(
            "magnitude_spread_1e6",
            magnitude_spread(421),
            magnitude_spread(422),
            tags=frozenset({"stress"}),
        ),
        # decades=1 keeps every fp16-rounded product far from the
        # 65504 half-precision overflow threshold.
        CorpusCase(
            "fp16_magnitude_spread",
            magnitude_spread(431, n=32, decades=1),
            magnitude_spread(432, n=32, decades=1),
            kwargs={"value_dtype": np.float16},
            tags=frozenset({"fp16", "stress"}),
        ),
        CorpusCase(
            "nonfinite_dense_tile",
            nonfinite_a,
            nonfinite_b,
            tags=frozenset({"nonfinite"}),
        ),
    ]
    return {case.name: case for case in cases}


#: name -> CorpusCase.  Sizes stay small enough that the pure-Python
#: oracle backend finishes the whole corpus in seconds.
CORPUS: Dict[str, CorpusCase] = _build_corpus()


def corpus_names(exclude_tags: Tuple[str, ...] = ()) -> List[str]:
    """Sorted case names, optionally excluding tagged cases."""
    return sorted(
        name
        for name, case in CORPUS.items()
        if not any(case.has(t) for t in exclude_tags)
    )


def corpus_case(name: str) -> CorpusCase:
    return CORPUS[name]
