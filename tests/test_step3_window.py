"""Step 3's chunk budget and per-chunk value windows.

Each step-3 chunk scatters into its own window ``val_c[lo:hi]`` of C's
values, with positions taken relative to ``lo``; the window's ends come
from the chunk's first and last *pair*.  Chunks end on pair boundaries,
inside a tile too, and each product is added onto C's value in pair
order.  These tests pin that neither the budget nor the window moves a
byte:

* every budget from 64 products up to ``1 << 22`` gives the single-chunk
  bytes, over the corpus and over a hypersparse case whose pairs are
  mostly dead (no ``A`` nonzero meets a nonempty ``B`` row), so that
  chunks start on dead pairs;
* a tile whose products exceed the budget is split across chunks and
  still matches ``test_step3_golden``'s default-budget digests;
* default-budget digests equal the ``1 << 22`` digests the golden table
  was recorded with.
"""

from __future__ import annotations

import inspect
from unittest import mock

import numpy as np
import pytest

import repro.core.step3 as step3_module
from repro.core import TileMatrix
from repro.core.pairs import enumerate_pairs_expand, live_entries
from repro.core.step2 import step2_symbolic
from repro.core.step3 import step3_numeric
from repro.formats.coo import COOMatrix
from tests.corpus import CORPUS
from tests.test_step3_golden import (
    GOLDEN,
    _DTYPES,
    _MASKED_TNNZ,
    _masked_id,
    _plain_id,
    masked_digest,
    plain_digest,
)

#: The budget the golden digests' ``chunk=default`` entries were recorded at.
RECORDED_BUDGET = 1 << 22


def hypersparse(n: int = 400, seed: int = 7):
    """``A`` only in local columns 0-7, ``B`` mostly in local rows 8-15.

    Every tile pair the join matches is real, but only the pairs that
    meet one of ``B``'s few low-half rows have live entries: more than
    80 % of the pairs are dead.
    """
    rng = np.random.default_rng(seed)
    tiles = n // 16
    a_row = rng.integers(0, n, 3 * n)
    a_col = rng.integers(0, tiles, 3 * n) * 16 + rng.integers(0, 8, 3 * n)
    b_row = np.r_[
        rng.integers(0, tiles, 3 * n) * 16 + rng.integers(8, 16, 3 * n),
        rng.integers(0, tiles, n) * 16 + rng.integers(0, 8, n),
    ]
    b_col = rng.integers(0, n, b_row.size)
    a = COOMatrix((n, n), a_row, a_col, rng.uniform(-1, 1, a_row.size)).to_csr()
    b = COOMatrix((n, n), b_row, b_col, rng.uniform(-1, 1, b_row.size)).to_csr()
    return a, b


def _cases():
    cases = {name: (case.a, case.b, case.kwargs) for name, case in CORPUS.items()}
    cases["hypersparse_dead_pairs"] = hypersparse() + ({},)
    return cases


CASES = _cases()


class _Steps:
    """Steps 1 and 2 of one case, run once; step 3 at any budget."""

    def __init__(self, name: str) -> None:
        a_csr, b_csr, kwargs = CASES[name]
        self.a, self.b = TileMatrix.from_csr(a_csr), TileMatrix.from_csr(b_csr)
        self.value_dtype = kwargs.get("value_dtype", np.float64)
        self.pairs = enumerate_pairs_expand(self.a, self.b)
        self.live = live_entries(self.a, self.b, self.pairs)
        self.sym = step2_symbolic(self.a, self.b, self.pairs, live=self.live)
        csum = self.live.csum
        self.total = int(csum[-1])
        self.tile_products = np.diff(csum[self.pairs.pair_ptr])

    def numeric(self, budget: int):
        with np.errstate(over="ignore", invalid="ignore"), mock.patch.object(
            step3_module, "CHUNK_PRODUCTS", budget
        ):
            return step3_numeric(
                self.a, self.b, self.pairs, self.sym,
                value_dtype=self.value_dtype, live=self.live,
            )

    def splits_at(self, budget: int) -> bool:
        """Whether some tile's products exceed ``budget`` over >= 2 live pairs."""
        live = (np.diff(self.live.entry_ptr) > 0).astype(np.int64)
        live_per_tile = np.diff(np.r_[0, np.cumsum(live)][self.pairs.pair_ptr])
        return bool(np.any((self.tile_products > budget) & (live_per_tile >= 2)))

    @staticmethod
    def budgets():
        """Powers of two from 64 to 2^22."""
        return [1 << k for k in range(6, 23)]


@pytest.fixture(scope="module")
def steps():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = _Steps(name)
        return cache[name]

    return get


def _bytes(res) -> bytes:
    return res.rowidx.tobytes() + res.colidx.tobytes() + res.val.tobytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_tile_resident_budget_matches_single_chunk(name, steps):
    s = steps(name)
    single = _bytes(s.numeric(s.total + 1))
    for budget in s.budgets():
        assert _bytes(s.numeric(budget)) == single, budget


def test_hypersparse_chunks_start_on_dead_pairs(steps):
    s = steps("hypersparse_dead_pairs")
    dead = np.diff(s.live.entry_ptr) == 0
    assert dead.mean() > 0.8
    budget = int(s.tile_products.max())
    windows = []
    real = step3_module._accumulate_chunk

    def spy(*args):
        bound = inspect.signature(real).bind(*args).arguments
        windows.append((bound["lo"], int(bound["pair_of"][0])))
        real(*args)

    with mock.patch.object(step3_module, "_accumulate_chunk", spy):
        s.numeric(budget)
    assert len(windows) > 1
    # A window that begins before its first live pair's C tile belongs to
    # a chunk that began on dead pairs of an earlier tile.
    lo, first_live = np.array(windows).T
    slot = s.pairs.pair_c_slot()[first_live]
    assert np.any(lo < s.sym.tilennz[slot])


def test_split_tile_matches_golden_chunk_64(steps):
    # Chunks end on pair boundaries, so a tile splits when its products
    # exceed the budget over at least two live pairs.
    split = [name for name in sorted(CORPUS) if steps(name).splits_at(64)]
    assert "moderate_random" in split
    for name in split:
        for dtype in _DTYPES:
            assert plain_digest(name, None, dtype, 64) == GOLDEN[_plain_id(name, None, dtype, None)]
        for tnnz in _MASKED_TNNZ:
            assert masked_digest(name, tnnz, 64) == GOLDEN[_masked_id(name, tnnz, None)]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_default_budget_digests_equal_recorded_budget(name):
    for dtype in _DTYPES:
        assert plain_digest(name, None, dtype, None) == plain_digest(
            name, None, dtype, RECORDED_BUDGET
        )
    for tnnz in _MASKED_TNNZ:
        assert masked_digest(name, tnnz, None) == masked_digest(name, tnnz, RECORDED_BUDGET)
