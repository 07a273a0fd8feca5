"""Every step-1 / step-2 path reproduces the default path's bytes and stats.

The driver (``tile_spgemm``) takes ``C``'s tile layout from the tile-pair
join and keeps its pairs for step 2; its rows (``default``) must give the
golden product byte for byte and the recorded cost-model statistics on
every corpus case.  The paper's own kernels — the NSPARSE-like hash
kernel for step 1 (``hash``) and the per-tile binary-search or merge
intersection for step 2 over the hash kernel's tiles (``binary`` /
``merge``) — are reference kernels outside the driver; their rows check
the statistics they determine against the same recorded table.
``tests/test_core_steps.py`` checks that they return the join's exact
pairs, so the product they would feed steps 2-3 is the golden one.

The digests are the default path's entries of
:data:`tests.test_step3_golden.GOLDEN`; the statistics below were recorded
before step 1 started keeping the join's pairs.  Run under another
backend with ``REPRO_BACKEND=<name>``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import TileMatrix, tile_spgemm
from repro.core.pairs import LiveEntries, enumerate_pairs_intersect, live_entries
from repro.core.step1 import step1_tile_layout
from tests.corpus import CORPUS
from tests.test_step3_golden import GOLDEN, _plain_id, tile_digest

#: The driver's path and the paper's reference kernels.
_PATHS = ("default", "hash", "binary", "merge")

#: name -> (symbolic_ops, tile_flops_step1, num_c_tiles, pairs_per_tile,
#: products_per_tile).
STATS = {
    "cancellation_tile": (256, 1, 1, [1], [4096]),
    "cancelling_duplicates": (2, 1, 1, [1], [2]),
    "dense_16x16_offset_boundary": (256, 1, 1, [1], [4096]),
    "dense_tile_in_larger": (256, 1, 1, [1], [4096]),
    "duplicate_coo": (3, 1, 1, [1], [3]),
    "empty_square": (0, 0, 0, [], []),
    "empty_times_random": (0, 0, 0, [], []),
    "fp16_magnitude_spread": (246, 8, 4, [2, 2, 2, 2], [110, 118, 113, 141]),
    "fp16_value_mode": (256, 1, 1, [1], [4096]),
    "magnitude_spread_1e6": (
        828, 27, 9, [3] * 9, [152, 182, 182, 165, 165, 194, 193, 183, 198],
    ),
    "moderate_random": (
        3318, 216, 36, [6] * 36,
        [71, 67, 88, 103, 63, 67, 77, 100, 110, 101, 72, 80, 66, 88, 110, 107, 103, 91,
         85, 93, 96, 104, 89, 88, 90, 87, 114, 125, 99, 89, 81, 82, 92, 112, 81, 92],
    ),
    "outer_product": (40, 4, 4, [1, 1, 1, 1], [256, 64, 64, 16]),
    "ragged_17x19": (96, 6, 4, [2, 2, 1, 1], [124, 10, 2, 0]),
    "ragged_31x33": (301, 10, 4, [3, 2, 3, 2], [186, 191, 166, 177]),
    "ragged_50x47": (
        1408, 48, 16, [3] * 16,
        [244, 275, 256, 27, 325, 316, 318, 41, 260, 265, 272, 24, 14, 13, 14, 1],
    ),
    "rectangular_8x32": (64, 2, 1, [2], [133]),
    "nonfinite_dense_tile": (256, 1, 1, [1], [4048]),
}


def _operands(name: str):
    case = CORPUS[name]
    return TileMatrix.from_csr(case.a), TileMatrix.from_csr(case.b)


def _run(name: str):
    a, b = _operands(name)
    with np.errstate(over="ignore", invalid="ignore"):
        return tile_spgemm(a, b, **CORPUS[name].kwargs)


def _reference_stats(name: str, path: str):
    """The statistics the ``path`` reference kernel determines."""
    a, b = _operands(name)
    layout = step1_tile_layout(a.tile_pattern_csr(), b.tile_pattern_csr(), method="hash")
    if path == "hash":
        return {"tile_flops_step1": layout.tile_flops, "num_c_tiles": layout.num_tiles}
    pairs = enumerate_pairs_intersect(
        a, b, c_tilerow=layout.tile_rowidx(), c_tilecol=layout.tilecolidx, method=path
    )
    return {"num_c_tiles": pairs.num_c_tiles,
            "pairs_per_tile": np.diff(pairs.pair_ptr).tolist()}


def _golden_digest(name: str) -> str:
    dtype = "f16" if CORPUS[name].has("fp16") else "f64"
    return GOLDEN[_plain_id(name, None, dtype, None)]


@pytest.mark.parametrize("path", sorted(_PATHS))
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_path_reproduces_default_digest_and_stats(name, path):
    symbolic_ops, tile_flops, num_c_tiles, pairs_per_tile, products_per_tile = STATS[name]
    if path != "default":
        recorded = {"tile_flops_step1": tile_flops, "num_c_tiles": num_c_tiles,
                    "pairs_per_tile": pairs_per_tile}
        got = _reference_stats(name, path)
        assert got == {k: recorded[k] for k in got}
        return
    res = _run(name)
    assert tile_digest(res.c) == _golden_digest(name)
    st = res.stats
    assert st["symbolic_ops"] == symbolic_ops
    assert st["tile_flops_step1"] == tile_flops
    assert st["num_c_tiles"] == num_c_tiles
    assert np.asarray(st["pairs_per_tile"]).tolist() == pairs_per_tile
    assert np.asarray(st["products_per_tile"]).tolist() == products_per_tile


def test_stats_table_covers_the_corpus():
    assert set(STATS) == set(CORPUS)


@pytest.mark.parametrize("name", ["moderate_random", "ragged_50x47", "outer_product"])
def test_result_holds_no_per_entry_arrays(name):
    res = _run(name)
    pairs, sym = res.pairs, res.symbolic
    a, b = _operands(name)
    num_entries = live_entries(a, b, pairs).a_idx.size
    allowed = {pairs.num_c_tiles, pairs.num_c_tiles + 1, pairs.num_pairs}
    assert num_entries not in allowed  # else the check below proves nothing
    for holder in (pairs, sym):
        for f in dataclasses.fields(holder):
            value = getattr(holder, f.name)
            assert not isinstance(value, LiveEntries), f.name
            if isinstance(value, np.ndarray):
                assert value.shape[0] in allowed, (type(holder).__name__, f.name)
    assert not any(isinstance(v, LiveEntries) for v in vars(res).values())
