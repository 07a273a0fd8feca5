"""Step 1's two counts of the candidate tiles on the column pass.

On the column pass ``live_join`` counts the candidate tiles of ``C``,
their matched pairs and ``A``-tile nonzeros either as the tile-level
product ``A'B'`` (one dense ``matmul`` per row block) or by expanding
every matched pair, block by block, whichever the rule
(``_use_tile_product``) prices lower.  The tests force each count by
patching that rule, and the column pass by patching the join's.  Both
counts must give the same ``TilePairs`` and ``LiveEntries``, field by
field and dtype by dtype, so every product is byte-identical whichever
count ran: plain, masked and on a 2-worker pool.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import repro.core.pairs as pairs_module
from repro.core import TileMatrix, masked_tile_spgemm, tile_spgemm
from repro.core.pairs import _join, live_entries, live_join
from repro.formats.csr import CSRMatrix
from repro.matrices import generators as gen
from repro.obs import Tracer, obs_context
from repro.runtime.parallel import parallel_tile_spgemm
from tests.corpus import CORPUS
from tests.test_column_join import _assert_same, _assert_same_stats, _banded, _kwargs, _masks
from tests.test_live_join import _operands
from tests.test_live_tiles import _cop_like
from tests.test_step3_golden import tile_digest

_NAMES = sorted(CORPUS) + ["hypersparse", "random", "permuted_band", "heavy"]

#: How the column pass counts: the dense product, in float32 or (past a
#: patched exactness bound) float64; the expansion; and one block each
#: way in turn, over row blocks of 64 grid cells or (on a grid wider than
#: 64 tile columns) of 64 matched pairs.
_COUNTS = {
    "product": {"_use_tile_product": lambda *args: True},
    "product_f64": {"_use_tile_product": lambda *args: True, "_FLOAT32_EXACT": 0},
    "expand": {"_use_tile_product": lambda *args: False},
    "mixed": {"_PRODUCT_BLOCK_CELLS": 64, "_JOIN_BLOCK_PAIRS": 64},
}


def _heavy():
    """One C tile over 11 matched pairs of tiles with 255 nonzeros each:
    its ``matched_a_nnz``, 2805, is exact in float32 but not in float16."""
    k, T = 11, 16
    a = np.ones((T, k * T))
    a[0, ::T] = 0
    b = np.ones((k * T, T))
    return TileMatrix.from_csr(CSRMatrix.from_dense(a)), TileMatrix.from_csr(CSRMatrix.from_dense(b))


def _tile_operands(name: str):
    if name == "heavy":
        return _heavy()
    return _cop_like() if name == "permuted_band" else _operands(name)


def _force(monkeypatch, count: str) -> None:
    monkeypatch.setattr(pairs_module, "_use_column_join", lambda num_matched, num_entries: True)
    for attr, value in _COUNTS[count].items():
        monkeypatch.setattr(pairs_module, attr, value)
    if count == "mixed":
        turn = itertools.cycle((True, False))
        product = pairs_module._product_block
        monkeypatch.setattr(pairs_module, "_use_tile_product", lambda *args: True)
        monkeypatch.setattr(pairs_module, "_product_block",
                            lambda *args: product(*args) if next(turn) else None)


def _join_with(count: str, a, b, monkeypatch):
    with monkeypatch.context() as m:
        _force(m, count)
        return _join(a, b)


def _step1(fn, *args, **kwargs):
    """``fn``'s result and its trace's ``step1`` and ``step1.count`` spans."""
    tracer = Tracer()
    with obs_context(tracer=tracer), np.errstate(over="ignore", invalid="ignore"):
        res = fn(*args, **kwargs)
    (step1,) = tracer.find("step1")
    return res, step1, tracer.find("step1.count")


@pytest.mark.parametrize("count", sorted(_COUNTS))
@pytest.mark.parametrize("name", _NAMES)
def test_counts_give_the_same_pairs_and_entries(name, count, monkeypatch):
    a, b = _tile_operands(name)
    want_pairs, want_entries, took = _join_with("expand", a, b, monkeypatch)
    assert took == "expand"
    pairs, entries, took = _join_with(count, a, b, monkeypatch)
    if want_pairs.num_c_tiles:  # else no block had a pair to count
        assert took == {"product_f64": "product", "mixed": took}.get(count, count)
    _assert_same(pairs, want_pairs, "pairs")
    _assert_same(entries, want_entries, "entries")


def test_mixed_count_takes_both(monkeypatch):
    a, b = _tile_operands("permuted_band")
    assert _join_with("mixed", a, b, monkeypatch)[2] == "mixed"


def _long_band():
    """A band over 75 tile rows: its dense grid product would cost 625
    multiply-adds per matched pair."""
    a = TileMatrix.from_csr(gen.banded(1200, 12, seed=3).to_csr())
    return a, a


@pytest.mark.parametrize("operands,count", [(_cop_like, "product"), (_long_band, "expand")])
def test_the_rule_takes_the_cheaper_count(operands, count, monkeypatch):
    a, b = operands()
    monkeypatch.setattr(pairs_module, "_use_column_join", lambda num_matched, num_entries: True)
    assert _join(a, b)[2] == count


@pytest.mark.parametrize("operands,join,count", [(_cop_like, "column", "product"),
                                                 (_banded, "filter", "expand")])
def test_step1_span_names_the_count(operands, join, count):
    _, step1, count_spans = _step1(tile_spgemm, *operands())
    assert (step1.args["join"], step1.args["count"]) == (join, count)
    if join == "column":
        (span,) = count_spans
        assert span.cat == "substep" and span.parent_seq == step1.seq
    else:
        assert count_spans == []  # the filter's count is fused with its liveness test


@pytest.mark.parametrize("name", _NAMES)
def test_products_are_byte_identical_across_counts(name, monkeypatch):
    a, b = _tile_operands(name)
    runs = {}
    for count in _COUNTS:
        with monkeypatch.context() as m:
            _force(m, count)
            runs[count], step1, _ = _step1(tile_spgemm, a, b, **_kwargs(name))
        assert step1.args["join"] == "column"
    want = runs["expand"]
    for count, res in runs.items():
        assert tile_digest(res.c) == tile_digest(want.c), count
        _assert_same(res.symbolic, want.symbolic, "symbolic")
        _assert_same_stats(res.stats, want.stats)


@pytest.mark.parametrize("which", ["every", "some"])
@pytest.mark.parametrize("name", ["hypersparse", "random", "permuted_band"])
def test_masked_runs_are_byte_identical_across_counts(name, which, monkeypatch):
    a, b = _tile_operands(name)
    mask = _masks(a, b)[which]
    runs = {}
    for count in _COUNTS:
        with monkeypatch.context() as m:
            _force(m, count)
            runs[count], _, _ = _step1(masked_tile_spgemm, a, b, mask, keep_empty_tiles=True)
    want = runs["expand"]
    for count, res in runs.items():
        assert tile_digest(res.c) == tile_digest(want.c), count
        _assert_same_stats(res.stats, want.stats)


@pytest.mark.parametrize("count", sorted(_COUNTS))
@pytest.mark.parametrize("name", _NAMES)
def test_two_workers_match_serial(name, count, monkeypatch):
    a, b = _tile_operands(name)
    kwargs = _kwargs(name)
    with np.errstate(over="ignore", invalid="ignore"):
        serial = tile_spgemm(a, b, **kwargs)
        _force(monkeypatch, count)
        par = parallel_tile_spgemm(a, b, workers=2, **kwargs)
    assert tile_digest(par.c) == tile_digest(serial.c)


def _wide():
    """Hypersparse operands 25,000 tile columns wide: capped at 2**20
    (2**16) grid cells, the count's (the column pass's) blocks would be
    41 (2) tile rows of a few dozen matched pairs (live entries) each."""
    a = TileMatrix.from_coo(gen.hypersparse(400_000, 0.25, seed=1))
    b = TileMatrix.from_coo(gen.hypersparse(400_000, 0.25, seed=2))
    return a, b


def test_a_wide_sparse_grid_is_cut_by_its_items_not_per_row(monkeypatch):
    a, b = _wide()
    cuts = []
    cut = pairs_module._cut
    with monkeypatch.context() as m:
        m.setattr(pairs_module, "_cut", lambda *args: cuts.append(cut(*args)) or cuts[-1])
        pairs, entries, took = _join(a, b)
    assert took == "expand" and entries is not None  # the column pass, by the rule
    assert 0 < max(map(len, cuts)) <= 10  # of 25,000 tile rows
    with monkeypatch.context() as m:
        m.setattr(pairs_module, "_use_column_join", lambda num_matched, num_entries: False)
        want, _ = live_join(a, b)
    _assert_same(pairs, want, "pairs")
    _assert_same(entries, live_entries(a, b, want), "entries")


@pytest.mark.parametrize("num_cols,per_row,want",
                         [(1000, 256, 16), (1000, 255, 0), (20000, 1 << 20, 0)])
def test_rows_are_capped_only_while_blocks_keep_a_floor(num_cols, per_row, want):
    ends = np.arange(101, dtype=np.int64) * per_row
    assert pairs_module._cap_rows(ends, num_cols, 16000, 4096) == want


def test_pairs_keep_no_entry_sized_buffers(monkeypatch):
    a, b = _banded()  # many live entries per pair
    monkeypatch.setattr(pairs_module, "_use_column_join", lambda num_matched, num_entries: True)
    pairs, entries, _ = _join(a, b)
    assert 2 * pairs.num_pairs < entries.a_idx.size
    for held in (pairs.pair_a, pairs.pair_b, entries.entry_ptr):
        assert held.base is None
