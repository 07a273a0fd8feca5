"""Step 1's two passes for the live pairs: the filter and the column pass.

``live_join`` finds the live pairs either by testing every matched pair
(the filter) or by expanding every ``A`` nonzero over the ``B`` tiles
whose matching row is nonempty (the column pass, through a row index of
``B``).  It takes the pass that expands less; the tests force each one by
patching that decision.  Both must give the same ``TilePairs``, and the
column pass's entries must be ``live_entries`` of every pair, so every
product is byte-identical whichever pass ran: plain, masked and on a
2-worker pool.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.core.pairs as pairs_module
import repro.core.step3 as step3_module
from repro.core import TileMatrix, masked_tile_spgemm, tile_spgemm
from repro.core.pairs import LiveEntries, TilePairs, live_entries, live_join
from repro.formats.coo import COOMatrix
from repro.matrices import generators as gen
from repro.obs import Tracer, obs_context
from repro.runtime.parallel import parallel_tile_spgemm
from tests.conftest import random_csr
from tests.corpus import CORPUS
from tests.test_live_join import _MODES, _operands
from tests.test_live_tiles import _cop_like
from tests.test_step3_golden import tile_digest

_NAMES = sorted(CORPUS) + ["hypersparse", "random"]
_JOINS = ("filter", "column")


def _force(monkeypatch, join: str, mode: str = "default") -> None:
    monkeypatch.setattr(pairs_module, "_use_column_join",
                        lambda num_matched, num_entries: join == "column")
    for attr, value in _MODES[mode].items():
        monkeypatch.setattr(pairs_module, attr, value)


def _kwargs(name: str):
    return dict(CORPUS[name].kwargs) if name in CORPUS else {}


def _assert_same(got, want, what):
    for f in dataclasses.fields(want):
        x, y = getattr(got, f.name), getattr(want, f.name)
        if isinstance(y, np.ndarray):
            assert x.dtype == y.dtype, (what, f.name)
            assert np.array_equal(x, y), (what, f.name)
        else:
            assert x == y, (what, f.name)


def _assert_same_stats(got, want):
    assert set(got) == set(want)
    for key, value in want.items():
        if isinstance(value, np.ndarray):
            assert got[key].dtype == value.dtype, key
            assert got[key].tobytes() == value.tobytes(), key
        else:
            assert got[key] == value, key


def _traced(fn, *args, **kwargs):
    """``fn``'s result and the ``join`` its step 1 took."""
    tracer = Tracer()
    with obs_context(tracer=tracer), np.errstate(over="ignore", invalid="ignore"):
        res = fn(*args, **kwargs)
    (step1,) = [sp for sp in tracer.spans if sp.name == "step1"]
    return res, step1.args["join"]


@pytest.mark.parametrize("mode", sorted(_MODES))
@pytest.mark.parametrize("name", _NAMES)
def test_column_pass_is_the_filter_plus_live_entries(name, mode, monkeypatch):
    a, b = _operands(name)
    with monkeypatch.context() as m:
        _force(m, "filter", mode)
        want_pairs, none = live_join(a, b)
    with monkeypatch.context() as m:
        _force(m, "column", mode)
        pairs, entries = live_join(a, b)
    assert none is None
    assert isinstance(pairs, TilePairs) and isinstance(entries, LiveEntries)
    _assert_same(pairs, want_pairs, "pairs")
    want = live_entries(a, b, want_pairs)
    _assert_same(entries, want, "entries")


@pytest.mark.parametrize("name", _NAMES)
def test_products_are_byte_identical_across_joins(name, monkeypatch):
    a, b = _operands(name)
    runs = {}
    for join in _JOINS:
        with monkeypatch.context() as m:
            _force(m, join)
            runs[join], took = _traced(tile_spgemm, a, b, **_kwargs(name))
        assert took == join
    col, fil = runs["column"], runs["filter"]
    assert tile_digest(col.c) == tile_digest(fil.c)
    _assert_same(col.symbolic, fil.symbolic, "symbolic")
    _assert_same_stats(col.stats, fil.stats)


def _masks(a, b):
    """Every position (the pair arrays are kept as they are), and one
    position in every other candidate tile (they are not)."""
    shape = (a.shape[0], b.shape[1])
    T = a.tile_size
    every = TileMatrix.from_csr(random_csr(*shape, 1.0, seed=81), T)
    pairs = live_join(a, b)[0]
    rows, cols = pairs.c_tilerow[::2] * T, pairs.c_tilecol[::2] * T
    some = COOMatrix(shape, rows, cols, np.ones(rows.size)).to_csr()
    return {"every": every, "some": TileMatrix.from_csr(some, T)}


@pytest.mark.parametrize("which", ["every", "some"])
@pytest.mark.parametrize("name", ["hypersparse", "random", "moderate_random"])
def test_masked_runs_are_byte_identical_across_joins(name, which, monkeypatch):
    a, b = _operands(name)
    mask = _masks(a, b)[which]
    runs = {}
    for join in _JOINS:
        with monkeypatch.context() as m:
            _force(m, join)
            runs[join], _ = _traced(masked_tile_spgemm, a, b, mask, keep_empty_tiles=True)
    col, fil = runs["column"], runs["filter"]
    assert tile_digest(col.c) == tile_digest(fil.c)
    _assert_same_stats(col.stats, fil.stats)
    if which == "some":
        assert col.pairs.num_pairs < live_join(a, b)[0].num_pairs  # the mask dropped pairs


@pytest.mark.parametrize("join", _JOINS)
@pytest.mark.parametrize("name", _NAMES)
def test_two_workers_match_serial(name, join, monkeypatch):
    a, b = _operands(name)
    _force(monkeypatch, join)
    kwargs = _kwargs(name)
    with np.errstate(over="ignore", invalid="ignore"):
        serial = tile_spgemm(a, b, **kwargs)
        par = parallel_tile_spgemm(a, b, workers=2, **kwargs)
    assert tile_digest(par.c) == tile_digest(serial.c)


def _banded():
    a = TileMatrix.from_csr(gen.banded(300, 12, seed=3).to_csr())
    return a, a


def _sparse_band():
    """A band at 5 % fill: ~4.5 live entries per matched pair, more than
    one but fewer than ``_COLUMN_ENTRIES_PER_PAIR``."""
    a = TileMatrix.from_csr(gen.banded(600, 40, fill=0.05, seed=3).to_csr())
    return a, a


def _entries_per_pair(a, b):
    matched = int(pairs_module._matched_row_end(a, b)[-1])
    return pairs_module._count_entries(a, pairs_module._b_row_ptr(b), 1 << 62) / matched


@pytest.mark.parametrize("operands,join", [(_cop_like, "column"), (_banded, "filter"),
                                           (_sparse_band, "column")])
def test_the_rule_takes_the_smaller_expansion(operands, join):
    a, b = operands()
    if operands is _sparse_band:
        assert 1 < _entries_per_pair(a, b) < pairs_module._COLUMN_ENTRIES_PER_PAIR
    _, took = _traced(tile_spgemm, a, b)
    assert took == join


def _spy_live_entries(monkeypatch):
    """Record every ``live_entries`` call, under each name it is called by."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return live_entries(*args, **kwargs)

    for module in (pairs_module, step3_module):
        monkeypatch.setattr(module, "live_entries", spy)
    return calls


def test_column_multiply_never_expands_entries_again(monkeypatch):
    a, b = _cop_like()
    calls = _spy_live_entries(monkeypatch)
    res, took = _traced(tile_spgemm, a, b)
    assert took == "column"
    assert res.stats["dense_tiles"] == 0 and res.stats["num_products"] > 0
    assert calls == []


def test_masked_column_multiply_expands_only_when_pairs_drop(monkeypatch):
    a, b = _cop_like()
    masks = _masks(a, b)
    calls = _spy_live_entries(monkeypatch)
    _traced(masked_tile_spgemm, a, b, masks["every"], keep_empty_tiles=True)
    assert calls == []
    _, took = _traced(masked_tile_spgemm, a, b, masks["some"], keep_empty_tiles=True)
    assert took == "column" and len(calls) == 1
