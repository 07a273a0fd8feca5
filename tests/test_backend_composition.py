"""Backend × execution-engine composition: every backend through every engine.

The conformance harness (:mod:`tests.test_backend_conformance`) judges
each backend through the *serial* pipeline.  This suite proves the one
byte-identity contract composes with every execution engine the runtime
offers — the 2-worker thread pool, the chunked
batcher, and a full serve-tier request — and that each engine records
the real backend name in its stats/varz.  Chunk and shard boundaries
align with C tile rows, so the engines add no floating-point
reassociation: each non-reference backend's result must equal the
serial numpy reference byte for byte.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.backend import list_backends
from repro.core import TileMatrix, tile_spgemm
from repro.runtime.chunked import chunked_tile_spgemm
from repro.runtime.parallel import parallel_tile_spgemm
from tests.corpus import CORPUS
from tests.test_parallel_runtime import assert_bytes_identical

#: ``pyloops`` always; ``numba``/``numba-par`` when numba is importable.
BACKENDS = [n for n in list_backends() if n != "numpy"]

CASE = "moderate_random"


@pytest.fixture(scope="module")
def operands():
    case = CORPUS[CASE]
    return TileMatrix.from_csr(case.a), TileMatrix.from_csr(case.b)


@pytest.fixture(scope="module")
def reference(operands):
    a_t, b_t = operands
    return tile_spgemm(a_t, b_t, backend="numpy")


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_through_parallel_pools(backend, operands, reference):
    a_t, b_t = operands
    got = parallel_tile_spgemm(a_t, b_t, workers=2, backend=backend)
    assert got.stats["backend"] == backend
    assert got.stats["workers"] == 2
    assert got.stats["shards"] == 4
    assert_bytes_identical(reference.c, got.c)


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_through_chunked_engine(backend, operands, reference):
    a_t, b_t = operands
    got = chunked_tile_spgemm(a_t, b_t, num_batches=3, backend=backend)
    assert got.stats["backend"] == backend
    assert_bytes_identical(reference.c, got.c)


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_through_serve_tier(backend, reference):
    from repro.serve.service import SpGEMMService

    case = CORPUS[CASE]

    async def run():
        async with SpGEMMService(
            max_queue_depth=4, workers=2, backend=backend
        ) as svc:
            resp = await svc.submit(case.a, case.b)
            return resp, svc.varz()

    resp, varz = asyncio.run(run())
    assert resp.ok and resp.outcome == "served"
    assert varz["backend"] == backend
    assert_bytes_identical(reference.c, resp.c)
