"""Golden byte digests of the numeric phase over the shared corpus.

Every exact backend must reproduce these SHA-256 digests of the tiled
product (all eight arrays, their dtypes and shapes) bit for bit.  They
pin step 3's accumulation order across the accumulator choice
(``force_accumulator``) and the value mode (``value_dtype``), and the
masked-SpGEMM product's ``mask_filter`` path, so a rewrite of the
per-product addressing cannot move a single ulp unnoticed.  The chunk
budget (``step3.CHUNK_PRODUCTS``) is not part of the result: a run at a
budget of 64 products, which splits tiles across chunks, must reproduce
the default budget's digest.

Run under another backend with ``REPRO_BACKEND=<name>``.  After a change
that is *meant* to move bytes, print the new table with::

    PYTHONPATH=src python -m tests.test_step3_golden
"""

from __future__ import annotations

import hashlib
from contextlib import ExitStack
from typing import Dict, Optional
from unittest import mock

import numpy as np
import pytest

import repro.core.step3 as step3_module
from repro.core import TileMatrix, masked_tile_spgemm, tile_spgemm
from tests.conftest import random_csr
from tests.corpus import CORPUS

_ARRAYS = ("tileptr", "tilecolidx", "tilennz", "rowptr", "rowidx", "colidx", "val", "mask")
_ACCUMULATORS = (None, "sparse", "dense")
_DTYPES = {"f64": np.float64, "f16": np.float16}
_CHUNKS = (None, 64)
#: ``tnnz`` overrides of the masked product: adaptive, all-dense, all-sparse.
_MASKED_TNNZ = {"adaptive": None, "dense": 0, "sparse": 10**9}


def tile_digest(c: TileMatrix) -> str:
    h = hashlib.sha256(f"{c.shape}/{c.tile_size}".encode())
    for name in _ARRAYS:
        arr = getattr(c, name)
        h.update(f"{name}:{arr.dtype}:{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _chunk_budget(chunk: Optional[int]) -> ExitStack:
    """Run step 3 at a budget of ``chunk`` products (``None``: its default)."""
    stack = ExitStack()
    if chunk is not None:
        stack.enter_context(mock.patch.object(step3_module, "CHUNK_PRODUCTS", chunk))
    return stack


def _plain_id(name: str, acc: Optional[str], dtype: str, chunk: Optional[int]) -> str:
    return f"{name}/{acc or 'adaptive'}/{dtype}/chunk={chunk or 'default'}"


def _masked_id(name: str, tnnz: str, chunk: Optional[int]) -> str:
    return f"masked/{name}/{tnnz}/chunk={chunk or 'default'}"


def _mask_for(name: str, shape) -> TileMatrix:
    seed = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "little")
    return TileMatrix.from_csr(random_csr(shape[0], shape[1], 0.3, seed=seed))


def plain_digest(name: str, acc: Optional[str], dtype: str, chunk: Optional[int]) -> str:
    case = CORPUS[name]
    kwargs = dict(case.kwargs)
    kwargs["value_dtype"] = _DTYPES[dtype]
    a, b = TileMatrix.from_csr(case.a), TileMatrix.from_csr(case.b)
    # fp16 products of the 1e8-scale stress cases overflow to inf/nan; the
    # digest pins those bytes too.
    with _chunk_budget(chunk), np.errstate(over="ignore", invalid="ignore"):
        res = tile_spgemm(a, b, force_accumulator=acc, **kwargs)
    return tile_digest(res.c)


def masked_digest(name: str, tnnz: str, chunk: Optional[int]) -> str:
    case = CORPUS[name]
    a, b = TileMatrix.from_csr(case.a), TileMatrix.from_csr(case.b)
    mask = _mask_for(name, (case.a.shape[0], case.b.shape[1]))
    with _chunk_budget(chunk):
        res = masked_tile_spgemm(a, b, mask, tnnz=_MASKED_TNNZ[tnnz])
    return tile_digest(res.c)


def _plain_params():
    return [
        (name, acc, dtype, chunk)
        for name in sorted(CORPUS)
        for acc in _ACCUMULATORS
        for dtype in _DTYPES
        for chunk in _CHUNKS
    ]


def _masked_params():
    return [
        (name, tnnz, chunk)
        for name in sorted(CORPUS)
        for tnnz in _MASKED_TNNZ
        for chunk in _CHUNKS
    ]


def compute_table() -> Dict[str, str]:
    table = {_plain_id(*p): plain_digest(*p) for p in _plain_params() if p[-1] is None}
    table.update({_masked_id(*p): masked_digest(*p) for p in _masked_params() if p[-1] is None})
    return table


#: Digests recorded from the numpy reference before the single-path
#: rewrite of step 3's addressing; every exact backend matches them, at
#: every chunk budget.
GOLDEN: Dict[str, str] = {
    'cancellation_tile/adaptive/f64/chunk=default': '2a9c83fda0691f656f93d8edd92248a84d15d177eed296d280781d843a935682',
    'cancellation_tile/adaptive/f16/chunk=default': '836076e10269dc7e8754b1d31faacfd3032c0a850ead580a5c1367ced6f18236',
    'cancellation_tile/sparse/f64/chunk=default': '2a9c83fda0691f656f93d8edd92248a84d15d177eed296d280781d843a935682',
    'cancellation_tile/sparse/f16/chunk=default': '836076e10269dc7e8754b1d31faacfd3032c0a850ead580a5c1367ced6f18236',
    'cancellation_tile/dense/f64/chunk=default': '2a9c83fda0691f656f93d8edd92248a84d15d177eed296d280781d843a935682',
    'cancellation_tile/dense/f16/chunk=default': '836076e10269dc7e8754b1d31faacfd3032c0a850ead580a5c1367ced6f18236',
    'cancelling_duplicates/adaptive/f64/chunk=default': '9fd1333af32ec4f4b23ee3f084c48823936ced9beb7489347319775bf6a13c38',
    'cancelling_duplicates/adaptive/f16/chunk=default': '9fd1333af32ec4f4b23ee3f084c48823936ced9beb7489347319775bf6a13c38',
    'cancelling_duplicates/sparse/f64/chunk=default': '9fd1333af32ec4f4b23ee3f084c48823936ced9beb7489347319775bf6a13c38',
    'cancelling_duplicates/sparse/f16/chunk=default': '9fd1333af32ec4f4b23ee3f084c48823936ced9beb7489347319775bf6a13c38',
    'cancelling_duplicates/dense/f64/chunk=default': '9fd1333af32ec4f4b23ee3f084c48823936ced9beb7489347319775bf6a13c38',
    'cancelling_duplicates/dense/f16/chunk=default': '9fd1333af32ec4f4b23ee3f084c48823936ced9beb7489347319775bf6a13c38',
    'dense_16x16_offset_boundary/adaptive/f64/chunk=default': '41c75f158d75f83770427ade61334046fc1656e37071fba02647af26ad1381f3',
    'dense_16x16_offset_boundary/adaptive/f16/chunk=default': 'e5a668baf3a54a80d1d8a861e736a32c76222aab2a8f2f3f86206fa5b6f97156',
    'dense_16x16_offset_boundary/sparse/f64/chunk=default': '41c75f158d75f83770427ade61334046fc1656e37071fba02647af26ad1381f3',
    'dense_16x16_offset_boundary/sparse/f16/chunk=default': 'e5a668baf3a54a80d1d8a861e736a32c76222aab2a8f2f3f86206fa5b6f97156',
    'dense_16x16_offset_boundary/dense/f64/chunk=default': '41c75f158d75f83770427ade61334046fc1656e37071fba02647af26ad1381f3',
    'dense_16x16_offset_boundary/dense/f16/chunk=default': 'e5a668baf3a54a80d1d8a861e736a32c76222aab2a8f2f3f86206fa5b6f97156',
    'dense_tile_in_larger/adaptive/f64/chunk=default': '2729f022e9172f2a22a884d69796b0d40ab7773ff80a3bce6aea9e08992be6de',
    'dense_tile_in_larger/adaptive/f16/chunk=default': '46b0c1dc9a3da7d4da030c4e056cc2f5f2800638ebcf6fbb33e47413a819559f',
    'dense_tile_in_larger/sparse/f64/chunk=default': '2729f022e9172f2a22a884d69796b0d40ab7773ff80a3bce6aea9e08992be6de',
    'dense_tile_in_larger/sparse/f16/chunk=default': '46b0c1dc9a3da7d4da030c4e056cc2f5f2800638ebcf6fbb33e47413a819559f',
    'dense_tile_in_larger/dense/f64/chunk=default': '2729f022e9172f2a22a884d69796b0d40ab7773ff80a3bce6aea9e08992be6de',
    'dense_tile_in_larger/dense/f16/chunk=default': '46b0c1dc9a3da7d4da030c4e056cc2f5f2800638ebcf6fbb33e47413a819559f',
    'duplicate_coo/adaptive/f64/chunk=default': 'e82f8bd689113d56518a1ff81dc47c3add6743898146f2ad5db96498061df6fa',
    'duplicate_coo/adaptive/f16/chunk=default': 'e82f8bd689113d56518a1ff81dc47c3add6743898146f2ad5db96498061df6fa',
    'duplicate_coo/sparse/f64/chunk=default': 'e82f8bd689113d56518a1ff81dc47c3add6743898146f2ad5db96498061df6fa',
    'duplicate_coo/sparse/f16/chunk=default': 'e82f8bd689113d56518a1ff81dc47c3add6743898146f2ad5db96498061df6fa',
    'duplicate_coo/dense/f64/chunk=default': 'e82f8bd689113d56518a1ff81dc47c3add6743898146f2ad5db96498061df6fa',
    'duplicate_coo/dense/f16/chunk=default': 'e82f8bd689113d56518a1ff81dc47c3add6743898146f2ad5db96498061df6fa',
    'empty_square/adaptive/f64/chunk=default': '42332b0073a5a7f570ea0d6098e22e2453df8fb0a9fee97bec7e78c5463b0fb4',
    'empty_square/adaptive/f16/chunk=default': '42332b0073a5a7f570ea0d6098e22e2453df8fb0a9fee97bec7e78c5463b0fb4',
    'empty_square/sparse/f64/chunk=default': '42332b0073a5a7f570ea0d6098e22e2453df8fb0a9fee97bec7e78c5463b0fb4',
    'empty_square/sparse/f16/chunk=default': '42332b0073a5a7f570ea0d6098e22e2453df8fb0a9fee97bec7e78c5463b0fb4',
    'empty_square/dense/f64/chunk=default': '42332b0073a5a7f570ea0d6098e22e2453df8fb0a9fee97bec7e78c5463b0fb4',
    'empty_square/dense/f16/chunk=default': '42332b0073a5a7f570ea0d6098e22e2453df8fb0a9fee97bec7e78c5463b0fb4',
    'empty_times_random/adaptive/f64/chunk=default': 'dfa954c9dcc959ae5e549d82864dfc9ef7cc4d9311d91d4e0adad891abfec532',
    'empty_times_random/adaptive/f16/chunk=default': 'dfa954c9dcc959ae5e549d82864dfc9ef7cc4d9311d91d4e0adad891abfec532',
    'empty_times_random/sparse/f64/chunk=default': 'dfa954c9dcc959ae5e549d82864dfc9ef7cc4d9311d91d4e0adad891abfec532',
    'empty_times_random/sparse/f16/chunk=default': 'dfa954c9dcc959ae5e549d82864dfc9ef7cc4d9311d91d4e0adad891abfec532',
    'empty_times_random/dense/f64/chunk=default': 'dfa954c9dcc959ae5e549d82864dfc9ef7cc4d9311d91d4e0adad891abfec532',
    'empty_times_random/dense/f16/chunk=default': 'dfa954c9dcc959ae5e549d82864dfc9ef7cc4d9311d91d4e0adad891abfec532',
    'fp16_magnitude_spread/adaptive/f64/chunk=default': '476b1531d80ffe3c3df8ba10a1fab1a4e41598db7ef020754e2dfa5733d68ef1',
    'fp16_magnitude_spread/adaptive/f16/chunk=default': 'dd82554f082ddb52da63b89c30c72e39d8bcefbf98a1f6d58dea2baee73097c7',
    'fp16_magnitude_spread/sparse/f64/chunk=default': '476b1531d80ffe3c3df8ba10a1fab1a4e41598db7ef020754e2dfa5733d68ef1',
    'fp16_magnitude_spread/sparse/f16/chunk=default': 'dd82554f082ddb52da63b89c30c72e39d8bcefbf98a1f6d58dea2baee73097c7',
    'fp16_magnitude_spread/dense/f64/chunk=default': '476b1531d80ffe3c3df8ba10a1fab1a4e41598db7ef020754e2dfa5733d68ef1',
    'fp16_magnitude_spread/dense/f16/chunk=default': 'dd82554f082ddb52da63b89c30c72e39d8bcefbf98a1f6d58dea2baee73097c7',
    'fp16_value_mode/adaptive/f64/chunk=default': '41c75f158d75f83770427ade61334046fc1656e37071fba02647af26ad1381f3',
    'fp16_value_mode/adaptive/f16/chunk=default': 'e5a668baf3a54a80d1d8a861e736a32c76222aab2a8f2f3f86206fa5b6f97156',
    'fp16_value_mode/sparse/f64/chunk=default': '41c75f158d75f83770427ade61334046fc1656e37071fba02647af26ad1381f3',
    'fp16_value_mode/sparse/f16/chunk=default': 'e5a668baf3a54a80d1d8a861e736a32c76222aab2a8f2f3f86206fa5b6f97156',
    'fp16_value_mode/dense/f64/chunk=default': '41c75f158d75f83770427ade61334046fc1656e37071fba02647af26ad1381f3',
    'fp16_value_mode/dense/f16/chunk=default': 'e5a668baf3a54a80d1d8a861e736a32c76222aab2a8f2f3f86206fa5b6f97156',
    'magnitude_spread_1e6/adaptive/f64/chunk=default': 'c39c601e2e5414a789974a9b0f2facd48ec623fcf5d7453285b0ffda4283ec21',
    'magnitude_spread_1e6/adaptive/f16/chunk=default': 'ec006d2eb6375b37002c88aea07a2a0ba0ddbc7f9948d50c82b7bb6c79e89960',
    'magnitude_spread_1e6/sparse/f64/chunk=default': 'c39c601e2e5414a789974a9b0f2facd48ec623fcf5d7453285b0ffda4283ec21',
    'magnitude_spread_1e6/sparse/f16/chunk=default': 'ec006d2eb6375b37002c88aea07a2a0ba0ddbc7f9948d50c82b7bb6c79e89960',
    'magnitude_spread_1e6/dense/f64/chunk=default': 'c39c601e2e5414a789974a9b0f2facd48ec623fcf5d7453285b0ffda4283ec21',
    'magnitude_spread_1e6/dense/f16/chunk=default': 'ec006d2eb6375b37002c88aea07a2a0ba0ddbc7f9948d50c82b7bb6c79e89960',
    'moderate_random/adaptive/f64/chunk=default': '4df5938dea0de124665e7da24df1f41d8ddb562fc4fd5e5fb874d2da6303159b',
    'moderate_random/adaptive/f16/chunk=default': '85784d8ca4071e2a518d58cccfeb5bfcea3aea09afb7649c59bf7c225a4509b0',
    'moderate_random/sparse/f64/chunk=default': '4df5938dea0de124665e7da24df1f41d8ddb562fc4fd5e5fb874d2da6303159b',
    'moderate_random/sparse/f16/chunk=default': '85784d8ca4071e2a518d58cccfeb5bfcea3aea09afb7649c59bf7c225a4509b0',
    'moderate_random/dense/f64/chunk=default': '4df5938dea0de124665e7da24df1f41d8ddb562fc4fd5e5fb874d2da6303159b',
    'moderate_random/dense/f16/chunk=default': '85784d8ca4071e2a518d58cccfeb5bfcea3aea09afb7649c59bf7c225a4509b0',
    'outer_product/adaptive/f64/chunk=default': '72e89425577cf7a24137974421f7333e0f78e9f81f0ad5ec209280d8b4f8a43f',
    'outer_product/adaptive/f16/chunk=default': '72e89425577cf7a24137974421f7333e0f78e9f81f0ad5ec209280d8b4f8a43f',
    'outer_product/sparse/f64/chunk=default': '72e89425577cf7a24137974421f7333e0f78e9f81f0ad5ec209280d8b4f8a43f',
    'outer_product/sparse/f16/chunk=default': '72e89425577cf7a24137974421f7333e0f78e9f81f0ad5ec209280d8b4f8a43f',
    'outer_product/dense/f64/chunk=default': '72e89425577cf7a24137974421f7333e0f78e9f81f0ad5ec209280d8b4f8a43f',
    'outer_product/dense/f16/chunk=default': '72e89425577cf7a24137974421f7333e0f78e9f81f0ad5ec209280d8b4f8a43f',
    'ragged_17x19/adaptive/f64/chunk=default': '9474f21abfee20f228f6250991e4fc1f0ab764812941eb02af96753db4e2bb8d',
    'ragged_17x19/adaptive/f16/chunk=default': 'a19e52671175abb8d77cc61ce138a4e389872a77e0c882131ef2782105f8ed86',
    'ragged_17x19/sparse/f64/chunk=default': '9474f21abfee20f228f6250991e4fc1f0ab764812941eb02af96753db4e2bb8d',
    'ragged_17x19/sparse/f16/chunk=default': 'a19e52671175abb8d77cc61ce138a4e389872a77e0c882131ef2782105f8ed86',
    'ragged_17x19/dense/f64/chunk=default': '9474f21abfee20f228f6250991e4fc1f0ab764812941eb02af96753db4e2bb8d',
    'ragged_17x19/dense/f16/chunk=default': 'a19e52671175abb8d77cc61ce138a4e389872a77e0c882131ef2782105f8ed86',
    'ragged_31x33/adaptive/f64/chunk=default': 'bf50584f85e555f41536e68e148062884bbc5b5700d5059a0108de2f2c39f8b6',
    'ragged_31x33/adaptive/f16/chunk=default': 'b52ef34c37b8e2a882da8a53eaa0852120893d606546e75bb1cd89f1d8ac87f5',
    'ragged_31x33/sparse/f64/chunk=default': 'bf50584f85e555f41536e68e148062884bbc5b5700d5059a0108de2f2c39f8b6',
    'ragged_31x33/sparse/f16/chunk=default': 'b52ef34c37b8e2a882da8a53eaa0852120893d606546e75bb1cd89f1d8ac87f5',
    'ragged_31x33/dense/f64/chunk=default': 'bf50584f85e555f41536e68e148062884bbc5b5700d5059a0108de2f2c39f8b6',
    'ragged_31x33/dense/f16/chunk=default': 'b52ef34c37b8e2a882da8a53eaa0852120893d606546e75bb1cd89f1d8ac87f5',
    'ragged_50x47/adaptive/f64/chunk=default': 'e29c9d21d46bb8d269dffe191af3f7b06c4ac00aebda20870c71f142ed9d2480',
    'ragged_50x47/adaptive/f16/chunk=default': 'adf6965ce2d32134ab40ec99a2eb51c7f744c5b8474e01aa55321e36c6fcbd9d',
    'ragged_50x47/sparse/f64/chunk=default': 'e29c9d21d46bb8d269dffe191af3f7b06c4ac00aebda20870c71f142ed9d2480',
    'ragged_50x47/sparse/f16/chunk=default': 'adf6965ce2d32134ab40ec99a2eb51c7f744c5b8474e01aa55321e36c6fcbd9d',
    'ragged_50x47/dense/f64/chunk=default': 'e29c9d21d46bb8d269dffe191af3f7b06c4ac00aebda20870c71f142ed9d2480',
    'ragged_50x47/dense/f16/chunk=default': 'adf6965ce2d32134ab40ec99a2eb51c7f744c5b8474e01aa55321e36c6fcbd9d',
    'rectangular_8x32/adaptive/f64/chunk=default': '238e3dfe516ce2ce0b5d79bd7c9131967002bafd73746b84a8f86acc035343b7',
    'rectangular_8x32/adaptive/f16/chunk=default': '0c7e7719ff90c8cbfa2390403da9417d01330d1ca5abf6d08fa8ea4667288f1b',
    'rectangular_8x32/sparse/f64/chunk=default': '238e3dfe516ce2ce0b5d79bd7c9131967002bafd73746b84a8f86acc035343b7',
    'rectangular_8x32/sparse/f16/chunk=default': '0c7e7719ff90c8cbfa2390403da9417d01330d1ca5abf6d08fa8ea4667288f1b',
    'rectangular_8x32/dense/f64/chunk=default': '238e3dfe516ce2ce0b5d79bd7c9131967002bafd73746b84a8f86acc035343b7',
    'rectangular_8x32/dense/f16/chunk=default': '0c7e7719ff90c8cbfa2390403da9417d01330d1ca5abf6d08fa8ea4667288f1b',
    'masked/cancellation_tile/adaptive/chunk=default': '9e54996b68c19034b225e4601874eebd9877b567992e8fe253d40758afc5ce79',
    'masked/cancellation_tile/dense/chunk=default': '9e54996b68c19034b225e4601874eebd9877b567992e8fe253d40758afc5ce79',
    'masked/cancellation_tile/sparse/chunk=default': '9e54996b68c19034b225e4601874eebd9877b567992e8fe253d40758afc5ce79',
    'masked/cancelling_duplicates/adaptive/chunk=default': '7d22de13ef4daed58fbea59298ff7400bb3a5a4a66a3340560d2991c6afc0af0',
    'masked/cancelling_duplicates/dense/chunk=default': '7d22de13ef4daed58fbea59298ff7400bb3a5a4a66a3340560d2991c6afc0af0',
    'masked/cancelling_duplicates/sparse/chunk=default': '7d22de13ef4daed58fbea59298ff7400bb3a5a4a66a3340560d2991c6afc0af0',
    'masked/dense_16x16_offset_boundary/adaptive/chunk=default': '3d466c1695f5bb30f0292925fa2e5f247ed1b0276f0f04edfc121c9856ce3900',
    'masked/dense_16x16_offset_boundary/dense/chunk=default': '3d466c1695f5bb30f0292925fa2e5f247ed1b0276f0f04edfc121c9856ce3900',
    'masked/dense_16x16_offset_boundary/sparse/chunk=default': '3d466c1695f5bb30f0292925fa2e5f247ed1b0276f0f04edfc121c9856ce3900',
    'masked/dense_tile_in_larger/adaptive/chunk=default': 'c9c142e94d9d550624233526e30fdd445763eee6b0dde05b195379972e151cb1',
    'masked/dense_tile_in_larger/dense/chunk=default': 'c9c142e94d9d550624233526e30fdd445763eee6b0dde05b195379972e151cb1',
    'masked/dense_tile_in_larger/sparse/chunk=default': 'c9c142e94d9d550624233526e30fdd445763eee6b0dde05b195379972e151cb1',
    'masked/duplicate_coo/adaptive/chunk=default': 'a25d23ea4f1cf859302f82dffbe46530973c673452d85cab79bb8941cfec1840',
    'masked/duplicate_coo/dense/chunk=default': 'a25d23ea4f1cf859302f82dffbe46530973c673452d85cab79bb8941cfec1840',
    'masked/duplicate_coo/sparse/chunk=default': 'a25d23ea4f1cf859302f82dffbe46530973c673452d85cab79bb8941cfec1840',
    'masked/empty_square/adaptive/chunk=default': '42332b0073a5a7f570ea0d6098e22e2453df8fb0a9fee97bec7e78c5463b0fb4',
    'masked/empty_square/dense/chunk=default': '42332b0073a5a7f570ea0d6098e22e2453df8fb0a9fee97bec7e78c5463b0fb4',
    'masked/empty_square/sparse/chunk=default': '42332b0073a5a7f570ea0d6098e22e2453df8fb0a9fee97bec7e78c5463b0fb4',
    'masked/empty_times_random/adaptive/chunk=default': 'dfa954c9dcc959ae5e549d82864dfc9ef7cc4d9311d91d4e0adad891abfec532',
    'masked/empty_times_random/dense/chunk=default': 'dfa954c9dcc959ae5e549d82864dfc9ef7cc4d9311d91d4e0adad891abfec532',
    'masked/empty_times_random/sparse/chunk=default': 'dfa954c9dcc959ae5e549d82864dfc9ef7cc4d9311d91d4e0adad891abfec532',
    'masked/fp16_magnitude_spread/adaptive/chunk=default': '2e3f23dd988f960b2d2690697fe242e673058239524a647c5b7bdbe58ef0cdca',
    'masked/fp16_magnitude_spread/dense/chunk=default': '2e3f23dd988f960b2d2690697fe242e673058239524a647c5b7bdbe58ef0cdca',
    'masked/fp16_magnitude_spread/sparse/chunk=default': '2e3f23dd988f960b2d2690697fe242e673058239524a647c5b7bdbe58ef0cdca',
    'masked/fp16_value_mode/adaptive/chunk=default': '9dfdd7d5d597494f9934328c382460a9729f49a43fcdd5e21f149a91c525d60c',
    'masked/fp16_value_mode/dense/chunk=default': '9dfdd7d5d597494f9934328c382460a9729f49a43fcdd5e21f149a91c525d60c',
    'masked/fp16_value_mode/sparse/chunk=default': '9dfdd7d5d597494f9934328c382460a9729f49a43fcdd5e21f149a91c525d60c',
    'masked/magnitude_spread_1e6/adaptive/chunk=default': '1538734de3b8d1bd2c130e2ba8198c10c903a9db63078617f7140d4ba83ba883',
    'masked/magnitude_spread_1e6/dense/chunk=default': '1538734de3b8d1bd2c130e2ba8198c10c903a9db63078617f7140d4ba83ba883',
    'masked/magnitude_spread_1e6/sparse/chunk=default': '1538734de3b8d1bd2c130e2ba8198c10c903a9db63078617f7140d4ba83ba883',
    'masked/moderate_random/adaptive/chunk=default': '78d842485655fe453368bccf1d4658c99813e24bde17dcc70430085bbcd0d5e3',
    'masked/moderate_random/dense/chunk=default': '78d842485655fe453368bccf1d4658c99813e24bde17dcc70430085bbcd0d5e3',
    'masked/moderate_random/sparse/chunk=default': '78d842485655fe453368bccf1d4658c99813e24bde17dcc70430085bbcd0d5e3',
    'masked/outer_product/adaptive/chunk=default': 'c0b2aa525c1b7b6d568cd0f7629c02619d3d9d23999c2e47bfe6644d1eb1b809',
    'masked/outer_product/dense/chunk=default': 'c0b2aa525c1b7b6d568cd0f7629c02619d3d9d23999c2e47bfe6644d1eb1b809',
    'masked/outer_product/sparse/chunk=default': 'c0b2aa525c1b7b6d568cd0f7629c02619d3d9d23999c2e47bfe6644d1eb1b809',
    'masked/ragged_17x19/adaptive/chunk=default': '88c8a8696a9db457a2f5206d4b4e1c278a147bdc6c2159d5d8e504db00fec665',
    'masked/ragged_17x19/dense/chunk=default': '88c8a8696a9db457a2f5206d4b4e1c278a147bdc6c2159d5d8e504db00fec665',
    'masked/ragged_17x19/sparse/chunk=default': '88c8a8696a9db457a2f5206d4b4e1c278a147bdc6c2159d5d8e504db00fec665',
    'masked/ragged_31x33/adaptive/chunk=default': 'e443b7db380d6e810065ad87d38c38e255081dec0e71cd7749d9b9065b21b67b',
    'masked/ragged_31x33/dense/chunk=default': 'e443b7db380d6e810065ad87d38c38e255081dec0e71cd7749d9b9065b21b67b',
    'masked/ragged_31x33/sparse/chunk=default': 'e443b7db380d6e810065ad87d38c38e255081dec0e71cd7749d9b9065b21b67b',
    'masked/ragged_50x47/adaptive/chunk=default': '57b6660e5cc4dcb56dd68b6eba5680de8b438c769e2b819d2e0fe3cdd5b7445c',
    'masked/ragged_50x47/dense/chunk=default': '57b6660e5cc4dcb56dd68b6eba5680de8b438c769e2b819d2e0fe3cdd5b7445c',
    'masked/ragged_50x47/sparse/chunk=default': '57b6660e5cc4dcb56dd68b6eba5680de8b438c769e2b819d2e0fe3cdd5b7445c',
    'masked/rectangular_8x32/adaptive/chunk=default': '6e114f1495a6aad5e33e2f6cdec6c2fc798dd193f989aa8c91a898052e611b7a',
    'masked/rectangular_8x32/dense/chunk=default': '6e114f1495a6aad5e33e2f6cdec6c2fc798dd193f989aa8c91a898052e611b7a',
    'masked/rectangular_8x32/sparse/chunk=default': '6e114f1495a6aad5e33e2f6cdec6c2fc798dd193f989aa8c91a898052e611b7a',
    'nonfinite_dense_tile/adaptive/f64/chunk=default': 'cadfe050b948844c7f81c888e8994a5526735987ab5b9a37fa734037ef0930b3',
    'nonfinite_dense_tile/adaptive/f16/chunk=default': 'a24090e75ce92a7b9f7251bfd2c158529ed786e648f8a28967664f2fd9f9e0aa',
    'nonfinite_dense_tile/sparse/f64/chunk=default': 'cadfe050b948844c7f81c888e8994a5526735987ab5b9a37fa734037ef0930b3',
    'nonfinite_dense_tile/sparse/f16/chunk=default': 'a24090e75ce92a7b9f7251bfd2c158529ed786e648f8a28967664f2fd9f9e0aa',
    'nonfinite_dense_tile/dense/f64/chunk=default': 'cadfe050b948844c7f81c888e8994a5526735987ab5b9a37fa734037ef0930b3',
    'nonfinite_dense_tile/dense/f16/chunk=default': 'a24090e75ce92a7b9f7251bfd2c158529ed786e648f8a28967664f2fd9f9e0aa',
    'masked/nonfinite_dense_tile/adaptive/chunk=default': '0bee7e946870de340778c52cde86c9648ea4e564b3b65aeccc64a54ef03604ad',
    'masked/nonfinite_dense_tile/dense/chunk=default': '0bee7e946870de340778c52cde86c9648ea4e564b3b65aeccc64a54ef03604ad',
    'masked/nonfinite_dense_tile/sparse/chunk=default': '0bee7e946870de340778c52cde86c9648ea4e564b3b65aeccc64a54ef03604ad',
}


@pytest.mark.parametrize("name,acc,dtype,chunk", _plain_params(), ids=lambda v: str(v))
def test_plain_digest_unchanged(name, acc, dtype, chunk):
    assert plain_digest(name, acc, dtype, chunk) == GOLDEN[_plain_id(name, acc, dtype, None)]


@pytest.mark.parametrize("name,tnnz,chunk", _masked_params(), ids=lambda v: str(v))
def test_masked_digest_unchanged(name, tnnz, chunk):
    assert masked_digest(name, tnnz, chunk) == GOLDEN[_masked_id(name, tnnz, None)]


def test_table_covers_every_case():
    assert set(GOLDEN) == {_plain_id(*p) for p in _plain_params() if p[-1] is None} | {
        _masked_id(*p) for p in _masked_params() if p[-1] is None
    }


if __name__ == "__main__":
    for key, digest in compute_table().items():
        print(f"    {key!r}: {digest!r},")
