"""Extension bench: kernel backends through the bench runner.

Three questions about :mod:`repro.backend`:

1. What does each backend cost?  The smoke suite runs once per timed
   backend through :class:`repro.bench.runner.BenchRunner` with
   ``BenchConfig.backend`` set, so every document records the backend it
   measured under (``meta["backend"]``) and the numbers are comparable
   run-to-run.
2. Do the backends agree?  Every timed backend and the pure-Python
   oracle (``pyloops``) are checked *byte-identical* to the numpy
   reference on the smoke matrices before any of their timings are
   reported.
3. How big are the deltas?  Speed ratios vs numpy are reported, not
   gated — the oracle is meant to be slow, and the optional accelerated
   backends' margins depend on the host; speed claims are made on the
   default backend (``benchmarks/e2e``).  One gate applies when numba is
   importable: the ``prange`` variant (``numba-par``) must beat the
   sequential one (``numba``), geomean > 1x across the smoke suite, to
   earn its place.

Writes ``benchmarks/results/ext_backends.{txt,json}``; the JSON is one
``repro.bench/1`` document whose series carry a ``backend`` tag in
``extra``.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import RESULTS_DIR, save_and_print
from repro.analysis import format_table
from repro.backend import backend_available, get_backend
from repro.bench import schema
from repro.bench.runner import SUITES, BenchConfig, BenchRunner
from repro.core import TileMatrix, tile_spgemm

#: Backends timed through the full bench runner.  ``pyloops`` is not in
#: this list: it is the differential oracle, timed one-shot below.
TIMED_BACKENDS = ["numpy"] + (
    ["numba", "numba-par"] if backend_available("numba") else []
)

#: Repeats for the runner-timed backends; the oracle runs once.
REPEATS = 3

_IDENTITY_ARRAYS = (
    "tileptr", "tilecolidx", "tilennz", "rowptr",
    "rowidx", "colidx", "val", "mask",
)


def _assert_identical(ref, got, context):
    for arr in _IDENTITY_ARRAYS:
        r, g = getattr(ref.c, arr), getattr(got.c, arr)
        assert r.dtype == g.dtype and r.tobytes() == g.tobytes(), (context, arr)


def _smoke_operands():
    """The smoke suite's matrices, pre-tiled (op = ``aa``)."""
    out = {}
    for spec in SUITES["smoke"].specs():
        out[spec.name] = TileMatrix.from_csr(spec.matrix())
    return out


@pytest.fixture(scope="module")
def backend_docs():
    """One bench document per timed backend, via the bench runner."""
    docs = {}
    for name in TIMED_BACKENDS:
        cfg = BenchConfig(
            suite="smoke",
            label=f"ext-backends-{name}",
            warmup=1,
            repeats=REPEATS,
            backend=name,
        )
        docs[name] = BenchRunner(cfg).run()
    return docs


@pytest.fixture(scope="module")
def oracle_rows():
    """pyloops on the smoke matrices: byte-identity vs numpy, then one
    timed pass (the whole point of the oracle is that it is slow)."""
    kernels = get_backend("pyloops")
    rows = {}
    for name, a in _smoke_operands().items():
        ref = tile_spgemm(a, a, backend="numpy")
        t0 = time.perf_counter()
        got = tile_spgemm(a, a, backend=kernels)
        oracle_s = time.perf_counter() - t0
        _assert_identical(ref, got, name)
        t0 = time.perf_counter()
        tile_spgemm(a, a, backend="numpy")
        numpy_s = time.perf_counter() - t0
        rows[name] = {
            "oracle_s": oracle_s,
            "numpy_s": numpy_s,
            "slowdown": oracle_s / numpy_s if numpy_s else 0.0,
            "identical": True,
        }
    return rows


@pytest.fixture(scope="module")
def identity_checked():
    """Every timed backend byte-identical to numpy on the smoke matrices
    *before* any of its timings is trusted."""
    checked = []
    for backend in TIMED_BACKENDS[1:]:
        for name, a in _smoke_operands().items():
            ref = tile_spgemm(a, a, backend="numpy")
            _assert_identical(ref, tile_spgemm(a, a, backend=backend), (backend, name))
        checked.append(backend)
    return checked


def _tile_series(doc, backend):
    """The document's tilespgemm series, re-keyed per backend (series
    keys are unique within a document, so the combined comparison doc
    uses ``tilespgemm@<backend>`` as the method)."""
    out = []
    for s in doc["series"]:
        if s["method"] != "tilespgemm":
            continue
        extra = dict(s.get("extra", {}))
        extra["backend"] = backend
        method = f"tilespgemm@{backend}"
        out.append(
            {
                **s,
                "method": method,
                "key": schema.series_key(s["matrix"], method, s["op"]),
                "extra": extra,
            }
        )
    return out


def test_backend_comparison_report(
    benchmark, backend_docs, oracle_rows, identity_checked
):
    numpy_doc = backend_docs["numpy"]
    base = {
        s["matrix"]: min(s["wall_seconds"])
        for s in numpy_doc["series"]
        if s["method"] == "tilespgemm"
    }
    rows = []
    for name, doc in backend_docs.items():
        assert doc["meta"]["backend"] == name
        for s in doc["series"]:
            if s["method"] != "tilespgemm":
                continue
            best = min(s["wall_seconds"])
            ratio = base[s["matrix"]] / best if best else 0.0
            rows.append(
                [s["matrix"], name, f"{best * 1e3:.2f}", f"{ratio:.2f}x", "runner"]
            )
    for matrix, row in oracle_rows.items():
        ratio = base[matrix] / row["oracle_s"] if row["oracle_s"] else 0.0
        rows.append(
            [matrix, "pyloops", f"{row['oracle_s'] * 1e3:.2f}", f"{ratio:.2f}x",
             "oracle (byte-identical)"]
        )
    text = format_table(
        ["matrix", "backend", "best ms", "vs numpy", "path"],
        rows,
        title=(
            "Extension: kernel backends on the smoke suite "
            "(ratios reported, not gated; every backend verified "
            "byte-identical to numpy)"
        ),
    )
    benchmark.pedantic(
        save_and_print, args=("ext_backends", text), rounds=1, iterations=1
    )

    doc = schema.new_document(
        label="ext-backends",
        suite="ext_backends",
        warmup=1,
        repeats=REPEATS,
        seed=0,
        backend="numpy",
    )
    for name, bdoc in backend_docs.items():
        doc["series"].extend(_tile_series(bdoc, name))
    for matrix, row in oracle_rows.items():
        doc["series"].append(
            schema.make_series(
                matrix,
                "tilespgemm@pyloops",
                "aa",
                wall_seconds=[row["oracle_s"]],
                extra={
                    "backend": "pyloops",
                    "byte_identical_to_numpy": row["identical"],
                    "slowdown_vs_numpy": row["slowdown"],
                },
            )
        )
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    schema.write_document(doc, RESULTS_DIR / "ext_backends.json")
    print("[saved to benchmarks/results/ext_backends.json]")


def test_shape_documents_record_backend(backend_docs):
    """Every runner document carries the backend it measured under."""
    for name, doc in backend_docs.items():
        schema.validate_document(doc)
        assert doc["meta"]["backend"] == name


def test_shape_oracle_agrees_everywhere(oracle_rows):
    """The oracle matched the reference on every smoke matrix; deltas are
    informational only (no speed floor on an intentionally slow oracle)."""
    assert oracle_rows
    for matrix, row in oracle_rows.items():
        assert row["identical"], matrix
        assert row["oracle_s"] > 0, matrix


def test_shape_timed_backends_identical(identity_checked):
    """Every timed non-reference backend passed the byte-identity check
    on every smoke matrix."""
    assert identity_checked == TIMED_BACKENDS[1:]


@pytest.mark.skipif(
    not backend_available("numba"),
    reason="numba not importable: the numba-par vs numba race needs both",
)
def test_numba_par_beats_sequential_numba(backend_docs):
    """``numba-par``'s reason to exist, gated only when numba is present:
    the prange variant must beat sequential numba with geomean > 1x
    across the smoke suite (best-of-repeats per matrix)."""
    seq = {
        s["matrix"]: min(s["wall_seconds"])
        for s in backend_docs["numba"]["series"]
        if s["method"] == "tilespgemm"
    }
    par = {
        s["matrix"]: min(s["wall_seconds"])
        for s in backend_docs["numba-par"]["series"]
        if s["method"] == "tilespgemm"
    }
    assert set(seq) == set(par) and seq
    ratios = [seq[m] / par[m] for m in seq if par[m] > 0]
    geomean = float(np.exp(np.mean(np.log(ratios))))
    print(f"[numba-par vs numba geomean: {geomean:.2f}x]")
    assert geomean > 1.0, ratios
