"""Cross-backend conformance harness for :mod:`repro.backend`.

Every registered, available backend is judged against the numpy
reference on the shared edge-case corpus (:mod:`tests.corpus`): all
eight output arrays of the ``TileSpGEMMResult`` must be
*byte-identical* (dtype, shape, raw bytes) to the reference.  That is
the one backend contract, and it must also hold when a sharded run on
the 2-worker thread pool forwards the backend to its shards by
registry name.

The harness parametrises over :func:`repro.backend.list_backends`, so a
newly registered backend is picked up with zero test changes — that is
the conformance contract: register, and this file judges you.
"""

from __future__ import annotations

import importlib.machinery
import sys
import threading
import types

import numpy as np
import pytest

from repro.backend import (
    KernelSet,
    backend_available,
    default_backend_name,
    get_backend,
    list_backends,
    register_backend,
    resolve_backend,
    resolve_backend_name,
    unregister_backend,
)
from repro.backend.numpy_backend import NumpyKernelSet
from repro.cli import main as cli_main
from repro.core import TileMatrix, tile_spgemm
from repro.errors import ConfigurationError, InvalidInputError
from repro.matrices.generators import banded, permute_symmetric
from tests.corpus import CORPUS, corpus_names
from tests.test_parallel_runtime import assert_bytes_identical

BACKENDS = list_backends()
NON_REFERENCE = [name for name in BACKENDS if name != "numpy"]

CASES = corpus_names()


def _tiled(csr):
    return TileMatrix.from_csr(csr)


def _run(backend, case_name, **extra):
    case = CORPUS[case_name]
    return tile_spgemm(
        _tiled(case.a), _tiled(case.b), backend=backend, **{**case.kwargs, **extra}
    )


@pytest.fixture(scope="module")
def references():
    """The numpy-backend result for every corpus case, computed once."""
    return {name: _run("numpy", name) for name in CASES}


# ---------------------------------------------------------------------------
# Byte identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", CASES)
def test_exact_backend_matches_numpy_reference(backend, case, references):
    """Byte-identity of all eight output arrays against the reference."""
    got = _run(backend, case)
    assert got.stats["backend"] == backend
    assert_bytes_identical(references[case].c, got.c)


@pytest.mark.parametrize("backend", NON_REFERENCE)
def test_backend_kernels_actually_ran(backend):
    """Per-kernel call counters prove the backend executed its kernels —
    a backend silently delegating to numpy would still be conformant,
    so identity alone is not proof of execution."""
    kernels = get_backend(backend)
    kernels.reset_calls()
    case = CORPUS["moderate_random"]
    tile_spgemm(_tiled(case.a), _tiled(case.a), backend=kernels)
    # A permuted narrow band takes step 1's column join, whose live
    # entries step 2 ORs through ``mask_or_into``.
    cop = permute_symmetric(banded(600, 4, fill=0.95, seed=5), seed=5).to_csr()
    tile_spgemm(_tiled(cop), _tiled(cop), backend=kernels)
    assert kernels.total_calls > 0
    assert kernels.calls["mask_or_into"] > 0
    assert kernels.calls["popcount"] > 0
    assert kernels.calls["scatter_add_into"] > 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_exact_backend_through_thread_pool(backend, references):
    """The run resolves the backend once: every shard on the 2-worker
    thread pool runs that kernel set and returns bytes identical to the
    serial numpy reference."""
    from repro.runtime.parallel import parallel_tile_spgemm

    case = CORPUS["moderate_random"]
    got = parallel_tile_spgemm(
        _tiled(case.a), _tiled(case.b), workers=2, backend=backend
    )
    assert got.stats["backend"] == backend
    assert_bytes_identical(references["moderate_random"].c, got.c)


# ---------------------------------------------------------------------------
# Pool backend resolution semantics
# ---------------------------------------------------------------------------


class TestThreadPoolBackendResolution:
    """The run resolves the backend once — explicit argument, then
    ``REPRO_BACKEND``, then ``numpy`` — and forwards the kernel set with
    each shard, so every shard on the 2-worker thread pool runs the
    backend the run started with."""

    def _operands(self):
        case = CORPUS["moderate_random"]
        return _tiled(case.a), _tiled(case.b)

    def test_env_var_reaches_children(self, references, monkeypatch):
        from repro.runtime.parallel import parallel_tile_spgemm

        monkeypatch.setenv("REPRO_BACKEND", "pyloops")
        at, bt = self._operands()
        got = parallel_tile_spgemm(at, bt, workers=2)
        assert got.stats["backend"] == "pyloops"
        assert_bytes_identical(references["moderate_random"].c, got.c)

    def test_explicit_backend_beats_env(self, references, monkeypatch):
        from repro.runtime.parallel import parallel_tile_spgemm

        monkeypatch.setenv("REPRO_BACKEND", "pyloops")
        at, bt = self._operands()
        got = parallel_tile_spgemm(at, bt, workers=2, backend="numpy")
        assert got.stats["backend"] == "numpy"
        assert_bytes_identical(references["moderate_random"].c, got.c)

    def test_unregistered_kernel_set_reaches_every_entry_point(self, references):
        # A renamed copy of the numpy kernels, never registered: the run
        # forwards the instance itself, so no shard looks its name up.
        import asyncio

        from repro.backend.numpy_backend import NumpyKernelSet
        from repro.runtime.parallel import parallel_tile_spgemm, spgemm_batch
        from repro.serve import SpGEMMService

        class Custom(NumpyKernelSet):
            name = "custom"

        ks = Custom()
        assert "custom" not in list_backends(available_only=False)
        case = CORPUS["moderate_random"]
        at, bt = self._operands()
        ref = references["moderate_random"].c
        for workers in (1, 2):
            got = parallel_tile_spgemm(at, bt, workers=workers, backend=ks)
            assert got.stats["backend"] == "custom"
            assert_bytes_identical(ref, got.c)
            (batched,) = spgemm_batch([(at, bt)], workers=workers, backend=ks)
            assert_bytes_identical(ref, batched.c)

        async def serve():
            async with SpGEMMService(workers=2, backend=ks) as svc:
                return await svc.submit(case.a, case.b), svc.varz()

        resp, varz = asyncio.run(serve())
        assert varz["backend"] == "custom"
        assert_bytes_identical(ref, resp.result_or_raise())


# ---------------------------------------------------------------------------
# Registry API
# ---------------------------------------------------------------------------


class TestRegistryAPI:
    def test_numpy_always_first_and_available(self):
        names = list_backends()
        assert names[0] == "numpy"
        assert backend_available("numpy")

    def test_pyloops_registered(self):
        assert "pyloops" in list_backends()

    def test_registered_names(self):
        assert list_backends(available_only=False) == [
            "numpy", "numba", "numba-par", "pyloops",
        ]

    def test_numba_backends_listed_only_when_usable(self):
        from repro.backend.accel import numba_available

        everything = list_backends(available_only=False)
        assert "numba" in everything
        assert "numba-par" in everything
        has_numba = numba_available()
        assert backend_available("numba") == has_numba
        assert backend_available("numba-par") == has_numba
        assert ("numba" in list_backends()) == has_numba
        assert ("numba-par" in list_backends()) == has_numba

    def test_get_backend_unknown_name_lists_alternatives(self):
        # ``fragment`` is a removed backend: it fails like any unknown name.
        for name in ("no-such-backend", "fragment"):
            with pytest.raises(InvalidInputError, match="'numpy'.*'pyloops'"):
                get_backend(name)
            with pytest.raises(InvalidInputError, match="'numpy'.*'pyloops'"):
                resolve_backend(name)

    def test_get_backend_caches_instances(self):
        assert get_backend("numpy") is get_backend("numpy")

    def test_resolve_precedence_explicit_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "pyloops")
        assert resolve_backend_name("numpy") == "numpy"
        assert resolve_backend_name(None) == "pyloops"
        monkeypatch.delenv("REPRO_BACKEND")
        assert resolve_backend_name(None) == default_backend_name() == "numpy"

    def test_resolve_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "pyloops")
        assert default_backend_name() == "pyloops"
        assert resolve_backend(None).name == "pyloops"
        for name in ("no-such-backend", "fragment"):
            monkeypatch.setenv("REPRO_BACKEND", name)
            with pytest.raises(ConfigurationError, match="REPRO_BACKEND"):
                resolve_backend(None)

    def test_resolve_accepts_kernelset_instance(self):
        inst = get_backend("pyloops")
        assert resolve_backend(inst) is inst
        assert resolve_backend_name(inst) == "pyloops"

    def test_register_and_unregister_custom_backend(self):
        class Custom(KernelSet):
            pass

        register_backend("custom-test", Custom, description="test stub")
        try:
            assert "custom-test" in list_backends()
            assert isinstance(get_backend("custom-test"), Custom)
        finally:
            unregister_backend("custom-test")
        assert "custom-test" not in list_backends(available_only=False)

    def test_duplicate_registration_requires_replace(self):
        class Custom(KernelSet):
            pass

        register_backend("custom-dup", Custom)
        try:
            with pytest.raises(InvalidInputError):
                register_backend("custom-dup", Custom)
            register_backend("custom-dup", Custom, replace=True)
        finally:
            unregister_backend("custom-dup")

    def test_numpy_cannot_be_unregistered(self):
        with pytest.raises(InvalidInputError):
            unregister_backend("numpy")


class TestNoProcessWideDefault:
    """A run's backend is an argument of its entry point: one thread's
    choice never reaches a run on another thread."""

    def test_cli_backend_stays_on_its_thread(self, tmp_path, monkeypatch):
        from repro.formats.mtx import write_mtx

        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        entered, release = threading.Event(), threading.Event()

        class Gate(NumpyKernelSet):
            """The numpy kernels, holding the run at its first kernel call."""

            def _tick(self, kernel):
                if not entered.is_set():
                    entered.set()
                    release.wait(timeout=30)
                super()._tick(kernel)

        case = CORPUS["moderate_random"]
        path = tmp_path / "a.mtx"
        write_mtx(path, case.a)
        at = _tiled(case.a)
        register_backend("test-gate", Gate)
        codes = []
        run = threading.Thread(
            target=lambda: codes.append(
                cli_main(["--backend", "test-gate", str(path), "--json"])
            )
        )
        run.start()
        try:
            assert entered.wait(timeout=30), "the CLI run never reached a kernel"
            # Checked before multiplying, so a leaked default fails here
            # instead of holding this thread at the gate.
            assert resolve_backend(None).name == "numpy"
            assert tile_spgemm(at, at).stats["backend"] == "numpy"
        finally:
            release.set()
            run.join(timeout=60)
            unregister_backend("test-gate")
        assert not run.is_alive()
        assert codes == [0]


# ---------------------------------------------------------------------------
# numba availability probe
# ---------------------------------------------------------------------------


class TestNumbaAvailabilityProbe:
    """``numba_available`` must survive broken installs: it probes an
    actual njit compile, caches the verdict, and a package that imports
    but cannot compile reads as absent instead of erroring mid-run."""

    def test_broken_numba_import_reads_as_unavailable(self, monkeypatch):
        import repro.backend.accel as accel

        broken = types.ModuleType("numba")
        # A module object with a spec but no njit: find_spec succeeds,
        # ``from numba import njit`` raises — the half-installed shape.
        broken.__spec__ = importlib.machinery.ModuleSpec("numba", loader=None)
        monkeypatch.setitem(sys.modules, "numba", broken)
        accel._reset_numba_probe()
        try:
            assert accel.numba_available() is False
            assert not backend_available("numba")
            assert not backend_available("numba-par")
            assert "numba" not in list_backends()
        finally:
            accel._reset_numba_probe()

    def test_probe_failing_compile_reads_as_unavailable(self, monkeypatch):
        import repro.backend.accel as accel

        broken = types.ModuleType("numba")
        broken.__spec__ = importlib.machinery.ModuleSpec("numba", loader=None)

        def njit(*args, **kwargs):
            raise RuntimeError("llvmlite ABI mismatch")

        broken.njit = njit
        monkeypatch.setitem(sys.modules, "numba", broken)
        accel._reset_numba_probe()
        try:
            assert accel.numba_available() is False
        finally:
            accel._reset_numba_probe()

    def test_verdict_is_cached(self, monkeypatch):
        import repro.backend.accel as accel

        accel._reset_numba_probe(False)
        calls = []
        monkeypatch.setattr(
            importlib.util,
            "find_spec",
            lambda name: calls.append(name) or None,
        )
        try:
            assert accel.numba_available() is False
            assert calls == []  # cached verdict, no re-probe
        finally:
            accel._reset_numba_probe()

    def test_missing_package_reads_as_unavailable(self, monkeypatch):
        import repro.backend.accel as accel

        accel._reset_numba_probe()
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
        try:
            assert accel.numba_available() is False
        finally:
            accel._reset_numba_probe()


# ---------------------------------------------------------------------------
# Kernel-level unit conformance
# ---------------------------------------------------------------------------


def _scatter_inputs(seed=9, out_size=7, n=64):
    rng = np.random.default_rng(seed)
    pos = rng.integers(0, out_size, size=n)
    w = rng.uniform(-1, 1, size=n) * 10.0 ** rng.integers(-8, 8, size=n)
    return pos, w


class TestKernelUnitConformance:
    """The five kernels, compared numpy-vs-each-backend on raw arrays.

    Every kernel, the float scatter-add included, must be byte-identical
    to numpy's."""

    @pytest.mark.parametrize("backend", NON_REFERENCE)
    def test_scatter_add_bit_identity_with_cancellation(self, backend):
        # Catastrophic-cancellation inputs: any reordering of the
        # accumulation shows up in the low bits of the result.
        ref_k = get_backend("numpy")
        got_k = get_backend(backend)
        pos, w = _scatter_inputs()
        ref = np.zeros(7)
        got = np.zeros(7)
        ref_k.scatter_add_into(ref, pos, w)
        got_k.scatter_add_into(got, pos, w)
        assert ref.tobytes() == got.tobytes()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_scatter_add_into_offset_view(self, backend):
        # Step 3 scatters each chunk into its window of C's values, with
        # positions relative to the window's start.  Each weight is added
        # onto the window in turn: on a base of 1e16, where 1.0 is half an
        # ulp, in-order adds round every 1.0 away, while summing the
        # weights first would keep them.
        pos = np.array([0, 2, 0, 2, 5, 0, 2, 2], dtype=np.int64)
        w = np.array([1.0, 1.0, 1.0, 3.0, -0.0, 1.0, 1.0, 1.0])
        full = np.full(12, 1e16)
        get_backend(backend).scatter_add_into(full[3:10], pos, w)
        expected = [1e16] * 12
        for p, x in zip(pos.tolist(), w.tolist()):
            expected[3 + p] += x
        assert full.tobytes() == np.array(expected).tobytes()
        assert full[3] == 1e16 and full[5] == 1e16 + 4

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_scatter_add_signed_zero_everywhere(self, backend):
        # Only the positions listed are added to: an untouched -0.0 stays
        # -0.0, and -0.0 + -0.0 is -0.0.
        pos = np.array([1, 4, 1, 3], dtype=np.int64)
        w = np.array([-0.0, 2.0, -2.0, -0.0])
        got = np.full(6, -0.0)
        get_backend(backend).scatter_add_into(got, pos, w)
        assert got.tobytes() == np.array([-0.0, -2.0, -0.0, -0.0, 2.0, -0.0]).tobytes()
        empty = np.empty(0, dtype=np.int64)
        got = np.full(3, -0.0)
        get_backend(backend).scatter_add_into(got, empty, empty.astype(float))
        assert got.tobytes() == np.full(3, -0.0).tobytes()

    @pytest.mark.parametrize("backend", NON_REFERENCE)
    def test_mask_popcount_rank_roundtrip(self, backend):
        ref_k = get_backend("numpy")
        got_k = get_backend(backend)
        rng = np.random.default_rng(10)
        masks = rng.integers(0, 2**16, size=(6, 16)).astype(np.uint16)
        ref_pc = ref_k.popcount(masks)
        got_pc = got_k.popcount(masks)
        assert ref_pc.dtype == got_pc.dtype
        assert ref_pc.tobytes() == got_pc.tobytes()
        cols = rng.integers(0, 16, size=masks.shape[0])
        assert (
            ref_k.prefix_popcount(masks[:, 0], cols).tobytes()
            == got_k.prefix_popcount(masks[:, 0], cols).tobytes()
        )
        ranks = np.minimum(ref_pc[:, 0].astype(np.int64), 1)
        assert (
            ref_k.nth_set_bit(masks[:, 0], ranks).tobytes()
            == got_k.nth_set_bit(masks[:, 0], ranks).tobytes()
        )

    @pytest.mark.parametrize("backend", NON_REFERENCE)
    def test_mask_or_duplicate_positions(self, backend):
        ref_k = get_backend("numpy")
        got_k = get_backend(backend)
        pos = np.array([0, 2, 0, 2, 1], dtype=np.int64)
        masks = np.array([1, 2, 4, 8, 16], dtype=np.uint16)
        ref = np.zeros(3, dtype=np.uint16)
        got = np.zeros(3, dtype=np.uint16)
        ref_k.mask_or_into(ref, pos, masks)
        got_k.mask_or_into(got, pos, masks)
        assert ref.tobytes() == got.tobytes()
