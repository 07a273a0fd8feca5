"""Registry adapters running TileSpGEMM under the common baseline API.

The benches iterate over all methods through the
:mod:`repro.baselines.base` registry; these adapters wrap
:func:`repro.core.tilespgemm.tile_spgemm` (and its sharded parallel
variant, :func:`repro.runtime.parallel.parallel_tile_spgemm`) so
TileSpGEMM appears alongside the baselines with the same CSR-in /
CSR-out signature, while preserving its richer statistics and the tiled
result.

Registered methods:

* ``tilespgemm`` — the serial three-step algorithm;
* ``tilespgemm_par2`` / ``tilespgemm_par4`` — the sharded engine on a
  2- / 4-worker thread pool (byte-identical output; the parallel scaling
  suite benchmarks these against the serial method);
* ``tilespgemm_planned`` — the estimation-driven planner
  (:func:`repro.runtime.planner.plan_execution`) choosing the whole
  configuration per run; the planning cost is deliberately *inside* the
  timed region, so the ``planner`` bench suite's comparison against the
  static methods is honest about overhead.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.base import SpGEMMResult, register
from repro.core.tile_matrix import TILE, TileMatrix
from repro.core.tilespgemm import tile_spgemm
from repro.formats.csr import CSRMatrix

__all__ = [
    "tilespgemm_adapter",
    "tilespgemm_par2_adapter",
    "tilespgemm_par4_adapter",
    "tilespgemm_planned_adapter",
]


def _run_adapter(method: str, engine, a, b, tile_size, a_tiled, b_tiled, kwargs):
    """Common adapter body: tile CSR inputs (outside the engine's timed
    phases when pre-tiled operands are passed, matching the paper's
    resident-format assumption), run ``engine``, adapt the result.

    A ``backend=`` entry in ``kwargs`` (registered kernel-backend name or
    :class:`~repro.backend.KernelSet`) flows through to the engine; the
    engine records the resolved name in ``stats["backend"]``, so bench
    documents and the conformance suite can see which kernels ran."""
    timer_extra = None
    if a_tiled is None or b_tiled is None:
        from repro.util.timing import PhaseTimer

        timer_extra = PhaseTimer()
        with timer_extra.phase("format_conversion"):
            if a_tiled is None:
                a_tiled = TileMatrix.from_csr(a, tile_size)
            if b_tiled is None:
                b_tiled = a_tiled if b is a else TileMatrix.from_csr(b, tile_size)
    result = engine(a_tiled, b_tiled, **kwargs)
    if timer_extra is not None:
        result.timer.merge(timer_extra)
    c_csr = result.c.to_csr()
    out = SpGEMMResult(
        c=c_csr,
        method=method,
        timer=result.timer,
        alloc=result.alloc,
        stats=dict(result.stats),
    )
    out.stats["c_tiled"] = result.c
    out.stats["tile_result"] = result
    return out


@register("tilespgemm")
def tilespgemm_adapter(
    a: CSRMatrix,
    b: CSRMatrix,
    tile_size: int = TILE,
    a_tiled: Optional[TileMatrix] = None,
    b_tiled: Optional[TileMatrix] = None,
    backend=None,
    **kwargs,
) -> SpGEMMResult:
    """Run TileSpGEMM on CSR inputs and report an :class:`SpGEMMResult`.

    The tiled-format conversion happens outside the timed phases when
    pre-tiled inputs are passed (``a_tiled``/``b_tiled``), matching the
    paper's assumption that matrices already live in the tiled format;
    otherwise the conversion is recorded as the ``format_conversion``
    phase (Figure 12's quantity).  ``backend`` selects the kernel
    backend (see :mod:`repro.backend`); ``None`` resolves
    ``REPRO_BACKEND``, else ``numpy``.
    """
    if backend is not None:
        kwargs["backend"] = backend
    return _run_adapter("tilespgemm", tile_spgemm, a, b, tile_size, a_tiled, b_tiled, kwargs)


def _make_parallel_adapter(workers: int):
    method = f"tilespgemm_par{workers}"

    @register(method)
    def adapter(
        a: CSRMatrix,
        b: CSRMatrix,
        tile_size: int = TILE,
        a_tiled: Optional[TileMatrix] = None,
        b_tiled: Optional[TileMatrix] = None,
        backend=None,
        **kwargs,
    ) -> SpGEMMResult:
        from repro.runtime.parallel import parallel_tile_spgemm

        if backend is not None:
            kwargs["backend"] = backend

        def engine(at, bt, **kw):
            return parallel_tile_spgemm(at, bt, workers=workers, **kw)

        return _run_adapter(method, engine, a, b, tile_size, a_tiled, b_tiled, kwargs)

    adapter.__name__ = f"tilespgemm_par{workers}_adapter"
    adapter.__doc__ = (
        f"TileSpGEMM on a {workers}-worker thread pool "
        "(sharded engine; output byte-identical to ``tilespgemm``)."
    )
    return adapter


tilespgemm_par2_adapter = _make_parallel_adapter(2)
tilespgemm_par4_adapter = _make_parallel_adapter(4)


@register("tilespgemm_planned")
def tilespgemm_planned_adapter(
    a: CSRMatrix,
    b: CSRMatrix,
    tile_size: int = TILE,
    a_tiled: Optional[TileMatrix] = None,
    b_tiled: Optional[TileMatrix] = None,
    backend=None,
    **kwargs,
) -> SpGEMMResult:
    """TileSpGEMM under an estimation-driven plan (adaptive execution).

    Derives an :class:`~repro.runtime.planner.ExecutionPlan` per call —
    worker count, cost-weighted shard boundaries, accumulator
    threshold, backend — and runs the sharded engine under it.  The
    planning pass runs inside the timed region so benchmark comparisons
    charge its cost; the plan lands in ``stats["plan"]`` and as a
    ``plan`` instant on the ambient trace, next to the spans it shaped.
    """
    from repro.runtime.parallel import parallel_tile_spgemm
    from repro.runtime.planner import plan_execution

    if backend is not None:
        kwargs["backend"] = backend

    def engine(at, bt, **kw):
        plan = plan_execution(at, bt, backend=kw.get("backend"))
        return parallel_tile_spgemm(at, bt, plan=plan, **kw)

    return _run_adapter(
        "tilespgemm_planned", engine, a, b, tile_size, a_tiled, b_tiled, kwargs
    )
