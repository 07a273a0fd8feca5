"""Masked SpGEMM extension: ``C = (A @ B) .* M`` on the tiled format.

GraphBLAS workloads — the paper's triangle counting and BFS motivations —
rarely need the full product: they need it *restricted to an output mask*
(for triangles, ``sum(L .* (L @ L))``).  The paper's tiled format makes
the masked variant almost free, because masks are already the format's
symbolic currency.  The mask is an input to the one TileSpGEMM driver
(:func:`repro.core.tilespgemm._tile_spgemm`), not a second pipeline:

1. step 1 keeps the candidate tiles of ``C`` present in ``M``'s tile
   layout — whole tiles outside the mask are never touched;
2. step 2 ANDs ``M``'s bit masks into the candidate tiles' masks before
   its popcounts — the output structure shrinks to the masked positions
   before any value is computed;
3. step 3 drops the intermediate products whose destination bit was
   masked away (everything else is unchanged).

So a masked run times, ledgers, traces and records its work exactly
like :func:`~repro.core.tilespgemm.tile_spgemm`; it takes no budget,
fault plan or backend and runs unbounded, fault-free, on the default
backend.  This is an *extension* beyond the paper (its future-work
direction of GraphBLAS integration), validated against dense masking in
the tests.
"""

from __future__ import annotations

from typing import Optional

from repro.core.tile_matrix import TileMatrix
from repro.core.tilespgemm import TileSpGEMMResult, _record_work, _tile_spgemm
from repro.obs.context import current_obs

__all__ = ["masked_tile_spgemm"]


def masked_tile_spgemm(
    a: TileMatrix,
    b: TileMatrix,
    mask: TileMatrix,
    tnnz: Optional[int] = None,
    keep_empty_tiles: bool = False,
) -> TileSpGEMMResult:
    """Compute ``C = (A @ B) .* pattern(M)`` entirely in tiled form.

    Parameters
    ----------
    a, b:
        Inputs in tiled form with equal tile sizes.
    mask:
        Output mask; only positions stored in ``mask`` (regardless of
        value) survive in ``C``.  Must have the product's shape and the
        same tile size.
    tnnz:
        Adaptive-accumulator threshold, as in :func:`tile_spgemm`
        (``None`` resolves to the tile size's 75 %-of-capacity default).
    keep_empty_tiles:
        Masked products produce many empty candidate tiles; they are
        compacted away by default.

    Returns
    -------
    TileSpGEMMResult
        With ``stats["masked"] = True`` and the usual timers/ledger.
    """
    if a.tile_size != b.tile_size or a.tile_size != mask.tile_size:
        raise ValueError("A, B and the mask must share one tile size")
    if a.shape[1] != b.shape[0]:
        raise ValueError("dimension mismatch between A and B")
    if mask.shape != (a.shape[0], b.shape[1]):
        raise ValueError(
            f"mask shape {mask.shape} does not match product shape "
            f"{(a.shape[0], b.shape[1])}"
        )
    res = _tile_spgemm(a, b, tnnz=tnnz, keep_empty_tiles=keep_empty_tiles, mask=mask)
    _record_work(current_obs(), res)
    return res
