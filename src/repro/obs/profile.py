"""Workload profiler: which tile-row bands the work came from.

The paper's performance story is driven by per-tile-row workload skew.
The metrics registry counts *how much* work a run did and the tracer
shows *when* its phases ran; neither says which rows of ``C`` the work
belongs to.  :class:`WorkloadProfiler` answers that one question: per
band of :data:`DEFAULT_BAND_TILE_ROWS` tile rows, the candidate tiles,
matched pairs, intermediate products, ``nnz(C)`` and the tiles that
took the sparse or the dense accumulator, with the number of ``runs``
folded in and the ``totals`` summed from the bands.  Phase times are
``result.timer`` (and the trace's step spans), the plan a multiply ran
under is a ``plan`` instant on the trace
(:func:`~repro.runtime.parallel.parallel_tile_spgemm`), and the tile
cache's counters are :meth:`~repro.runtime.tilecache.TileCache.stats`.

Everything serialises into a schema-versioned ``repro.profile/1`` JSON
artifact (:meth:`WorkloadProfiler.to_dict`), coerced through
:func:`repro.obs.native.to_native` so ``json.dumps`` needs no custom
default.

**One record per multiply.**  :meth:`WorkloadProfiler.record_run` is
called once per multiply, from its result: by ``tile_spgemm`` when it is
called directly, and by the shard engine's stitch for every engine run,
whatever its ranges and threads.  The stitched statistics carry the
global ``c_tilerow``, so bands are in whole-matrix coordinates.  The
document holds counts only, so a sharded run's :meth:`~WorkloadProfiler.to_dict`
equals the serial run's byte for byte.  ``record_run`` takes a lock, so
a service's concurrent requests never interleave their merges.

**Cost.**  Recording is O(candidate tiles) NumPy reductions per run —
the same order as the existing metrics recording — and the disabled
path is :data:`NULL_PROFILER`, whose methods are no-ops, so the
observability overhead bench's <5 % bound holds with the profiler live
(``benchmarks/bench_ext_observability.py``).
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, List

import numpy as np

from repro.obs.native import to_native

__all__ = [
    "PROFILE_SCHEMA",
    "DEFAULT_BAND_TILE_ROWS",
    "WorkloadProfiler",
    "NullProfiler",
    "NULL_PROFILER",
    "validate_profile",
    "write_profile",
    "load_profile",
    "render_profile",
]

#: Version tag of the profile artifact; bump on incompatible changes.
PROFILE_SCHEMA = "repro.profile/1"

#: Tile rows per attribution band (4 tile rows = 64 matrix rows at the
#: paper's 16x16 tiles) — coarse enough that artifacts stay small on the
#: representative suite, fine enough to localise a hotspot.
DEFAULT_BAND_TILE_ROWS = 4

_BAND_COUNT_KEYS = (
    "tiles",
    "pairs",
    "products",
    "nnz_c",
    "sparse_tiles",
    "dense_tiles",
)

_TOTAL_KEYS = (
    "products",
    "nnz_c",
    "num_c_tiles",
    "pairs",
    "sparse_tiles",
    "dense_tiles",
)


class WorkloadProfiler:
    """Additive per-band work of one run's (or one service's) multiplies."""

    enabled: bool = True

    def __init__(self) -> None:
        self.runs = 0
        self.bands: Dict[int, Dict[str, int]] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------ recording
    def record_run(self, stats: Dict[str, Any]) -> None:
        """Fold one multiply's per-tile statistics into the bands.

        ``stats["c_tilerow"]`` names each C tile's global tile row.  Safe
        to call from several threads.
        """
        with self._lock:
            self._record_run(stats)

    def _record_run(self, stats: Dict[str, Any]) -> None:
        self.runs += 1
        tile_rows = stats.get("c_tilerow")
        if tile_rows is None:
            return
        tile_rows = np.asarray(tile_rows, dtype=np.int64)
        if tile_rows.size == 0:
            return
        band_ids = tile_rows // DEFAULT_BAND_TILE_ROWS
        minlength = int(band_ids.max()) + 1
        per_band = {
            "tiles": np.bincount(band_ids, minlength=minlength),
            "pairs": np.bincount(
                band_ids,
                weights=np.asarray(stats["pairs_per_tile"], dtype=np.float64),
                minlength=minlength,
            ),
            "products": np.bincount(
                band_ids,
                weights=np.asarray(stats["products_per_tile"], dtype=np.float64),
                minlength=minlength,
            ),
            "nnz_c": np.bincount(
                band_ids,
                weights=np.asarray(stats["tile_nnz_counts"], dtype=np.float64),
                minlength=minlength,
            ),
            "dense_tiles": np.bincount(
                band_ids,
                weights=np.asarray(stats["tile_use_dense"], dtype=np.float64),
                minlength=minlength,
            ),
        }
        per_band["sparse_tiles"] = per_band["tiles"] - per_band["dense_tiles"]
        for band in np.flatnonzero(per_band["tiles"]):
            counts = self.bands.setdefault(
                int(band), {k: 0 for k in _BAND_COUNT_KEYS}
            )
            for key in _BAND_COUNT_KEYS:
                counts[key] += int(per_band[key][band])

    # ------------------------------------------------------------- export
    @property
    def totals(self) -> Dict[str, int]:
        """Whole-profile work: the sums of the bands (``num_c_tiles`` is
        the candidate tiles)."""
        sums = {k: 0 for k in _BAND_COUNT_KEYS}
        for counts in list(self.bands.values()):
            for key in _BAND_COUNT_KEYS:
                sums[key] += counts[key]
        return {
            "products": sums["products"],
            "nnz_c": sums["nnz_c"],
            "num_c_tiles": sums["tiles"],
            "pairs": sums["pairs"],
            "sparse_tiles": sums["sparse_tiles"],
            "dense_tiles": sums["dense_tiles"],
        }

    def to_dict(self) -> Dict[str, Any]:
        """The ``repro.profile/1`` artifact as a plain dict.

        Counts only, no timings: it depends only on the inputs and the
        algorithm's decisions, so a sharded run's document equals the
        serial run's byte for byte (``json.dumps(..., sort_keys=True)``),
        which the propagation tests assert.
        """
        width = DEFAULT_BAND_TILE_ROWS
        with self._lock:
            return to_native(
                {
                    "schema": PROFILE_SCHEMA,
                    "band_tile_rows": width,
                    "runs": self.runs,
                    "totals": self.totals,
                    "bands": [
                        {
                            "band": band,
                            "tile_rows": [band * width, (band + 1) * width],
                            **{k: counts[k] for k in _BAND_COUNT_KEYS},
                        }
                        for band, counts in sorted(self.bands.items())
                    ],
                }
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WorkloadProfiler(runs={self.runs}, bands={len(self.bands)})"


class NullProfiler:
    """The disabled profiler: every method is a no-op.

    One shared instance (:data:`NULL_PROFILER`) backs the default
    observability context, so unprofiled runs pay a truthiness check on
    ``enabled`` and nothing else.
    """

    enabled: bool = False

    def record_run(self, stats) -> None:
        pass


#: Singleton used by the default (disabled) observability context.
NULL_PROFILER = NullProfiler()


# ----------------------------------------------------------------------
# Artifact I/O and validation
# ----------------------------------------------------------------------
def _fail(path: str, message: str):
    from repro.errors import InvalidInputError

    raise InvalidInputError(f"invalid profile artifact at {path}: {message}")


def _check_number(value: Any, path: str) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        _fail(path, f"expected a number, got {value!r}")


def validate_profile(doc: Any) -> Dict[str, Any]:
    """Check ``doc`` against the ``repro.profile/1`` shape; returns it.

    Raises :class:`~repro.errors.InvalidInputError` naming the first
    offending path, mirroring the bench schema's contract.  Only the
    kept sections are checked; a section older artifacts carried
    (``phases``, ``tnnz``, ``plans``, ``cache``, ``calibration``) is
    ignored, so those artifacts still load.
    """
    if not isinstance(doc, dict):
        _fail("$", "artifact must be a JSON object")
    if doc.get("schema") != PROFILE_SCHEMA:
        _fail("$.schema", f"expected {PROFILE_SCHEMA!r}, got {doc.get('schema')!r}")
    _check_number(doc.get("band_tile_rows"), "$.band_tile_rows")
    _check_number(doc.get("runs"), "$.runs")
    totals = doc.get("totals")
    if not isinstance(totals, dict):
        _fail("$.totals", "expected an object")
    for key in _TOTAL_KEYS:
        _check_number(totals.get(key), f"$.totals.{key}")
    bands = doc.get("bands")
    if not isinstance(bands, list):
        _fail("$.bands", "expected a list")
    for i, band in enumerate(bands):
        at = f"$.bands[{i}]"
        if not isinstance(band, dict):
            _fail(at, "expected an object")
        _check_number(band.get("band"), f"{at}.band")
        rows = band.get("tile_rows")
        if not (isinstance(rows, list) and len(rows) == 2):
            _fail(f"{at}.tile_rows", "expected a [start, end) pair")
        for key in _BAND_COUNT_KEYS:
            _check_number(band.get(key), f"{at}.{key}")
    return doc


def write_profile(doc: Dict[str, Any], path) -> None:
    """Validate and write one profile artifact as indented JSON.

    Serialisation needs no custom default: the profiler coerces through
    :func:`~repro.obs.native.to_native` at every export seam.
    """
    validate_profile(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")


def load_profile(path) -> Dict[str, Any]:
    """Read and validate one ``repro.profile/1`` artifact."""
    from repro.errors import InvalidInputError

    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(
                f"profile artifact {path} is not valid JSON: {exc}"
            ) from exc
    return validate_profile(doc)


def render_profile(doc: Dict[str, Any], top: int = 10) -> str:
    """Human-readable hotspot report: the totals and the top tile-row bands."""
    lines: List[str] = []
    totals = doc.get("totals", {})
    lines.append(
        f"workload profile ({doc.get('runs', 0)} runs): "
        f"{totals.get('products', 0)} products -> {totals.get('nnz_c', 0)} nnz(C) "
        f"across {totals.get('num_c_tiles', 0)} tiles "
        f"({totals.get('sparse_tiles', 0)} sparse / {totals.get('dense_tiles', 0)} dense)"
    )
    bands = sorted(
        doc.get("bands", []), key=lambda b: -int(b.get("products", 0))
    )[: max(int(top), 0)]
    if bands:
        lines.append("")
        lines.append(
            f"top {len(bands)} tile-row bands by intermediate products "
            f"(band = {doc.get('band_tile_rows', '?')} tile rows):"
        )
        lines.append(
            f"{'tile rows':<16} {'tiles':>7} {'pairs':>9} {'products':>10} "
            f"{'nnz(C)':>9} {'dense':>6}"
        )
        for band in bands:
            r0, r1 = band.get("tile_rows", [0, 0])
            lines.append(
                f"[{r0:>5}, {r1:>5}) {int(band.get('tiles', 0)):>7} "
                f"{int(band.get('pairs', 0)):>9} {int(band.get('products', 0)):>10} "
                f"{int(band.get('nnz_c', 0)):>9} {int(band.get('dense_tiles', 0)):>6}"
            )
    return "\n".join(lines)
