"""Always-on workload profiler: where the time and the work went.

The paper's performance story is driven by per-tile-row workload skew —
intermediate-product counts, the sparse-vs-dense accumulator choice, the
``tnnz`` threshold decision.  The tracer shows *when* phases ran and the
metrics registry counts *how much* total work happened, but neither
attributes work to the tile-row bands it came from, and neither records
which plan the planner chose.

:class:`WorkloadProfiler` closes that gap.  It aggregates, per run:

* **per-phase** wall seconds (``step1``/``step2``/``step3``/``malloc``);
* **per-tile-row-band** workload: candidate tiles, matched pairs,
  intermediate products, ``nnz(C)``, and the accumulator path taken
  (tiles grouped into bands of :data:`DEFAULT_BAND_TILE_ROWS` tile
  rows, so hotspot reports name a row range, not a tile id);
* **tnnz decisions**: how many tiles went sparse vs dense per threshold;
* **execution plans**: one record per planned parallel run.

Everything serialises into a schema-versioned ``repro.profile/1`` JSON
artifact (:meth:`WorkloadProfiler.to_dict`), coerced through
:func:`repro.obs.native.to_native` so ``json.dumps`` needs no custom
default.

**One record per multiply.**  :meth:`WorkloadProfiler.record_run` is
called once per multiply, from its result: by ``tile_spgemm`` when it is
called directly, and by the shard engine's stitch for every engine run,
whatever its ranges and threads.  The stitched statistics carry the
global ``c_tilerow``, so bands are in whole-matrix coordinates and a
sharded run's :meth:`workload` equals the serial run's byte for byte.
``record_run`` takes a lock, so a service's concurrent requests never
interleave their merges.  The ``totals`` are the sums of the bands,
computed at export.

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
    "flops",
    "nnz_c",
    "num_c_tiles",
    "pairs",
    "sparse_tiles",
    "dense_tiles",
)


class WorkloadProfiler:
    """Additive aggregation of one run's (or one service's) workload.

    Parameters
    ----------
    band_tile_rows:
        Tile rows per attribution band.
    """

    enabled: bool = True

    def __init__(self, band_tile_rows: int = DEFAULT_BAND_TILE_ROWS) -> None:
        if band_tile_rows < 1:
            raise ValueError(f"band_tile_rows must be >= 1, got {band_tile_rows}")
        self.band_tile_rows = int(band_tile_rows)
        self.runs = 0
        self.phases: Dict[str, Dict[str, float]] = {}
        self.bands: Dict[int, Dict[str, int]] = {}
        self.tnnz: Dict[str, Dict[str, int]] = {}
        self.plans: List[Dict[str, Any]] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------ recording
    def record_run(self, stats: Dict[str, Any], timer) -> None:
        """Fold one multiply's stats and phase timer in.

        ``stats["c_tilerow"]`` names each C tile's global tile row.  Safe
        to call from several threads.
        """
        with self._lock:
            self._record_run(stats, timer)

    def _record_run(self, stats: Dict[str, Any], timer) -> None:
        self.runs += 1
        for name, seconds in timer.seconds.items():
            ph = self.phases.setdefault(name, {"seconds": 0.0, "count": 0})
            ph["seconds"] += float(seconds)
            ph["count"] += int(timer.count(name))

        threshold = stats.get("tnnz")
        if threshold is not None:
            decision = self.tnnz.setdefault(
                str(int(threshold)), {"sparse_tiles": 0, "dense_tiles": 0}
            )
            decision["sparse_tiles"] += int(stats.get("sparse_tiles", 0))
            decision["dense_tiles"] += int(stats.get("dense_tiles", 0))

        tile_rows = stats.get("c_tilerow")
        if tile_rows is None:
            return
        tile_rows = np.asarray(tile_rows, dtype=np.int64)
        if tile_rows.size == 0:
            return
        band_ids = tile_rows // self.band_tile_rows
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

    def record_plan(self, plan: Dict[str, Any]) -> None:
        """Record one :class:`~repro.runtime.planner.ExecutionPlan` dict.

        Called by the parallel engine when it runs under a plan, so the
        profile artifact can attribute a run's shape (workers, shard
        boundaries, tnnz, backend) to the planner's decisions.
        """
        self.plans.append(to_native(dict(plan)))

    # ------------------------------------------------------------- export
    @property
    def totals(self) -> Dict[str, int]:
        """Whole-profile work: the sums of the bands (``flops`` is two
        per intermediate product, ``num_c_tiles`` the candidate tiles)."""
        sums = {k: 0 for k in _BAND_COUNT_KEYS}
        for counts in list(self.bands.values()):
            for key in _BAND_COUNT_KEYS:
                sums[key] += counts[key]
        return {
            "products": sums["products"],
            "flops": 2 * sums["products"],
            "nnz_c": sums["nnz_c"],
            "num_c_tiles": sums["tiles"],
            "pairs": sums["pairs"],
            "sparse_tiles": sums["sparse_tiles"],
            "dense_tiles": sums["dense_tiles"],
        }

    def _band_rows(self) -> List[Dict[str, Any]]:
        width = self.band_tile_rows
        return [
            {
                "band": band,
                "tile_rows": [band * width, (band + 1) * width],
                **{k: counts[k] for k in _BAND_COUNT_KEYS},
            }
            for band, counts in sorted(self.bands.items())
        ]

    def workload(self) -> Dict[str, Any]:
        """The deterministic sub-document: counts only, no timings.

        Depends only on the inputs and the algorithm's decisions — a
        parallel run's workload equals the serial run's byte for byte
        (``json.dumps(..., sort_keys=True)``), which the propagation
        tests assert.
        """
        return to_native(
            {
                "schema": PROFILE_SCHEMA,
                "band_tile_rows": self.band_tile_rows,
                "totals": self.totals,
                "tnnz": {k: dict(v) for k, v in sorted(self.tnnz.items())},
                "bands": self._band_rows(),
            }
        )

    def to_dict(self, include_cache: bool = True) -> Dict[str, Any]:
        """The full ``repro.profile/1`` artifact as a plain dict.

        ``include_cache`` snapshots the process-wide
        :class:`~repro.runtime.tilecache.TileCache` counters at call
        time (skipped for per-series bench embedding, where the global
        cache would smear across series).
        """
        doc: Dict[str, Any] = {
            "schema": PROFILE_SCHEMA,
            "band_tile_rows": self.band_tile_rows,
            "runs": self.runs,
            "phases": {k: dict(v) for k, v in self.phases.items()},
            "totals": self.totals,
            "tnnz": {k: dict(v) for k, v in sorted(self.tnnz.items())},
            "bands": self._band_rows(),
            "plans": list(self.plans),
        }
        if include_cache:
            from repro.runtime.tilecache import get_tile_cache

            doc["cache"] = get_tile_cache().stats()
        return to_native(doc)

    def summary(self) -> Dict[str, Any]:
        """A small view for ``SpGEMMService.varz()``: totals, phases, top
        band.  Takes the lock: varz() may read while a request records."""
        with self._lock:
            return self._summary()

    def _summary(self) -> Dict[str, Any]:
        top = None
        if self.bands:
            band, counts = max(self.bands.items(), key=lambda kv: kv[1]["products"])
            width = self.band_tile_rows
            top = {
                "tile_rows": [band * width, (band + 1) * width],
                "products": counts["products"],
                "nnz_c": counts["nnz_c"],
            }
        runs = max(self.runs, 1)
        totals = self.totals
        return to_native(
            {
                "runs": self.runs,
                "phase_seconds": {
                    k: v["seconds"] for k, v in self.phases.items()
                },
                "products": totals["products"],
                "nnz_c": totals["nnz_c"],
                "products_per_run": totals["products"] / runs,
                "top_band": top,
            }
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WorkloadProfiler(runs={self.runs}, bands={len(self.bands)}, "
            f"plans={len(self.plans)})"
        )


class NullProfiler:
    """The disabled profiler: every method is a no-op.

    One shared instance (:data:`NULL_PROFILER`) backs the default
    observability context, so unprofiled runs pay a truthiness check on
    ``enabled`` and nothing else.
    """

    enabled: bool = False

    def record_run(self, stats, timer) -> None:
        pass

    def record_plan(self, plan) -> None:
        pass

    def summary(self) -> Dict[str, Any]:
        return {}


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
    offending path, mirroring the bench schema's contract.
    """
    if not isinstance(doc, dict):
        _fail("$", "artifact must be a JSON object")
    if doc.get("schema") != PROFILE_SCHEMA:
        _fail("$.schema", f"expected {PROFILE_SCHEMA!r}, got {doc.get('schema')!r}")
    _check_number(doc.get("band_tile_rows"), "$.band_tile_rows")
    _check_number(doc.get("runs"), "$.runs")
    phases = doc.get("phases")
    if not isinstance(phases, dict):
        _fail("$.phases", "expected an object")
    for name, ph in phases.items():
        if not isinstance(ph, dict):
            _fail(f"$.phases[{name!r}]", "expected an object")
        for key in ("seconds", "count"):
            _check_number(ph.get(key), f"$.phases[{name!r}].{key}")
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
    cache = doc.get("cache")
    if cache is not None:
        if not isinstance(cache, dict):
            _fail("$.cache", "expected an object")
        for key in ("hits", "misses", "evictions", "resident_bytes"):
            _check_number(cache.get(key, 0), f"$.cache.{key}")
    plans = doc.get("plans")
    if plans is not None:
        if not isinstance(plans, list):
            _fail("$.plans", "expected a list")
        for i, plan in enumerate(plans):
            at = f"$.plans[{i}]"
            if not isinstance(plan, dict):
                _fail(at, "expected an object")
            for key in ("mode", "backend"):
                if not isinstance(plan.get(key), str) or not plan[key]:
                    _fail(f"{at}.{key}", "expected a non-empty string")
            for key in ("workers", "shards", "tnnz"):
                _check_number(plan.get(key), f"{at}.{key}")
            bounds = plan.get("bounds")
            if not isinstance(bounds, list) or len(bounds) < 2:
                _fail(f"{at}.bounds", "expected a list of >= 2 boundaries")
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
    """Human-readable hotspot report: phases, top tile-row bands, cache."""
    lines: List[str] = []
    totals = doc.get("totals", {})
    lines.append(
        f"workload profile ({doc.get('runs', 0)} runs): "
        f"{totals.get('products', 0)} products -> {totals.get('nnz_c', 0)} nnz(C) "
        f"across {totals.get('num_c_tiles', 0)} tiles "
        f"({totals.get('sparse_tiles', 0)} sparse / {totals.get('dense_tiles', 0)} dense)"
    )
    phases = doc.get("phases", {})
    if phases:
        total_s = sum(ph.get("seconds", 0.0) for ph in phases.values()) or 1.0
        lines.append(f"{'phase':<20} {'seconds':>12} {'share':>7} {'entries':>8}")
        for name, ph in sorted(
            phases.items(), key=lambda kv: -kv[1].get("seconds", 0.0)
        ):
            seconds = ph.get("seconds", 0.0)
            lines.append(
                f"{name:<20} {seconds:>12.6f} {seconds / total_s:>6.1%} "
                f"{int(ph.get('count', 0)):>8}"
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
    cache = doc.get("cache")
    if cache:
        lines.append("")
        lines.append(
            f"tile cache: {cache.get('hits', 0)} hits / "
            f"{cache.get('misses', 0)} misses / {cache.get('evictions', 0)} "
            f"evictions, {cache.get('size', 0)} entries "
            f"({cache.get('resident_bytes', 0)} B resident)"
        )
    plans = doc.get("plans", [])
    if plans:
        lines.append("")
        lines.append(f"execution plans recorded: {len(plans)}")
        for plan in plans[-max(int(top), 1):]:
            est = plan.get("estimate", {})
            lines.append(
                f"  {plan.get('mode', '?'):<8} workers={plan.get('workers', '?')} "
                f"shards={plan.get('shards', '?')} tnnz={plan.get('tnnz', '?')} "
                f"backend={plan.get('backend', '?')} "
                f"(est {est.get('products', '?')} products, "
                f"band {est.get('band', '?')})"
            )
            lines.extend(f"    {note}" for note in plan.get("notes", []))
    return "\n".join(lines)
