"""The GPU execution model: algorithm statistics -> estimated kernel time.

This module is the substitution documented in DESIGN.md for the paper's
physical RTX 3060/3090 testbed.  Every SpGEMM implementation in this
repository reports *what it did* — per-tile or per-row work arrays, bytes
it must move, buffers it allocated.  The cost model turns that into an
estimated runtime on a :class:`~repro.gpu.device.DeviceModel` with a
latency-aware roofline per kernel:

``kernel time = max(compute, memory) + launch overhead``

* **compute** — per-warp-task cycle counts are list-scheduled onto the
  device's issue slots (:func:`~repro.gpu.scheduler.greedy_makespan`), so
  a handful of giant tasks produce exactly the load imbalance the paper's
  §2.3 describes;
* **memory** — effective bytes moved divided by DRAM bandwidth.  The
  per-product effective-byte constants below are *calibrated* so that the
  fleet of methods lands near the paper's mean throughputs on the RTX 3090
  (Tile 54.6, spECK 46.9, NSPARSE 37.7, cuSPARSE 30.8, bhSPARSE 11.5
  GFlops); everything structure-dependent — imbalance, per-tile/per-row
  overheads, global-memory spills, two-pass duplication, dense-tile waste,
  allocation volume — comes from the measured statistics of the actual
  run, and it is those terms that produce the *shapes* of the figures.
* **allocation** — total allocated bytes and allocation count through the
  device's allocation-cost model (Figures 9/10's ``malloc`` share).

Out-of-memory is reported when the run's peak logical allocation exceeds
the device DRAM — this is how the paper's "method fails on matrix X"
entries reproduce (use ``DeviceModel.scaled_memory`` to match a scaled
workload suite).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.baselines.base import SpGEMMResult
from repro.gpu.device import DeviceModel
from repro.gpu.scheduler import greedy_makespan

__all__ = ["KernelEstimate", "GPUEstimate", "estimate_run", "estimate_family", "COST"]


# ----------------------------------------------------------------------
# Calibrated cost constants (see module docstring for methodology).
# ----------------------------------------------------------------------
COST: Dict[str, float] = {
    # --- TileSpGEMM ---------------------------------------------------
    "tile.step1_cycles_per_op": 8.0,       # tile-level symbolic multiply op
    "tile.step2_overhead_cycles": 90.0,    # per-C-tile warp setup + loads
    "tile.step2_cycles_per_intersect": 4.0,
    "tile.step2_cycles_per_symop": 2.0,    # mask load + AtomicOr, per lane-op
    "tile.step3_overhead_cycles": 110.0,
    "tile.step3_cycles_sparse": 9.0,       # rank lookup + FMA + shared atomic
    "tile.step3_cycles_dense": 5.0,        # direct index + FMA + shared atomic
    "tile.step3_dense_init_cycles": 128.0,  # clear, then mask-compact, the 256-slot
                                           # scratch tile (why the dense
                                           # accumulator loses on sparse tiles)
    "tile.bytes_per_product": 20.0,        # effective DRAM bytes per product
    "tile.bytes_per_pair": 64.0,           # tile metadata + masks per pair
    "tile.bytes_per_cnnz": 12.0,           # write C (packed idx + value)
    # --- row-row common ----------------------------------------------
    "row.overhead_cycles": 80.0,           # per-row task setup
    # --- cuSPARSE-class dense-row SPA ----------------------------------
    "spa.cycles_per_product": 14.0,        # dense-row random write + FMA
    "spa.bytes_per_product": 40.0,
    "spa.max_warps_per_row": 16.0,
    # --- bhSPARSE ESC ---------------------------------------------------
    "esc.cycles_per_product": 10.0,
    "esc.bytes_per_product": 130.0,        # expand + radix-sort passes + compress
    "esc.sort_cycles_per_key": 6.0,
    "esc.max_warps_per_row": 4.0,          # bin kernels are warp/block per row
    # --- NSPARSE hash ---------------------------------------------------
    "hash.cycles_per_insert": 10.0,        # hash + probe + shared atomic
    "hash.bytes_per_product": 16.0,        # one pass of B-row streaming
    "hash.bytes_per_duplicate": 0.30,      # atomic contention: traffic grows with
                                           # the duplication (compression) ratio
    "hash.global_latency_cycles": 14.0,    # extra per-insert for global tables
    "hash.global_bytes_per_insert": 40.0,  # uncoalesced DRAM atomic RMW traffic
                                           # for rows whose table spills to
                                           # global memory (two passes pay twice)
    "hash.max_warps_per_row": 8.0,
    # --- spECK ----------------------------------------------------------
    "speck.cycles_per_insert": 8.0,
    "speck.bytes_per_product": 24.0,
    "speck.bytes_per_duplicate": 0.35,     # same contention effect as NSPARSE;
                                           # spECK's own paper notes degradation
                                           # at high density / duplication
    "speck.global_latency_cycles": 10.0,
    "speck.global_bytes_per_insert": 64.0, # DRAM atomic RMW traffic of the
                                           # global-table fallback for rows
                                           # whose hash table outgrows shared
                                           # memory — the dominant cost of the
                                           # paper's high-density cases
    "speck.max_warps_per_row": 16.0,       # finer hierarchical balancing
    "speck.analysis_cycles_per_row": 24.0,
    "tsparse.malloc_multiplier": 14.0,     # repeated dense-buffer resizing over
                                           # unified memory: the paper's Figure 14
                                           # shows allocation dominating tSparse
    # --- RMerge -----------------------------------------------------------
    "rmerge.cycles_per_element": 6.0,      # compare + select + add per merge slot
    "rmerge.bytes_per_element": 16.0,      # ping-pong buffer read + write
    "rmerge.max_warps_per_row": 8.0,
    # --- tSparse ----------------------------------------------------------
    "tsparse.bytes_per_pair": 3000.0,      # dense half-tile gather/scatter is
                                           # uncoalesced: effective traffic is ~3x
                                           # the raw two-tiles-plus-result bytes
    "tsparse.tc_efficiency": 0.35,         # wmma pipelines stream well once
                                           # fragments are resident
                                           # (tSparse is conversion/launch bound;
                                           # calibrated to the paper's near-parity
                                           # on fully dense FEM tiles)
    "tsparse.pair_overhead_cycles": 200.0,
    # --- generic --------------------------------------------------------
    "bytes_per_cnnz": 12.0,                # CSR C write (index + value)
}


@dataclass
class KernelEstimate:
    """Roofline estimate of one kernel."""

    name: str
    compute_s: float
    memory_s: float
    launch_s: float
    #: Per-warp-task cycle counts the compute roof was scheduled from;
    #: kept so the observability layer can replay the schedule onto
    #: virtual SM/slot tracks (``repro.obs.gputrace.emit_gpu_timeline``).
    task_cycles: Optional[np.ndarray] = None

    @property
    def seconds(self) -> float:
        """Kernel wall time: bound by the slower roof, plus launch."""
        return max(self.compute_s, self.memory_s) + self.launch_s

    @property
    def bound(self) -> str:
        """Which roof binds: ``"compute"`` or ``"memory"``."""
        return "compute" if self.compute_s >= self.memory_s else "memory"


@dataclass
class GPUEstimate:
    """Estimated execution of one SpGEMM run on one device."""

    method: str
    device: DeviceModel
    kernels: List[KernelEstimate] = field(default_factory=list)
    malloc_s: float = 0.0
    oom: bool = False
    flops: int = 0

    @property
    def seconds(self) -> float:
        """Total estimated runtime (inf when out of memory)."""
        if self.oom:
            return float("inf")
        return sum(k.seconds for k in self.kernels) + self.malloc_s

    @property
    def gflops(self) -> float:
        """Estimated throughput; 0.0 signals failure (paper's convention)."""
        s = self.seconds
        if not np.isfinite(s) or s <= 0:
            return 0.0
        return self.flops / s / 1e9

    def breakdown(self) -> Dict[str, float]:
        """Seconds per kernel plus the allocation share."""
        out = {k.name: k.seconds for k in self.kernels}
        out["malloc"] = self.malloc_s
        return out


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def _compute_seconds(task_cycles: np.ndarray, device: DeviceModel) -> float:
    """List-schedule warp-task cycle counts onto the device's issue slots."""
    return greedy_makespan(task_cycles, device.issue_slots) / device.clock_hz


def _kernel(
    name: str,
    device: DeviceModel,
    task_cycles: np.ndarray,
    nbytes: float,
) -> KernelEstimate:
    return KernelEstimate(
        name=name,
        compute_s=_compute_seconds(task_cycles, device),
        memory_s=device.seconds_for_bytes(nbytes),
        launch_s=device.kernel_launch_us * 1e-6,
        task_cycles=np.asarray(task_cycles, dtype=np.float64),
    )


def _malloc_seconds(result: SpGEMMResult, device: DeviceModel) -> float:
    allocs = [e for e in result.alloc.events if e.kind == "alloc"]
    total = sum(e.nbytes for e in allocs)
    return device.malloc_seconds(total, num_allocs=len(allocs))


def _row_tasks(
    row_products: np.ndarray,
    cycles_per_product: float,
    max_warps_per_row: float,
    device: DeviceModel,
    extra_cycles: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-row warp-task durations for a row-parallel kernel.

    Heavy rows get up to ``max_warps_per_row`` cooperating warps (how each
    library splits long rows), which divides their serial span.
    """
    w = device.warp_width
    products = np.asarray(row_products, dtype=np.float64)
    warps = np.clip(np.ceil(products / (8.0 * w)), 1.0, max_warps_per_row)
    cycles = products * cycles_per_product / (w * warps)
    if extra_cycles is not None:
        cycles = cycles + extra_cycles
    return cycles + COST["row.overhead_cycles"]


# ----------------------------------------------------------------------
# Per-method estimators
# ----------------------------------------------------------------------


def _estimate_tilespgemm(result: SpGEMMResult, device: DeviceModel) -> GPUEstimate:
    s = result.stats
    est = GPUEstimate(method=result.method, device=device, flops=result.flops)

    # Step 1: tile-level symbolic SpGEMM (paper: <5 % of runtime).
    step1_ops = float(s.get("tile_flops_step1", 0))
    # The tile-level product parallelises over tile rows; spread its work
    # across the device (it is tiny relative to steps 2/3 — paper: <5 %).
    step1_work = step1_ops * COST["tile.step1_cycles_per_op"] / device.warp_width
    step1_cycles = np.full(device.issue_slots, step1_work / device.issue_slots)
    step1_bytes = (float(s.get("num_tiles_a", 0)) + float(s.get("num_tiles_b", 0))) * 8.0
    est.kernels.append(_kernel("step1", device, step1_cycles, step1_bytes))

    pairs_per_tile = np.asarray(s.get("pairs_per_tile", np.zeros(0)), dtype=np.float64)
    len_a = np.asarray(s.get("intersect_len_a", np.zeros(0)), dtype=np.float64)
    len_b = np.asarray(s.get("intersect_len_b", np.zeros(0)), dtype=np.float64)
    products_per_tile = np.asarray(s.get("products_per_tile", np.zeros(0)), dtype=np.float64)
    tile_nnz = np.asarray(s.get("tile_nnz_counts", np.zeros(0)), dtype=np.float64)
    num_pairs = float(pairs_per_tile.sum())
    nnz_c = float(s.get("nnz_c", 0))

    # Step 2: one warp per candidate C tile — intersection + mask ORs.
    from repro.core.intersect import binary_search_cost

    if pairs_per_tile.size:
        sym_ops_per_tile = products_per_tile * 0.0
        # Symbolic ORs are one per (pair, A-tile nonzero); approximate the
        # per-tile share from the pair distribution.
        total_sym = float(s.get("symbolic_ops", 0))
        if num_pairs > 0:
            sym_ops_per_tile = pairs_per_tile * (total_sym / num_pairs)
        step2_cycles = (
            COST["tile.step2_overhead_cycles"]
            + binary_search_cost(len_a, len_b) * COST["tile.step2_cycles_per_intersect"]
            + np.ceil(sym_ops_per_tile / device.warp_width)
            * COST["tile.step2_cycles_per_symop"]
        )
    else:
        step2_cycles = np.zeros(0)
    step2_bytes = num_pairs * COST["tile.bytes_per_pair"]
    est.kernels.append(_kernel("step2", device, step2_cycles, step2_bytes))

    # Step 3: one warp per candidate C tile — numeric accumulation.
    if products_per_tile.size:
        use_dense = s.get("tile_use_dense")
        if use_dense is not None and np.asarray(use_dense).size == products_per_tile.size:
            dense = np.asarray(use_dense, dtype=bool)
        else:
            from repro.core.step3 import default_tnnz

            tnnz = float(default_tnnz(int(s.get("tile_size", 16))))
            dense = tile_nnz > tnnz if tile_nnz.size == products_per_tile.size else np.zeros(
                products_per_tile.size, dtype=bool
            )
        cyc_pp = np.where(
            dense, COST["tile.step3_cycles_dense"], COST["tile.step3_cycles_sparse"]
        )
        step3_cycles = (
            COST["tile.step3_overhead_cycles"]
            + dense * COST["tile.step3_dense_init_cycles"]
            + products_per_tile * cyc_pp / device.warp_width
        )
    else:
        step3_cycles = np.zeros(0)
    step3_bytes = (
        float(s.get("num_products", 0)) * COST["tile.bytes_per_product"]
        + nnz_c * COST["tile.bytes_per_cnnz"]
    )
    est.kernels.append(_kernel("step3", device, step3_cycles, step3_bytes))

    # Chunked re-execution (repro.runtime.chunked) launches the three step
    # kernels once per batch; the compute/memory work is unchanged but the
    # extra launches are real overhead the estimate must charge.
    batches = int(s.get("batches", 1))
    if batches > 1:
        est.kernels.append(
            KernelEstimate(
                "relaunch", 0.0, 0.0, 3 * (batches - 1) * device.kernel_launch_us * 1e-6
            )
        )

    est.malloc_s = _malloc_seconds(result, device)
    est.oom = result.alloc.peak_bytes > device.dram_capacity_bytes
    return est


def _estimate_spa(result: SpGEMMResult, device: DeviceModel) -> GPUEstimate:
    s = result.stats
    est = GPUEstimate(method=result.method, device=device, flops=result.flops)
    ub = np.asarray(s.get("row_upper_bounds", np.zeros(0)), dtype=np.float64)
    cycles = _row_tasks(ub, COST["spa.cycles_per_product"], COST["spa.max_warps_per_row"], device)
    nbytes = (
        float(s.get("num_products", 0)) * COST["spa.bytes_per_product"]
        + float(s.get("nnz_c", 0)) * COST["bytes_per_cnnz"]
    )
    est.kernels.append(_kernel("numeric", device, cycles, nbytes))
    est.malloc_s = _malloc_seconds(result, device)
    est.oom = result.alloc.peak_bytes > device.dram_capacity_bytes
    return est


def _estimate_esc(result: SpGEMMResult, device: DeviceModel) -> GPUEstimate:
    s = result.stats
    est = GPUEstimate(method=result.method, device=device, flops=result.flops)
    ub = np.asarray(s.get("row_upper_bounds", np.zeros(0)), dtype=np.float64)
    products = float(s.get("num_products", 0))

    # Analysis kernel: one pass over the rows.
    est.kernels.append(
        _kernel("analysis", device, np.asarray([ub.size * 4.0 / device.warp_width]), ub.size * 8.0)
    )
    # Expansion kernel: write every product.
    exp_cycles = _row_tasks(ub, COST["esc.cycles_per_product"], COST["esc.max_warps_per_row"], device)
    est.kernels.append(_kernel("expansion", device, exp_cycles, products * 12.0))
    # Global sort + compression: the bandwidth hog.
    # Radix/merge sort work: products * log(products) key operations spread
    # perfectly across the device (sorts parallelise well), expressed as a
    # single balanced task so only bandwidth and total work matter.
    sort_work = (
        products
        * COST["esc.sort_cycles_per_key"]
        * max(np.log2(max(products, 2.0)) / 16.0, 1.0)
        / device.warp_width
    )
    sort_cycles = np.full(device.issue_slots, sort_work / device.issue_slots)
    sort_bytes = products * COST["esc.bytes_per_product"]
    est.kernels.append(_kernel("sort_compress", device, sort_cycles, sort_bytes))

    est.malloc_s = _malloc_seconds(result, device)
    est.oom = result.alloc.peak_bytes > device.dram_capacity_bytes
    return est


def _estimate_hash(result: SpGEMMResult, device: DeviceModel) -> GPUEstimate:
    s = result.stats
    est = GPUEstimate(method=result.method, device=device, flops=result.flops)
    ub = np.asarray(s.get("row_upper_bounds", np.zeros(0)), dtype=np.float64)
    probes = np.asarray(
        s.get("expected_probes_per_insert", np.ones_like(ub)), dtype=np.float64
    )
    table = np.asarray(s.get("hash_table_sizes", np.zeros_like(ub)), dtype=np.float64)
    from repro.baselines.hash_spgemm import SHARED_TABLE_ENTRIES

    spill = table > SHARED_TABLE_ENTRIES
    per_insert = COST["hash.cycles_per_insert"] * probes + np.where(
        spill, COST["hash.global_latency_cycles"], 0.0
    )
    spill_products = float(ub[spill].sum())
    # Duplicate inserts land on already-occupied table entries and
    # serialise their atomics; effective traffic grows with the
    # duplication (compression) ratio products / nnz(C).
    products = float(s.get("num_products", 0))
    nnz_c = float(s.get("nnz_c", 0))
    dup_ratio = min(products / max(nnz_c, 1.0), 150.0)
    bytes_per_product = COST["hash.bytes_per_product"] + COST["hash.bytes_per_duplicate"] * dup_ratio
    # Two full passes: symbolic then numeric.
    for phase in ("symbolic", "numeric"):
        cycles = _row_tasks(
            ub, 1.0, COST["hash.max_warps_per_row"], device
        )  # base traversal
        cycles = cycles + ub * per_insert / device.warp_width / np.maximum(
            np.clip(np.ceil(ub / (8.0 * device.warp_width)), 1.0, COST["hash.max_warps_per_row"]), 1.0
        )
        nbytes = products * bytes_per_product
        nbytes += spill_products * COST["hash.global_bytes_per_insert"]
        if phase == "numeric":
            nbytes += nnz_c * COST["bytes_per_cnnz"]
        est.kernels.append(_kernel(phase, device, cycles, nbytes))
    est.malloc_s = _malloc_seconds(result, device)
    est.oom = result.alloc.peak_bytes > device.dram_capacity_bytes
    return est


def _estimate_speck(result: SpGEMMResult, device: DeviceModel) -> GPUEstimate:
    s = result.stats
    est = GPUEstimate(method=result.method, device=device, flops=result.flops)
    ub = np.asarray(s.get("row_upper_bounds", np.zeros(0)), dtype=np.float64)
    from repro.baselines.speck import SHARED_TABLE_ENTRIES

    est.kernels.append(
        _kernel(
            "analysis",
            device,
            np.asarray([ub.size * COST["speck.analysis_cycles_per_row"] / device.warp_width]),
            ub.size * 8.0,
        )
    )
    spill = 2 * ub > SHARED_TABLE_ENTRIES  # table is sized 2x the upper bound
    spill_extra = np.where(spill, COST["speck.global_latency_cycles"], 0.0)
    cycles = _row_tasks(
        ub,
        COST["speck.cycles_per_insert"],
        COST["speck.max_warps_per_row"],
        device,
        extra_cycles=ub * spill_extra / device.warp_width,
    )
    products = float(s.get("num_products", 0))
    nnz_c = float(s.get("nnz_c", 0))
    dup_ratio = min(products / max(nnz_c, 1.0), 150.0)
    nbytes = (
        products
        * (COST["speck.bytes_per_product"] + COST["speck.bytes_per_duplicate"] * dup_ratio)
        + float(ub[spill].sum()) * COST["speck.global_bytes_per_insert"]
        + nnz_c * COST["bytes_per_cnnz"]
    )
    est.kernels.append(_kernel("numeric", device, cycles, nbytes))
    est.malloc_s = _malloc_seconds(result, device)
    est.oom = result.alloc.peak_bytes > device.dram_capacity_bytes
    return est


def _estimate_rmerge(result: SpGEMMResult, device: DeviceModel) -> GPUEstimate:
    s = result.stats
    est = GPUEstimate(method=result.method, device=device, flops=result.flops)
    ub = np.asarray(s.get("row_upper_bounds", np.zeros(0)), dtype=np.float64)
    rounds = float(s.get("merge_rounds", 1))
    cycles = _row_tasks(
        ub * max(rounds, 1.0),
        COST["rmerge.cycles_per_element"],
        COST["rmerge.max_warps_per_row"],
        device,
    )
    nbytes = (
        float(s.get("merge_elements", 0)) * COST["rmerge.bytes_per_element"]
        + float(s.get("nnz_c", 0)) * COST["bytes_per_cnnz"]
    )
    est.kernels.append(_kernel("numeric", device, cycles, nbytes))
    est.malloc_s = _malloc_seconds(result, device)
    est.oom = result.alloc.peak_bytes > device.dram_capacity_bytes
    return est


def _estimate_tsparse(result: SpGEMMResult, device: DeviceModel) -> GPUEstimate:
    s = result.stats
    est = GPUEstimate(method=result.method, device=device, flops=result.flops)
    num_pairs = float(s.get("num_pairs", 0))
    T = float(s.get("tile_size", 16))
    macs = float(s.get("dense_macs", 0))
    # Tensor-core kernel: dense MACs at the achieved fraction of peak.
    tc_rate = device.tensor_tflops_fp16 * 1e12 * COST["tsparse.tc_efficiency"]
    compute_s = 2.0 * macs / max(tc_rate, 1.0)
    compute_s += (
        num_pairs * COST["tsparse.pair_overhead_cycles"] / device.issue_slots / device.clock_hz
    )
    memory_s = device.seconds_for_bytes(
        num_pairs * COST["tsparse.bytes_per_pair"] * (T / 16.0) ** 2
        + float(s.get("nnz_c", 0)) * COST["bytes_per_cnnz"]
    )
    est.kernels.append(
        KernelEstimate("dense_tile_gemm", compute_s, memory_s, device.kernel_launch_us * 1e-6)
    )
    # tSparse's allocation behaviour (paper Figure 14): the dense result
    # buffer is resized repeatedly as candidate tiles appear, and the
    # buffers live in unified memory — charge one resize per chunk of
    # candidate tiles plus a migration-inflated byte cost.
    num_c_tiles = float(s.get("num_c_tiles", 0))
    total_alloc = sum(e.nbytes for e in result.alloc.events if e.kind == "alloc")
    est.malloc_s = device.malloc_seconds(
        total_alloc * COST["tsparse.malloc_multiplier"],
        num_allocs=int(num_c_tiles // 512) + 6,
    )
    est.oom = result.alloc.peak_bytes > device.dram_capacity_bytes
    return est


_ESTIMATORS = {
    "tilespgemm": _estimate_tilespgemm,
    "cusparse_spa": _estimate_spa,
    "bhsparse_esc": _estimate_esc,
    "nsparse_hash": _estimate_hash,
    "speck": _estimate_speck,
    "tsparse": _estimate_tsparse,
    "rmerge": _estimate_rmerge,
    "gustavson": _estimate_spa,  # the reference shares the SPA profile
    "heap_merge": _estimate_spa,
}


def estimate_family(method: str) -> str:
    """The ``_ESTIMATORS`` key pricing ``method``.

    The sharded parallel variants share the ``tilespgemm`` profile, and
    the reference methods share the SPA profile.
    """
    if method in _ESTIMATORS:
        return method
    if method.startswith("tilespgemm"):
        return "tilespgemm"
    raise KeyError(
        f"no cost model for method {method!r}; known: {sorted(_ESTIMATORS)}"
    )


def estimate_run(result: SpGEMMResult, device: DeviceModel) -> GPUEstimate:
    """Estimate one run's execution on ``device``.

    Parameters
    ----------
    result:
        Any :class:`~repro.baselines.base.SpGEMMResult` (TileSpGEMM runs
        go through the registry adapter so they share this type).
    device:
        Target device model.
    """
    # See estimate_family: tilespgemm_par* execute the same kernels as
    # the serial engine and their merged stats equal one serial run's
    # totals, so they share its cost profile.
    return _ESTIMATORS[estimate_family(result.method)](result, device)
