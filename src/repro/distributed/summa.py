"""Sparse SUMMA over a 2-D grid, with full communication accounting.

The classic 2-D distributed SpGEMM (Buluc & Gilbert): ``A``, ``B`` and
``C`` are block-distributed over a ``p_r x p_c`` grid; the multiplication
runs in stages — at stage ``k``, the owners of ``A``'s block-column ``k``
broadcast their blocks along grid rows, the owners of ``B``'s block-row
``k`` broadcast along grid columns, and every process multiplies the two
received panels into its local ``C`` block.

This implementation *actually computes* the product (each local multiply
is a real TileSpGEMM call on the block operands, partial results summed),
while tracking what a physical deployment would pay:

* per-process sent/received bytes per stage (CSR wire size of the blocks);
* an alpha-beta communication time model;
* per-process local-compute estimates through the GPU cost model, so the
  distributed critical path = max over processes of (compute + comm).

The tests verify the distributed product equals the single-device one for
every grid shape, and the bench reports the scaling/communication trade
the paper alludes to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.apps.sparse_ops import add
from repro.baselines.base import get_algorithm
from repro.distributed.grid import ProcessGrid
from repro.errors import CommFailure, InvalidInputError
from repro.formats.csr import CSRMatrix
from repro.gpu.costmodel import estimate_run
from repro.gpu.device import RTX3090, DeviceModel
from repro.obs.context import current_obs

__all__ = ["DistributedSpGEMMResult", "summa_spgemm", "csr_wire_bytes"]

#: Default interconnect: NVLink-class alpha (latency) and beta (1/bandwidth).
DEFAULT_ALPHA_S: float = 5e-6
DEFAULT_BETA_S_PER_BYTE: float = 1.0 / 50e9


def csr_wire_bytes(m: CSRMatrix) -> int:
    """Bytes to ship a CSR block: 4-byte indptr/indices + 8-byte values."""
    return int(4 * (m.indptr.size + m.nnz) + 8 * m.nnz)


@dataclass
class DistributedSpGEMMResult:
    """Outcome of one distributed SUMMA run."""

    c: CSRMatrix
    grid: ProcessGrid
    stages: int
    #: bytes received per process (grid-shaped array)
    recv_bytes: np.ndarray
    #: bytes sent per process
    sent_bytes: np.ndarray
    #: estimated local compute seconds per process
    compute_s: np.ndarray
    #: estimated communication seconds per process (alpha-beta model)
    comm_s: np.ndarray
    flops: int = 0
    per_stage_volume: List[int] = field(default_factory=list)
    #: broadcast transfers repeated after an injected communication fault
    retransmits: int = 0

    @property
    def total_comm_volume(self) -> int:
        """Total bytes moved across the interconnect."""
        return int(self.recv_bytes.sum())

    @property
    def critical_path_s(self) -> float:
        """Makespan: the slowest process's compute + communication."""
        return float((self.compute_s + self.comm_s).max())

    @property
    def comm_fraction(self) -> float:
        """Share of the critical path spent communicating."""
        cp = self.critical_path_s
        if cp <= 0:
            return 0.0
        worst = int(np.argmax(self.compute_s + self.comm_s))
        return float(self.comm_s.flat[worst] / cp)

    def compute_imbalance(self) -> float:
        """Max over mean of per-process compute (1.0 = perfectly balanced)."""
        mean = self.compute_s.mean()
        return float(self.compute_s.max() / mean) if mean > 0 else 1.0


def summa_spgemm(
    a: CSRMatrix,
    b: CSRMatrix,
    grid: ProcessGrid,
    device: DeviceModel = RTX3090,
    method: str = "tilespgemm",
    alpha_s: float = DEFAULT_ALPHA_S,
    beta_s_per_byte: float = DEFAULT_BETA_S_PER_BYTE,
    fault_plan=None,
    max_retransmits: int = 0,
) -> DistributedSpGEMMResult:
    """Multiply ``a @ b`` with sparse SUMMA on the given process grid.

    Parameters
    ----------
    a, b:
        Global operands in CSR form.
    grid:
        The 2-D process grid; SUMMA runs ``max(p_rows, p_cols)`` stages
        over a tile-aligned blocking of the contraction dimension.
    device:
        Device model for the per-process local-compute estimates.
    method:
        Registered SpGEMM method used for the local block multiplies.
    alpha_s, beta_s_per_byte:
        Interconnect latency/inverse-bandwidth of the time model.
    fault_plan:
        Optional :class:`~repro.runtime.faults.FaultPlan` observing each
        point-to-point transfer of the panel broadcasts; ``None`` means
        fault-free communication.
    max_retransmits:
        Lost transfers are resent up to this many times per transfer, each
        resend re-charged to the alpha-beta model; a transfer still failing
        after that raises :class:`~repro.errors.CommFailure`.
    """
    if a.shape[1] != b.shape[0]:
        raise InvalidInputError("dimension mismatch")
    spgemm = get_algorithm(method)
    obs = current_obs()
    retransmits = 0

    def transfer(tag: str, pi: int, pj: int, nbytes: int) -> float:
        """One point-to-point leg of a broadcast; returns extra comm
        seconds paid for retransmissions (first send is charged by the
        caller)."""
        nonlocal retransmits
        if fault_plan is None:
            return 0.0
        extra = 0.0
        for attempt in range(max_retransmits + 1):
            try:
                fault_plan.on_broadcast(f"stage{tag}->({pi},{pj})")
                return extra
            except CommFailure:
                if attempt == max_retransmits:
                    raise
                retransmits += 1
                extra += alpha_s + nbytes * beta_s_per_byte
                if obs.enabled:
                    obs.tracer.instant(
                        "retransmit",
                        cat="summa.comm",
                        tag=tag,
                        dest=[pi, pj],
                        nbytes=nbytes,
                    )
        return extra

    row_blocks = grid.row_blocks(a.shape[0])
    col_blocks = grid.col_blocks(b.shape[1])
    # The contraction dimension is staged like SUMMA's panel loop; use the
    # finer of the two grid dimensions for the panel count.
    stages = max(grid.p_rows, grid.p_cols)
    k_blocks = ProcessGrid(stages, 1, grid.tile_size).row_blocks(a.shape[1])

    recv = np.zeros((grid.p_rows, grid.p_cols))
    sent = np.zeros((grid.p_rows, grid.p_cols))
    compute = np.zeros((grid.p_rows, grid.p_cols))
    comm = np.zeros((grid.p_rows, grid.p_cols))
    per_stage_volume: List[int] = []
    flops = 0

    local_c: Dict[Tuple[int, int], CSRMatrix] = {}

    for k, (k0, k1) in enumerate(k_blocks):
        stage_volume = 0
        # Panels of this stage, sliced per grid row / grid column.
        a_panels = [a.submatrix(rb, (k0, k1)) for rb in row_blocks]
        b_panels = [b.submatrix((k0, k1), cb) for cb in col_blocks]
        # Owners of this stage's panels: the grid column holding A's
        # global columns [k0, k1) and the grid row holding B's rows.
        a_col_blocks = grid.col_blocks(a.shape[1])
        owner_pj = next(
            (p for p, (lo, hi) in enumerate(a_col_blocks) if lo <= k0 < max(hi, lo + 1)),
            stages and (grid.p_cols - 1),
        )
        b_row_blocks = grid.row_blocks(b.shape[0])
        owner_pi = next(
            (p for p, (lo, hi) in enumerate(b_row_blocks) if lo <= k0 < max(hi, lo + 1)),
            grid.p_rows - 1,
        )
        # The stage runs as SUMMA does: the panel broadcasts complete,
        # then every process multiplies the received panels.  The two
        # sub-phases carry their own spans so a trace shows the paper's
        # broadcast / multiply / retransmit split per stage.
        with obs.tracer.span(f"stage {k}", cat="summa.stage", stage=k):
            with obs.tracer.span("broadcast", cat="summa.comm", stage=k):
                for pi in range(grid.p_rows):
                    a_bytes = csr_wire_bytes(a_panels[pi])
                    for pj in range(grid.p_cols):
                        b_bytes = csr_wire_bytes(b_panels[pj])
                        # Broadcast accounting: the A panel crosses the
                        # grid row and the B panel the grid column; the
                        # panel owner already holds its block and neither
                        # sends to nor receives from itself.
                        if grid.p_cols > 1 and pj != owner_pj:
                            recv[pi, pj] += a_bytes
                            sent[pi, owner_pj] += a_bytes
                            comm[pi, pj] += alpha_s + a_bytes * beta_s_per_byte
                            comm[pi, pj] += transfer(f"{k}:A", pi, pj, a_bytes)
                            stage_volume += a_bytes
                        if grid.p_rows > 1 and pi != owner_pi:
                            recv[pi, pj] += b_bytes
                            sent[owner_pi, pj] += b_bytes
                            comm[pi, pj] += alpha_s + b_bytes * beta_s_per_byte
                            comm[pi, pj] += transfer(f"{k}:B", pi, pj, b_bytes)
                            stage_volume += b_bytes
            with obs.tracer.span("multiply", cat="summa.compute", stage=k):
                for pi in range(grid.p_rows):
                    a_blk = a_panels[pi]
                    for pj in range(grid.p_cols):
                        b_blk = b_panels[pj]
                        if a_blk.nnz == 0 or b_blk.nnz == 0:
                            continue
                        res = spgemm(a_blk, b_blk)
                        flops += res.flops
                        compute[pi, pj] += estimate_run(res, device).seconds
                        key = (pi, pj)
                        if key in local_c:
                            local_c[key] = add(local_c[key], res.c)
                        else:
                            local_c[key] = res.c
        per_stage_volume.append(stage_volume)
        if obs.enabled:
            obs.metrics.inc("summa_stages_total")
            obs.metrics.inc("summa_comm_bytes_total", stage_volume)

    # Assemble the global C from the owner blocks.
    from repro.formats.coo import COOMatrix

    rows_parts, cols_parts, vals_parts = [], [], []
    for (pi, pj), blk in local_c.items():
        r0 = row_blocks[pi][0]
        c0 = col_blocks[pj][0]
        coo = blk.to_coo()
        rows_parts.append(coo.row + r0)
        cols_parts.append(coo.col + c0)
        vals_parts.append(coo.val)
    if rows_parts:
        c = COOMatrix(
            (a.shape[0], b.shape[1]),
            np.concatenate(rows_parts),
            np.concatenate(cols_parts),
            np.concatenate(vals_parts),
        ).to_csr()
    else:
        c = CSRMatrix.empty((a.shape[0], b.shape[1]))

    return DistributedSpGEMMResult(
        c=c,
        grid=grid,
        stages=stages,
        recv_bytes=recv,
        sent_bytes=sent,
        compute_s=compute,
        comm_s=comm,
        flops=flops,
        per_stage_volume=per_stage_volume,
        retransmits=retransmits,
    )
