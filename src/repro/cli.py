"""Command-line interface mirroring the paper artifact's ``./test`` binary.

The original artifact is invoked as::

    ./test -d 0 -aat 0 <path/to/matrix.mtx>

and prints the eighteen output lines listed in its Appendix A.8.  This CLI
reproduces that interface and output contract on the Python implementation
(``-d`` selects a *modelled* device instead of a CUDA ordinal)::

    python -m repro -d 0 -aat 0 path/to/matrix.mtx

Every run multiplies on the shard engine (see docs/RESILIENCE.md): under
a memory budget an over-budget tile-row range is halved until it fits,
and the run reports what it took::

    python -m repro --memory-budget 64K path/to/matrix.mtx

The same engine runs sharded on a thread pool (see docs/PARALLEL.md;
output stays byte-identical to the serial run)::

    python -m repro --workers 4 path/to/matrix.mtx

the estimation-driven adaptive planner (worker count, cost-weighted
shard bounds, accumulator threshold — all derived per run; see
docs/PARALLEL.md)::

    python -m repro --plan auto path/to/matrix.mtx

a pluggable kernel backend (see docs/BACKENDS.md; conformant backends
are byte-identical, so this changes speed, never output)::

    python -m repro --backend pyloops path/to/matrix.mtx

and the observability layer (see docs/OBSERVABILITY.md)::

    python -m repro --trace t.json --metrics m.prom --profile path/to/matrix.mtx

A ``bench`` subcommand family (see docs/BENCHMARKING.md) runs a suite
into a machine-readable result document and gates the planner::

    python -m repro bench run --suite planner --out planner-bench.json
    python -m repro bench compare planner-bench.json

and a ``serve`` subcommand family (see docs/SERVING.md) drives the
resilient async serving tier under generated load::

    python -m repro serve run --requests 32 --deadline 2.0
    python -m repro serve load --rate 50 --metrics serve.prom

and ``obs profile`` renders or records the workload hotspot report::

    python -m repro obs profile --suite smoke --out profile.json

``--trace`` writes a Chrome trace-event file loadable in Perfetto,
``--metrics`` a Prometheus text dump of the kernel counters, ``--profile``
prints a top-spans wall-clock report, and ``--json`` replaces the
eighteen-line artifact output with one machine-readable JSON document.
Trace and metrics files are written even when the run fails, so a faulted
run leaves its partial profile behind for inspection.

Exit-code contract (one distinct code per error class; see
:mod:`repro.errors`):

====  ============================================
0     run completed, cross-check passed
1     run completed, cross-check FAILED
2     bad command line (unknown device, bad flag)
3     malformed matrix file or dimension mismatch
4     matrix file not found
5     device memory budget exceeded (the CLI recovers from an OOM by
      re-splitting, so an unrecoverable one exits 8)
6     transient kernel fault
7     communication failure
8     recovery exhausted (a tile row over budget, retries spent)
10    malformed environment/configuration value
11    request shed by serving-tier admission control
12    request deadline exceeded
====  ============================================

Every failure prints a single ``error: ...`` line to stderr — never a raw
traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.baselines import get_algorithm
from repro.baselines.base import flops_of_product
from repro.core import TileMatrix
from repro.core.tilespgemm import serial_ledger
from repro.errors import (
    EXIT_USAGE,
    CommFailure,
    DeviceOOMError,
    InvalidInputError,
    ResilienceExhausted,
    TransientKernelError,
    exit_code_for,
)
from repro.formats.mtx import read_mtx
from repro.gpu import RTX3060, RTX3090, estimate_run
from repro.obs import (
    NULL_METRICS,
    MetricsRegistry,
    Tracer,
    emit_gpu_timeline,
    obs_context,
)

__all__ = ["main"]

_DEVICES = [RTX3060, RTX3090]

_SIZE_SUFFIXES = {"k": 10**3, "m": 10**6, "g": 10**9}


def _parse_bytes(text: str) -> int:
    """Parse a byte count with an optional K/M/G suffix (decimal units)."""
    raw = text.strip().lower().removesuffix("b")
    factor = 1
    if raw and raw[-1] in _SIZE_SUFFIXES:
        factor = _SIZE_SUFFIXES[raw[-1]]
        raw = raw[:-1]
    try:
        value = int(float(raw) * factor)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid byte count: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"byte count must be positive: {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="TileSpGEMM on a MatrixMarket file (paper artifact interface)",
    )
    parser.add_argument(
        "-d",
        type=int,
        default=0,
        metavar="DEVICE",
        help="modelled GPU: 0 = RTX 3060, 1 = RTX 3090 (default 0)",
    )
    parser.add_argument(
        "-aat",
        type=int,
        default=0,
        choices=(0, 1),
        metavar="AAT",
        help="0 computes C = A^2 (default), 1 computes C = A A^T",
    )
    parser.add_argument(
        "--memory-budget",
        type=_parse_bytes,
        default=None,
        metavar="BYTES",
        help="logical device-memory budget (suffixes K/M/G); a run that "
        "exceeds it halves the over-budget tile-row range until it fits, "
        "failing with exit code 8 when a single tile row does not (see "
        "docs/RESILIENCE.md)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="run the multiply on the sharded parallel engine with N pool "
        "workers (0 = one per CPU); defaults to $REPRO_WORKERS, else 1, "
        "which runs inline (see docs/PARALLEL.md)",
    )
    parser.add_argument(
        "--plan",
        choices=("auto", "static"),
        default="static",
        help="'auto' derives an estimation-driven execution plan per run "
        "(worker count, cost-weighted shard bounds, tnnz threshold, "
        "backend — see docs/PARALLEL.md) and runs the engine under it; "
        "'static' (default) keeps the explicit/env configuration",
    )
    parser.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help="kernel backend for the tile pipeline (registered names: "
        "numpy, pyloops, and numba/numba-par when installed; every one is "
        "byte-identical to numpy); defaults to $REPRO_BACKEND, else "
        "'numpy' (see docs/BACKENDS.md)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="OUT.json",
        help="write a Chrome trace-event profile of the run (open in "
        "Perfetto or chrome://tracing); written even if the run fails",
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="OUT.prom",
        help="write kernel counters in Prometheus text format; written "
        "even if the run fails",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print a top-spans wall-clock report after the run (enables "
        "internal tracing; goes to stderr under --json)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="replace the artifact output lines with one JSON document on "
        "stdout (phase seconds and counts, recovery tallies, metrics)",
    )
    parser.add_argument("matrix", help="path to a MatrixMarket (*.mtx) file")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run the artifact workflow; returns the process exit status."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "bench":
        # The benchmark tier (docs/BENCHMARKING.md): run a suite into a
        # result document; compare gates the planner.
        from repro.bench.cli import bench_main

        return bench_main(argv[1:])
    if argv and argv[0] == "serve":
        # The async serving tier (docs/SERVING.md): closed-loop burst and
        # open-loop load drivers over SpGEMMService.
        from repro.serve.cli import serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "obs":
        # The workload profile report (docs/OBSERVABILITY.md).
        from repro.obs.cli import obs_main

        return obs_main(argv[1:])
    args = _build_parser().parse_args(argv)
    if not 0 <= args.d < len(_DEVICES):
        print(f"error: unknown device ordinal {args.d}", file=sys.stderr)
        return EXIT_USAGE
    device = _DEVICES[args.d]

    from repro.backend import resolve_backend

    if args.backend is not None:
        try:
            resolve_backend(args.backend)
        except InvalidInputError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE

    tracer = Tracer() if (args.trace is not None or args.profile) else None
    metrics = MetricsRegistry() if args.metrics is not None else None
    try:
        if tracer is None and metrics is None:
            return _run(args, device, None, None)
        with obs_context(tracer=tracer, metrics=metrics):
            return _run(args, device, tracer, metrics)
    except FileNotFoundError:
        print(f"error: matrix file not found: {args.matrix}", file=sys.stderr)
        return exit_code_for(FileNotFoundError())
    except (
        InvalidInputError,
        DeviceOOMError,
        CommFailure,
        TransientKernelError,
        ResilienceExhausted,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    finally:
        # Dump the profile artifacts even when the run raised above, so a
        # faulted run still leaves its trace behind for inspection.
        if tracer is not None and args.trace is not None:
            tracer.write(args.trace)
        if metrics is not None and args.metrics is not None:
            metrics.write(args.metrics)
        if args.profile and tracer is not None:
            from repro.analysis.profiling import top_spans_report

            report = top_spans_report(tracer.to_chrome_trace())
            print(report, file=sys.stderr if args.json else sys.stdout)


def _run(args, device, tracer, metrics) -> int:
    doc: dict = {}

    def say(line: str) -> None:
        if not args.json:
            print(line)

    t0 = time.perf_counter()
    coo = read_mtx(args.matrix)
    load_s = time.perf_counter() - t0
    a = coo.to_csr()

    # Lines 1-2: input matrix information.
    say(f"matrix: {args.matrix}")
    say(f"rows = {a.shape[0]}, cols = {a.shape[1]}, nnz = {a.nnz}")
    # Line 3: loading time.
    say(f"file loading time: {load_s:.6f} s")
    # Line 4: tile size.
    say("tile size: 16 x 16")
    from repro.backend import default_backend_name

    backend_name = args.backend or default_backend_name()
    if args.backend is not None:
        # Extra line only when explicitly requested, preserving the
        # artifact's default eighteen-line contract.
        say(f"kernel backend: {backend_name}")
    doc["matrix"] = args.matrix
    doc["rows"], doc["cols"], doc["nnz"] = a.shape[0], a.shape[1], a.nnz
    doc["load_seconds"] = load_s
    doc["tile_size"] = 16
    doc["backend"] = backend_name

    b = a.transpose() if args.aat else a
    if a.shape[1] != b.shape[0]:
        raise InvalidInputError(
            f"dimension mismatch: cannot square a {a.shape[0]}x{a.shape[1]} "
            "matrix (use -aat 1 for rectangular inputs)"
        )
    # Line 5: flop count.
    doc["flops"] = flops_of_product(a, b)
    say(f"#flops: {doc['flops']}")

    # Line 6: CSR -> tiled conversion time.
    t0 = time.perf_counter()
    at = TileMatrix.from_csr(a)
    bt = at if not args.aat else TileMatrix.from_csr(b)
    conv_ms = (time.perf_counter() - t0) * 1e3
    say(f"CSR->tiled conversion time: {conv_ms:.3f} ms")
    # Line 7: tiled structure space.
    say(f"tiled data structure space: {at.memory_bytes() / 1e6:.6f} MB")
    doc["conversion_ms"] = conv_ms
    doc["tiled_bytes"] = at.memory_bytes()

    from repro.runtime.parallel import parallel_tile_spgemm

    plan = None
    if args.plan == "auto":
        from repro.runtime.planner import plan_execution

        plan = plan_execution(at, bt, workers=args.workers, backend=args.backend)
    # One engine for every run: whatever the worker count, an over-budget
    # tile-row range is halved and a transient fault retried after backoff.
    result = parallel_tile_spgemm(
        at,
        bt,
        workers=args.workers,
        plan=plan,
        budget_bytes=args.memory_budget,
        backend=args.backend,
    )
    stats, timer, alloc = result.stats, result.timer, result.alloc
    if plan is not None:
        say(
            f"plan: mode={plan.mode} workers={plan.workers} "
            f"shards={plan.shards} tnnz={plan.tnnz} "
            f"est_products={plan.estimate.get('products')} "
            f"band={plan.estimate.get('band')}"
        )
        doc["plan"] = plan.to_dict()
    if stats["workers"] > 1:
        say(f"parallel run: workers={stats['workers']} shards={stats['shards']}")
    doc["parallel"] = {key: stats[key] for key in ("workers", "shards")}
    if stats["resplits"] or stats["retries"]:
        say(f"recovered: resplits={stats['resplits']} retries={stats['retries']}")
    doc["recovery"] = {
        "resplits": stats["resplits"],
        "retries": stats["retries"],
        "backoff_seconds": timer.seconds.get("backoff", 0.0),
    }
    priced = result.as_spgemm_result()
    if stats["shards"] > 1:
        # Price the one serial run the stitched result equals.  Shards
        # are CPU concurrency only; a GPU runs the product once, so no
        # `relaunch` kernel per extra batch and one ledger, not one per
        # shard.
        del priced.stats["batches"]
        priced.alloc = serial_ledger(stats, at.num_tile_rows)
    est = estimate_run(priced, device)

    if tracer is not None:
        # Virtual-GPU tracks: lay the cost model's kernel schedule onto
        # simulated SM slots in the same trace file.
        emit_gpu_timeline(tracer, est, device=device)

    # Lines 8-14: step and allocation times.
    for phase in ("step1", "step2", "step3"):
        say(f"{phase} time: {timer.seconds.get(phase, 0.0) * 1e3:.3f} ms")
    say(f"memory allocation time: {timer.seconds.get('malloc', 0.0) * 1e3:.3f} ms")
    say(f"peak logical device memory: {alloc.peak_bytes / 1e6:.6f} MB")
    say(f"estimated runtime on {device.name}: {est.seconds * 1e3:.3f} ms")
    say(f"estimated throughput on {device.name}: {est.gflops:.2f} GFlops")
    doc["estimate"] = {"device": device.name, "seconds": est.seconds, "gflops": est.gflops}
    doc["phases"] = {
        name: {"seconds": sec, "count": timer.count(name)}
        for name, sec in timer.seconds.items()
    }
    doc["peak_bytes"] = alloc.peak_bytes

    # Lines 15-17: result sizes and measured throughput.
    c = result.c
    measured_gflops = result.gflops()
    say(f"number of tiles of C: {c.num_tiles}")
    say(f"number of nonzeros of C: {c.nnz}")
    say(
        f"TileSpGEMM runtime: {timer.total * 1e3:.3f} ms "
        f"({measured_gflops:.3f} GFlops measured in Python)"
    )
    doc["c"] = {"num_tiles": c.num_tiles, "nnz": c.nnz}
    doc["runtime_seconds"] = timer.total
    doc["measured_gflops"] = measured_gflops

    # Line 18: cross-check against another library's output.  Its span
    # stays in the trace; its ledger stays out of the run's counters.
    with obs_context(metrics=NULL_METRICS):
        reference = get_algorithm("nsparse_hash")(a, b).c
    ok = c.to_csr().allclose(reference)
    say(f"check passed: {'yes' if ok else 'NO'}")
    doc["check_passed"] = bool(ok)

    if args.json:
        if metrics is not None:
            doc["metrics"] = metrics.snapshot()
        print(json.dumps(doc, indent=2))
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
