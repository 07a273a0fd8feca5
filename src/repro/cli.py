"""Command-line interface mirroring the paper artifact's ``./test`` binary.

The original artifact is invoked as::

    ./test -d 0 -aat 0 <path/to/matrix.mtx>

and prints the eighteen output lines listed in its Appendix A.8.  This CLI
reproduces that interface and output contract on the Python implementation
(``-d`` selects a *modelled* device instead of a CUDA ordinal)::

    python -m repro -d 0 -aat 0 path/to/matrix.mtx

Beyond the artifact, the CLI exposes the resilient runtime::

    python -m repro --memory-budget 64K --resilient path/to/matrix.mtx

the sharded parallel engine (see docs/PARALLEL.md; output stays
byte-identical to the serial run)::

    python -m repro --workers 4 --executor thread path/to/matrix.mtx

the estimation-driven adaptive planner (worker count, cost-weighted
shard bounds, accumulator threshold — all derived per run; see
docs/PARALLEL.md)::

    python -m repro --plan auto path/to/matrix.mtx

a pluggable kernel backend (see docs/BACKENDS.md; conformant backends
are byte-identical, so this changes speed, never output)::

    python -m repro --backend pyloops path/to/matrix.mtx

and the observability layer (see docs/OBSERVABILITY.md)::

    python -m repro --trace t.json --metrics m.prom --profile path/to/matrix.mtx

A ``bench`` subcommand family (see docs/BENCHMARKING.md) runs the
machine-readable benchmark tier::

    python -m repro bench run --suite ext --out BENCH.json
    python -m repro bench gate --candidate BENCH.json

and a ``serve`` subcommand family (see docs/SERVING.md) drives the
resilient async serving tier under generated load::

    python -m repro serve run --requests 32 --deadline 2.0
    python -m repro serve load --rate 50 --metrics serve.prom

and an ``obs`` subcommand family watches a running service live or
reports per-tenant SLO attainment from a metrics snapshot::

    python -m repro obs top --url http://127.0.0.1:9100
    python -m repro obs slo --metrics serve.prom --target 0.5

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
5     device memory budget exceeded
6     transient kernel fault
7     communication failure
8     resilient runtime exhausted every fallback
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
from contextlib import nullcontext
from typing import List, Optional

from repro.baselines import get_algorithm
from repro.baselines.base import flops_of_product
from repro.core import TileMatrix, tile_spgemm
from repro.errors import (
    EXIT_USAGE,
    CommFailure,
    ConfigurationError,
    DeviceOOMError,
    InvalidInputError,
    ResilienceExhausted,
    TransientKernelError,
    exit_code_for,
)
from repro.formats.mtx import read_mtx
from repro.gpu import RTX3060, RTX3090, estimate_run
from repro.obs import MetricsRegistry, Tracer, emit_gpu_timeline, obs_context

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
        help="logical device-memory budget (suffixes K/M/G); a serial run "
        "that exceeds it fails with exit code 5, while sharded runs "
        "(--workers N>1, --plan auto) and --resilient halve the "
        "over-budget tile-row range until it fits, failing with exit "
        "code 8 when a single tile row does not",
    )
    parser.add_argument(
        "--resilient",
        action="store_true",
        help="run under the resilient runtime: chunked re-execution on OOM "
        "and the algorithm fallback ladder (see docs/RESILIENCE.md)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="run the multiply on the sharded parallel engine with N pool "
        "workers (0 = one per CPU); defaults to $REPRO_WORKERS, else "
        "serial (see docs/PARALLEL.md)",
    )
    parser.add_argument(
        "--executor",
        choices=("thread", "process"),
        default=None,
        help="pool kind for --workers; defaults to $REPRO_EXECUTOR, else "
        "'thread'",
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
        "numpy, pyloops, fragment, and numba/numba-par when installed); "
        "defaults to $REPRO_BACKEND, else 'numpy' (see docs/BACKENDS.md)",
    )
    parser.add_argument(
        "--exact",
        action="store_true",
        help="require an exact-tier (byte-reproducible) kernel backend: "
        "a fast-math backend named by --backend fails with a usage "
        "error, one from $REPRO_BACKEND with a config error (exit 10) — "
        "never a silent downgrade of the conformance guarantee",
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
        "stdout (phase seconds and counts, resilience tallies, metrics)",
    )
    parser.add_argument("matrix", help="path to a MatrixMarket (*.mtx) file")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run the artifact workflow; returns the process exit status."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "bench":
        # The benchmark tier (docs/BENCHMARKING.md): run/compare/gate/report
        # over machine-readable result documents.
        from repro.bench.cli import bench_main

        return bench_main(argv[1:])
    if argv and argv[0] == "serve":
        # The async serving tier (docs/SERVING.md): closed-loop burst and
        # open-loop load drivers over SpGEMMService.
        from repro.serve.cli import serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "obs":
        # Live/offline telemetry views (docs/OBSERVABILITY.md): `obs top`
        # watches a --listen endpoint, `obs slo` reports from a snapshot.
        from repro.obs.cli import obs_main

        return obs_main(argv[1:])
    args = _build_parser().parse_args(argv)
    if not 0 <= args.d < len(_DEVICES):
        print(f"error: unknown device ordinal {args.d}", file=sys.stderr)
        return EXIT_USAGE
    device = _DEVICES[args.d]

    from repro.backend import ConformanceTier, resolve_backend, use_backend

    required_tier = ConformanceTier.EXACT if args.exact else None
    if args.backend is not None or args.exact:
        # Validate the explicit name, and under --exact also the backend
        # the run would actually resolve (the process default / env).
        try:
            resolve_backend(args.backend, tier=required_tier)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return exit_code_for(exc)
        except InvalidInputError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE

    tracer = Tracer() if (args.trace is not None or args.profile) else None
    metrics = MetricsRegistry() if args.metrics is not None else None
    try:
        # The scoped default makes every engine the run touches — serial,
        # parallel, resilient fallbacks, the cross-check adapter — resolve
        # the same kernel backend.
        with use_backend(args.backend) if args.backend is not None else nullcontext():
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
    from repro.backend import backend_tier, default_backend_name

    backend_name = default_backend_name()
    try:
        tier_name = backend_tier(backend_name).value
    except InvalidInputError:
        # An unknown env-provided name fails later, at resolve time,
        # with the proper config-error classification — not here.
        tier_name = "unknown"
    if args.backend is not None:
        # Extra line only when explicitly requested, preserving the
        # artifact's default eighteen-line contract.
        say(f"kernel backend: {backend_name}")
    doc["matrix"] = args.matrix
    doc["rows"], doc["cols"], doc["nnz"] = a.shape[0], a.shape[1], a.nnz
    doc["load_seconds"] = load_s
    doc["tile_size"] = 16
    doc["backend"] = backend_name
    doc["backend_tier"] = tier_name

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

    if args.resilient:
        from repro.runtime import run_resilient

        rr = run_resilient(at, bt, device=device, budget_bytes=args.memory_budget)
        report = rr.report
        say(
            f"resilient run: method={report.method} attempts={report.num_attempts} "
            f"batches={report.batches} degraded={'yes' if report.degraded else 'no'}"
        )
        if report.faults:
            say(f"faults recovered: {report.num_faults}")
        doc["resilience"] = {
            "method": report.method,
            "attempts": report.num_attempts,
            "failed_attempts": sum(1 for r in report.attempts if r.outcome != "ok"),
            "retries": sum(1 for r in report.attempts if r.backoff_s > 0),
            "fallbacks": max(0, len({r.method for r in report.attempts}) - 1),
            "batches": report.batches,
            "degraded": report.degraded,
            "faults": report.num_faults,
            "backoff_seconds": report.backoff_s,
        }
        result = rr.result
        result_c_csr = rr.c_csr()
        timer, alloc = result.timer, result.alloc
        est = rr.estimate
        nnz_c = result_c_csr.nnz
        num_tiles_c = rr.c.num_tiles if isinstance(rr.c, TileMatrix) else 0
        measured_gflops = result.gflops()
    else:
        from repro.runtime.parallel import parallel_tile_spgemm, resolve_workers

        if args.plan == "auto":
            from repro.runtime.planner import plan_execution

            from repro.backend import ConformanceTier

            plan = plan_execution(
                at,
                bt,
                workers=args.workers,
                executor=args.executor,
                backend=args.backend,
                tier=ConformanceTier.EXACT if args.exact else None,
            )
            result = parallel_tile_spgemm(
                at, bt, plan=plan, budget_bytes=args.memory_budget
            )
            say(
                f"plan: mode={plan.mode} workers={plan.workers} "
                f"shards={plan.shards} tnnz={plan.tnnz} "
                f"est_products={plan.estimate.get('products')} "
                f"band={plan.estimate.get('band')}"
            )
            doc["plan"] = plan.to_dict()
            doc["parallel"] = {
                "workers": result.stats.get("workers"),
                "shards": result.stats.get("shards"),
                "executor": result.stats.get("executor"),
            }
        elif resolve_workers(args.workers) > 1:
            result = parallel_tile_spgemm(
                at,
                bt,
                workers=resolve_workers(args.workers),
                executor=args.executor,
                budget_bytes=args.memory_budget,
            )
            say(
                f"parallel run: workers={result.stats.get('workers')} "
                f"shards={result.stats.get('shards')} "
                f"executor={result.stats.get('executor')}"
            )
            doc["parallel"] = {
                "workers": result.stats.get("workers"),
                "shards": result.stats.get("shards"),
                "executor": result.stats.get("executor"),
            }
        else:
            result = tile_spgemm(at, bt, budget_bytes=args.memory_budget)
        result_c_csr = result.c.to_csr()
        timer, alloc = result.timer, result.alloc
        adapter = get_algorithm("tilespgemm")(a, b, a_tiled=at, b_tiled=bt)
        est = estimate_run(adapter, device)
        nnz_c = result.c.nnz
        num_tiles_c = result.c.num_tiles
        measured_gflops = result.gflops()

    if tracer is not None and est is not None:
        # Virtual-GPU tracks: lay the cost model's kernel schedule onto
        # simulated SM slots in the same trace file.
        emit_gpu_timeline(tracer, est, device=device)

    # Lines 8-14: step and allocation times.
    for phase in ("step1", "step2", "step3"):
        say(f"{phase} time: {timer.seconds.get(phase, 0.0) * 1e3:.3f} ms")
    say(f"memory allocation time: {timer.seconds.get('malloc', 0.0) * 1e3:.3f} ms")
    say(f"peak logical device memory: {alloc.peak_bytes / 1e6:.6f} MB")
    if est is not None:
        say(f"estimated runtime on {device.name}: {est.seconds * 1e3:.3f} ms")
        say(f"estimated throughput on {device.name}: {est.gflops:.2f} GFlops")
        doc["estimate"] = {
            "device": device.name,
            "seconds": est.seconds,
            "gflops": est.gflops,
        }
    doc["phases"] = {
        name: {"seconds": st.total, "count": st.count}
        for name, st in timer.summary().items()
    }
    doc["peak_bytes"] = alloc.peak_bytes

    # Lines 15-17: result sizes and measured throughput.
    say(f"number of tiles of C: {num_tiles_c}")
    say(f"number of nonzeros of C: {nnz_c}")
    say(
        f"TileSpGEMM runtime: {timer.total * 1e3:.3f} ms "
        f"({measured_gflops:.3f} GFlops measured in Python)"
    )
    doc["c"] = {"num_tiles": num_tiles_c, "nnz": nnz_c}
    doc["runtime_seconds"] = timer.total
    doc["measured_gflops"] = measured_gflops

    # Line 18: cross-check against another library's output.  When the
    # resilient runtime already degraded to the hash baseline, check
    # against the reference row-row loop instead of the method itself.
    ref_method = "nsparse_hash"
    if args.resilient and rr.report.method == "nsparse_hash":
        ref_method = "gustavson"
    reference = get_algorithm(ref_method)(a, b).c
    ok = result_c_csr.allclose(reference)
    say(f"check passed: {'yes' if ok else 'NO'}")
    doc["check_passed"] = bool(ok)

    if args.json:
        if metrics is not None:
            doc["metrics"] = metrics.snapshot()
        print(json.dumps(doc, indent=2))
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
