"""``python -m repro serve`` — run the service against a generated load.

Two subcommands drive the serving tier from the command line:

``serve run``
    Closed-loop burst: submit ``--requests`` multiplies at once (spread
    over ``--tenants`` synthetic clients) and await every response.  The
    chaos shape — queue bound, deadlines and budgets all bite at once.

``serve load``
    Open-loop driver: fixed-rate arrivals (``--rate`` requests/second)
    that do *not* slow down when the service does, submitted in the
    fail-fast shed mode.  The honest overload experiment.

Both print a one-line summary (or ``--json`` a full document), can dump
the Prometheus snapshot (``--metrics``) and the merged Chrome trace
(``--trace``), and exit with the code of the *worst* outcome any request
terminated with, per the repo-wide contract of :mod:`repro.errors`:

====  ==================================================
0     every request served
11    at least one request shed (admission/backpressure)
12    at least one deadline expired (and none worse)
8     at least one request exhausted recovery
====  ==================================================

(Severity order: exhausted > deadline > shed, matching the
``OUTCOMES`` ordering — an exhausted request is a correctness event, a
shed request is the service doing its job.)
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import List, Optional

from repro.errors import (
    EXIT_DEADLINE,
    EXIT_SHED,
    ReproError,
    ResilienceExhausted,
    exit_code_for,
)
from repro.obs import MetricsRegistry, Tracer, obs_context
from repro.serve.loadgen import make_workload, run_closed_loop, run_open_loop
from repro.serve.request import (
    OUTCOME_DEADLINE,
    OUTCOME_EXHAUSTED,
    OUTCOME_SHED,
)
from repro.serve.service import SpGEMMService

__all__ = ["serve_main"]


def _parse_bytes(text: str) -> int:
    from repro.cli import _parse_bytes as parse

    return parse(text)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--requests", type=int, default=32, metavar="N",
        help="requests to submit (default 32)",
    )
    p.add_argument(
        "--tenants", type=int, default=4, metavar="N",
        help="synthetic clients to spread requests over (default 4)",
    )
    p.add_argument(
        "--n", type=int, default=256, metavar="DIM",
        help="operand dimension of the generated workload (default 256)",
    )
    p.add_argument(
        "--nnz-per-row", type=float, default=8.0, metavar="X",
        help="mean operand row length (default 8)",
    )
    p.add_argument(
        "--seed", type=int, default=0, help="workload seed (default 0)"
    )
    p.add_argument(
        "--queue-depth", type=int, default=32, metavar="N",
        help="bounded queue depth (default 32)",
    )
    p.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="compute thread-pool size (default 2)",
    )
    p.add_argument(
        "--max-inflight", type=int, default=None, metavar="N",
        help="concurrently executing requests (default: --workers)",
    )
    p.add_argument(
        "--initial-shards", type=int, default=1, metavar="N",
        help="tile-row shards each request starts from (default 1)",
    )
    p.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-request deadline (default: none)",
    )
    p.add_argument(
        "--request-budget", type=_parse_bytes, default=None, metavar="BYTES",
        help="per-request logical memory budget (suffixes K/M/G); shards "
        "that blow it are re-split and requeued",
    )
    p.add_argument(
        "--admission-budget", type=_parse_bytes, default=None, metavar="BYTES",
        help="admission-control memory budget; requests whose upfront "
        "estimate exceeds it are shed (default: no memory gate)",
    )
    p.add_argument(
        "--backend", default=None, metavar="NAME",
        help="kernel backend for the shards (default: $REPRO_BACKEND, else numpy)",
    )
    p.add_argument(
        "--metrics", default=None, metavar="OUT.prom",
        help="write the Prometheus snapshot after the run",
    )
    p.add_argument(
        "--trace", default=None, metavar="OUT.json",
        help="write a merged Chrome trace: request spans plus the "
        "worker-recorded shard spans, linked by trace id",
    )
    p.add_argument(
        "--json", action="store_true",
        help="print a machine-readable report document instead of one line",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="drive the async SpGEMM serving tier (docs/SERVING.md)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="closed-loop burst: submit everything at once"
    )
    _add_common(run_p)
    run_p.add_argument(
        "--backpressure", choices=("wait", "shed"), default="wait",
        help="submitter overload contract: 'wait' blocks at the queue "
        "bound, 'shed' fails fast (default wait)",
    )

    load_p = sub.add_parser(
        "load", help="open-loop driver: fixed-rate arrivals, shed mode"
    )
    _add_common(load_p)
    load_p.add_argument(
        "--rate", type=float, required=True, metavar="RPS",
        help="arrival rate in requests/second",
    )
    return parser


def _exit_code(report) -> int:
    if report.outcomes.get(OUTCOME_EXHAUSTED, 0):
        return exit_code_for(ResilienceExhausted(""))
    if report.outcomes.get(OUTCOME_DEADLINE, 0):
        return EXIT_DEADLINE
    if report.outcomes.get(OUTCOME_SHED, 0):
        return EXIT_SHED
    return 0


async def _drive(args) -> "LoadReport":
    workload = make_workload(
        args.requests,
        n=args.n,
        nnz_per_row=args.nnz_per_row,
        seed=args.seed,
    )
    service = SpGEMMService(
        max_queue_depth=args.queue_depth,
        workers=args.workers,
        max_inflight=args.max_inflight,
        initial_shards=args.initial_shards,
        admission_budget_bytes=args.admission_budget,
        default_deadline_s=args.deadline,
        default_budget_bytes=args.request_budget,
        backend=args.backend,
    )
    async with service:
        if args.command == "run":
            return await run_closed_loop(
                service,
                workload,
                tenants=args.tenants,
                backpressure=args.backpressure,
            )
        return await run_open_loop(
            service, workload, rate_rps=args.rate, tenants=args.tenants
        )


def serve_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``serve`` subcommand family."""
    args = _build_parser().parse_args(argv)
    tracer = Tracer() if args.trace is not None else None
    metrics = MetricsRegistry() if args.metrics is not None else None
    try:
        with obs_context(tracer=tracer, metrics=metrics):
            report = asyncio.run(_drive(args))
    except ReproError as exc:
        # Typed failures still leave artifacts behind (the finally
        # below) — a failed run is when you want the trace most.
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    finally:
        if tracer is not None:
            tracer.write(args.trace)
        if metrics is not None:
            metrics.write(args.metrics)

    if args.json:
        doc = {"command": args.command, "report": report.to_dict()}
        if metrics is not None:
            doc["metrics"] = metrics.snapshot()
        print(json.dumps(doc, indent=2))
    else:
        print(f"serve {args.command}: {report.summary()}")
    return _exit_code(report)
