"""``python -m repro obs`` — live and offline views of the telemetry.

``obs top``
    A live terminal view of a running service's ``/varz`` endpoint:
    queue depth against its bound, in-flight count, per-tenant outcome
    counters and the SLO burn rates — refreshed every ``--interval``
    seconds until interrupted (or for ``--iterations`` refreshes).
    Point it at the ``--listen`` address of ``repro serve run``::

        python -m repro serve run --requests 500 --listen 127.0.0.1:9100 &
        python -m repro obs top --url http://127.0.0.1:9100

``obs slo``
    An offline per-tenant SLO report from a Prometheus snapshot — a
    ``--metrics`` artifact file or a live ``/metrics`` scrape::

        python -m repro obs slo --metrics serve.prom --target 0.5

``obs profile``
    The workload hotspot report: phases, top tile-row bands by
    intermediate products, shard shape, tile-cache counters and the
    execution plans the planner chose.  Renders
    an existing ``repro.profile/1`` artifact, or records a fresh one by
    running a bench suite under the profiler::

        python -m repro obs profile --suite smoke --out profile.json
        python -m repro obs profile profile.json --top 5

Exit codes follow the repo-wide contract: 0 on success, 2 for bad
flags, 3 for malformed artifacts, 4 when a snapshot file is missing,
and ``obs slo --check`` exits 8 when any tenant's burn rate exceeds 1.0
(the budget is being spent faster than provisioned — the alerting
condition).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional

from repro.errors import (
    EXIT_EXHAUSTED,
    EXIT_FILE_NOT_FOUND,
    EXIT_USAGE,
    InvalidInputError,
    exit_code_for,
)

__all__ = ["obs_main"]

#: Exit code of ``obs slo --check`` when a tenant is over budget —
#: reuses the "recovery exhausted" slot: the error budget ran out.
EXIT_BURN = EXIT_EXHAUSTED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro obs",
        description="live and offline telemetry views (docs/OBSERVABILITY.md)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    top = sub.add_parser("top", help="live /varz view of a running service")
    top.add_argument(
        "--url", default="http://127.0.0.1:9100", metavar="URL",
        help="base URL of the --listen endpoint (default http://127.0.0.1:9100)",
    )
    top.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="refresh period (default 1.0)",
    )
    top.add_argument(
        "--iterations", type=int, default=0, metavar="N",
        help="stop after N refreshes (default 0: until interrupted)",
    )
    top.add_argument(
        "--no-clear", action="store_true",
        help="append frames instead of redrawing in place (for logs/CI)",
    )

    slo = sub.add_parser("slo", help="per-tenant SLO report from a snapshot")
    src = slo.add_mutually_exclusive_group(required=True)
    src.add_argument(
        "--metrics", default=None, metavar="FILE.prom",
        help="Prometheus snapshot file (a --metrics artifact)",
    )
    src.add_argument(
        "--url", default=None, metavar="URL",
        help="scrape URL/metrics from a live endpoint instead",
    )
    slo.add_argument(
        "--target", type=float, default=0.5, metavar="SECONDS",
        help="latency target (default 0.5; use a histogram bucket bound)",
    )
    slo.add_argument(
        "--objective", type=float, default=0.95, metavar="FRAC",
        help="objective fraction (default 0.95)",
    )
    slo.add_argument(
        "--json", action="store_true", help="print the report as JSON"
    )
    slo.add_argument(
        "--check", action="store_true",
        help=f"exit {EXIT_BURN} when any tenant's burn rate exceeds 1.0",
    )

    profile = sub.add_parser(
        "profile", help="workload hotspot report from a repro.profile/1 artifact"
    )
    profile.add_argument(
        "artifact", nargs="?", default=None,
        help="profile artifact to render (omit with --suite to record one)",
    )
    profile.add_argument(
        "--suite", default=None, metavar="NAME",
        help="record a fresh profile by running this bench suite "
        "(see `repro bench run --help` for the registry)",
    )
    profile.add_argument(
        "--max-matrices", type=int, default=None, metavar="N",
        help="cap the suite's matrix list (with --suite)",
    )
    profile.add_argument(
        "--out", default=None, metavar="PROFILE.json",
        help="write the artifact here (with --suite)",
    )
    profile.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="tile-row bands in the hotspot table (default 10)",
    )
    profile.add_argument(
        "--json", action="store_true", help="print the artifact as JSON"
    )

    return parser


def _fetch(url: str, timeout: float = 5.0) -> bytes:
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.read()


def _render_top(varz: Dict[str, Any]) -> str:
    lines: List[str] = []
    queue = varz.get("queue", {})
    state = "running" if varz.get("running") else "stopped"
    if varz.get("running") and not varz.get("accepting"):
        state = "draining"
    lines.append(
        f"service: {state}  uptime {varz.get('uptime_s', 0.0):.1f}s  "
        f"workers {varz.get('workers', '?')} ({varz.get('executor', '?')})  "
        f"inflight {varz.get('inflight', 0)}"
    )
    lines.append(
        f"queue:   depth {queue.get('depth', 0)}/{queue.get('bound', 0)}  "
        f"high-water {queue.get('high_water', 0)}  "
        f"pool replacements {varz.get('pool_replacements', 0)}"
    )
    requests = varz.get("requests_total", {})
    outcomes = varz.get("outcomes_total", {})
    slo = varz.get("slo", {})
    tenants = sorted(set(requests) | set(outcomes) | set(slo))
    if tenants:
        lines.append(
            f"{'tenant':<12} {'submitted':>9} {'served':>7} {'shed':>5} "
            f"{'deadline':>8} {'exhausted':>9} {'attain':>7} {'burn':>7}"
        )
        for tenant in tenants:
            out = outcomes.get(tenant, {})
            s = slo.get(tenant, {})
            lines.append(
                f"{tenant:<12} {int(requests.get(tenant, 0)):>9} "
                f"{int(out.get('served', 0)):>7} {int(out.get('shed', 0)):>5} "
                f"{int(out.get('deadline', 0)):>8} "
                f"{int(out.get('exhausted', 0)):>9} "
                f"{s.get('attainment', 1.0):>7.3f} "
                f"{s.get('burn_rate', 0.0):>7.2f}"
            )
    else:
        lines.append("(no traffic yet)")
    cache = varz.get("tilecache")
    if cache:
        lines.append(
            f"tilecache: {int(cache.get('hits', 0))} hits / "
            f"{int(cache.get('misses', 0))} misses / "
            f"{int(cache.get('evictions', 0))} evictions  "
            f"{int(cache.get('size', 0))}/{int(cache.get('capacity', 0))} entries  "
            f"{int(cache.get('resident_bytes', 0))} B resident"
        )
    prof = varz.get("profile")
    if prof:
        top = prof.get("top_band") or {}
        rows = top.get("tile_rows", ["?", "?"])
        hot = (
            f"  hot tile rows [{rows[0]}, {rows[1]}) "
            f"({int(top.get('products', 0))} products)"
            if top
            else ""
        )
        lines.append(
            f"profile: {int(prof.get('runs', 0))} runs  "
            f"{int(prof.get('products', 0))} products -> "
            f"{int(prof.get('nnz_c', 0))} nnz(C){hot}"
        )
    return "\n".join(lines)


def _top(args) -> int:
    base = args.url.rstrip("/")
    iteration = 0
    try:
        while True:
            try:
                varz = json.loads(_fetch(f"{base}/varz"))
            except (urllib.error.URLError, OSError) as exc:
                print(f"error: cannot reach {base}/varz: {exc}", file=sys.stderr)
                return exit_code_for(InvalidInputError(str(exc)))
            frame = _render_top(varz)
            if args.no_clear:
                print(frame)
                print("-" * 72)
            else:
                # ANSI home+clear keeps the view in place like top(1).
                sys.stdout.write("\x1b[H\x1b[2J" + frame + "\n")
                sys.stdout.flush()
            iteration += 1
            if args.iterations and iteration >= args.iterations:
                return 0
            time.sleep(max(args.interval, 0.05))
    except KeyboardInterrupt:
        return 0


def _slo(args) -> int:
    from repro.analysis.slo import render_slo_report, slo_report_from_text

    if args.metrics is not None:
        try:
            with open(args.metrics) as fh:
                text = fh.read()
        except FileNotFoundError:
            print(f"error: no such snapshot: {args.metrics}", file=sys.stderr)
            return EXIT_FILE_NOT_FOUND
    else:
        try:
            text = _fetch(args.url.rstrip("/") + "/metrics").decode()
        except (urllib.error.URLError, OSError) as exc:
            print(f"error: cannot scrape {args.url}: {exc}", file=sys.stderr)
            return exit_code_for(InvalidInputError(str(exc)))
    try:
        report = slo_report_from_text(
            text, latency_target_s=args.target, objective=args.objective
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_slo_report(report))
    if args.check and any(
        row["burn_rate"] > 1.0 for row in report.values()
    ):
        return EXIT_BURN
    return 0


def _record_suite_profile(
    suite_name: str, max_matrices: Optional[int] = None
) -> Dict[str, Any]:
    """Run one bench suite's grid once under a fresh profiler.

    Single profiled execution per (matrix, method, op) cell.  Much
    lighter than ``repro bench run`` (no timed repeats).
    """
    from repro.baselines import get_algorithm
    from repro.bench.runner import SUITES
    from repro.obs.context import obs_context
    from repro.obs.profile import WorkloadProfiler

    suite = SUITES.get(suite_name)
    if suite is None:
        raise InvalidInputError(
            f"unknown bench suite {suite_name!r}; available: {sorted(SUITES)}"
        )
    specs = list(suite.specs())
    if max_matrices is not None:
        specs = specs[: max(int(max_matrices), 0)]
    profiler = WorkloadProfiler()
    with obs_context(profile=profiler):
        for spec in specs:
            a = spec.matrix()
            for op in suite.ops:
                b = a if op == "aa" else a.transpose()
                for method in suite.methods:
                    print(f"  profiling {spec.name} {method} {op}", file=sys.stderr)
                    get_algorithm(method)(a, b)
    return profiler.to_dict()


def _profile(args) -> int:
    from repro.obs.profile import load_profile, render_profile, write_profile

    if args.suite is not None:
        doc = _record_suite_profile(args.suite, args.max_matrices)
        if args.out:
            write_profile(doc, args.out)
            print(f"wrote {args.out}", file=sys.stderr)
    elif args.artifact is not None:
        doc = load_profile(args.artifact)
    else:
        print(
            "error: pass a profile artifact or --suite NAME to record one",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(render_profile(doc, top=args.top))
    return 0


def obs_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``obs`` subcommand family."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "top": _top,
        "slo": _slo,
        "profile": _profile,
    }
    try:
        return handlers[args.command](args)
    except FileNotFoundError as exc:
        missing = getattr(exc, "filename", None) or exc
        print(f"error: file not found: {missing}", file=sys.stderr)
        return exit_code_for(exc)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
