"""``repro bench`` — run a suite into a result document; gate the planner.

Subcommands (dispatched from :func:`repro.cli.main` so the paper-artifact
interface stays untouched)::

    python -m repro bench run --suite planner --out planner-bench.json
    python -m repro bench compare planner-bench.json

``compare`` is the planner gate: within one ``planner``-suite document,
the planned method must match or beat every static configuration
(:func:`repro.analysis.bench_compare.planner_comparison`).

Exit codes follow the :mod:`repro.errors` taxonomy: 0 on success, 2 on
usage errors, 3 on malformed documents, 4 on missing files and 9 when the
planner gate fails.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.errors import (
    EXIT_OK,
    EXIT_USAGE,
    BenchRegressionError,
    InvalidInputError,
    exit_code_for,
)

__all__ = ["bench_main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="machine-readable benchmark runner and the planner gate",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    from repro.bench.runner import available_suites

    suites = available_suites()
    run = sub.add_parser(
        "run",
        help="execute a suite and emit a result document",
        description="suites: "
        + "; ".join(f"{name} ({desc})" for name, desc in suites.items()),
    )
    run.add_argument("--suite", default="ext", choices=sorted(suites))
    run.add_argument("--label", default="", help="run label recorded in meta (default: suite name)")
    run.add_argument("--warmup", type=int, default=1, help="untimed executions per series")
    run.add_argument("--repeats", type=int, default=5, help="timed executions per series")
    run.add_argument("--seed", type=int, default=0, help="deterministic RNG seed")
    run.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help="kernel backend the suite runs under (see docs/BACKENDS.md); "
        "recorded in the document's meta (default: $REPRO_BACKEND, else numpy)",
    )
    run.add_argument(
        "--max-matrices",
        type=int,
        default=None,
        help="cap the suite's matrix list (default: REPRO_BENCH_MAX_MATRICES or all)",
    )
    run.add_argument(
        "--methods", default=None, help="comma-separated method override (default: the suite's)"
    )
    run.add_argument(
        "--out",
        default=None,
        metavar="OUT.json",
        help="write the document here (default: print it on stdout)",
    )
    run.add_argument("--quiet", action="store_true", help="suppress per-series progress lines")

    compare = sub.add_parser(
        "compare",
        help="planner gate: the planned method against every static "
        "configuration within one 'planner'-suite document",
        description="exit 9 unless the planner's geomean speedup is >= 1.0 "
        "against every static configuration with no per-matrix regression "
        "beyond the noise threshold",
    )
    compare.add_argument("doc", help="result document of the 'planner' suite")
    return parser


def _cmd_run(args) -> int:
    import json

    from repro.bench.runner import BenchConfig, BenchRunner
    from repro.bench.schema import write_document

    methods = tuple(m for m in args.methods.split(",") if m) if args.methods else None
    config = BenchConfig(
        suite=args.suite,
        label=args.label,
        warmup=args.warmup,
        repeats=args.repeats,
        seed=args.seed,
        max_matrices=args.max_matrices,
        methods=methods,
        backend=args.backend,
    )
    progress = None if args.quiet else lambda line: print(f"  running {line}", file=sys.stderr)
    doc = BenchRunner(config).run(progress=progress)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        write_document(doc, args.out)
        print(f"wrote {args.out} ({len(doc['series'])} series)")
    else:
        print(json.dumps(doc, indent=2))
    return EXIT_OK


def _cmd_compare(args) -> int:
    from repro.analysis.bench_compare import (
        planner_comparison,
        render_planner_comparison,
    )
    from repro.bench.schema import load_document

    doc = load_document(args.doc)
    try:
        report = planner_comparison(doc)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(render_planner_comparison(report))
    if not report["passed"]:
        failing = [
            f"{key} (vs {method})"
            for method, cfg in sorted(report["configs"].items())
            if not cfg["passed"]
            for key in cfg["regressions"] or [f"geomean-vs-{method}"]
        ]
        exc = BenchRegressionError(failing)
        print(
            f"error: planner gate failed — {report['planned_method']} is not >= "
            f"every static configuration: {exc}",
            file=sys.stderr,
        )
        return exit_code_for(exc)
    return EXIT_OK


def bench_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``bench`` subcommand family."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    handlers = {"run": _cmd_run, "compare": _cmd_compare}
    try:
        return handlers[args.command](args)
    except FileNotFoundError as exc:
        missing = getattr(exc, "filename", None) or exc
        print(f"error: file not found: {missing}", file=sys.stderr)
        return exit_code_for(exc)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
