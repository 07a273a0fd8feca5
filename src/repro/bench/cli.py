"""``repro bench`` — run, compare, gate and report benchmark documents.

Subcommands (dispatched from :func:`repro.cli.main` so the paper-artifact
interface stays untouched)::

    python -m repro bench run --suite ext --out BENCH_PR3.json
    python -m repro bench compare benchmarks/history/seed.json latest.json
    python -m repro bench compare --planner planner-bench.json
    python -m repro bench gate --candidate latest.json [--soft]
    python -m repro bench report latest.json --roofline
    python -m repro bench report --attribute base_trace.json cur_trace.json

Exit codes follow the :mod:`repro.errors` taxonomy: 0 on success, 2 on
usage errors, 3 on malformed documents, 4 on missing files and 9 when the
gate finds a statistically significant regression (``--soft`` downgrades
9 to a warning, for CI jobs comparing across unlike machines).
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
        description="machine-readable benchmark runner, regression gate and analytics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    from repro.analysis.bench_compare import DEFAULT_ALPHA, DEFAULT_NOISE_THRESHOLD
    from repro.bench.history import DEFAULT_BASELINE, DEFAULT_HISTORY_DIR
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
    run.add_argument("--out", default=None, metavar="OUT.json", help="also write the document here")
    run.add_argument(
        "--history-dir",
        default=str(DEFAULT_HISTORY_DIR),
        help="history directory to append to (default: benchmarks/history)",
    )
    run.add_argument(
        "--no-history", action="store_true", help="do not append the run to the history store"
    )
    run.add_argument("--quiet", action="store_true", help="suppress per-series progress lines")

    compare = sub.add_parser(
        "compare",
        help="diff two result documents, or gate the planner with --planner",
    )
    compare.add_argument("baseline", help="baseline document path")
    compare.add_argument(
        "current",
        nargs="?",
        default=None,
        help="current document path (omitted with --planner)",
    )
    compare.add_argument("--threshold", type=float, default=DEFAULT_NOISE_THRESHOLD)
    compare.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    compare.add_argument("--verbose", action="store_true", help="also list unchanged series")
    compare.add_argument("--json", action="store_true", help="machine-readable verdicts on stdout")
    compare.add_argument(
        "--attribute",
        action="store_true",
        help="blame each significant regression on a pipeline phase and a "
        "tile-row band using the documents' embedded workload profiles",
    )
    compare.add_argument(
        "--planner",
        action="store_true",
        help="planner gate: compare the planned method against every "
        "static configuration within ONE document (the positional path; "
        "run the 'planner' suite first); exit 9 unless the planner's "
        "geomean speedup is >= 1.0 vs every static config with no "
        "per-matrix regression beyond the noise threshold",
    )
    compare.add_argument(
        "--planned-method",
        default="tilespgemm_planned",
        metavar="NAME",
        help="series method treated as the planner (default tilespgemm_planned)",
    )

    gate = sub.add_parser(
        "gate", help="fail (exit 9) on statistically significant regressions"
    )
    gate.add_argument(
        "--baseline",
        default=str(DEFAULT_BASELINE),
        help="baseline document (default: benchmarks/history/seed.json)",
    )
    gate.add_argument(
        "--candidate",
        default=None,
        help="candidate document (default: newest history entry that is not the baseline)",
    )
    gate.add_argument("--history-dir", default=str(DEFAULT_HISTORY_DIR))
    gate.add_argument("--threshold", type=float, default=DEFAULT_NOISE_THRESHOLD)
    gate.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    gate.add_argument(
        "--soft",
        action="store_true",
        help="warn-only: report regressions but exit 0 (cross-machine CI)",
    )

    report = sub.add_parser("report", help="summarise a document; roofline and attribution views")
    report.add_argument(
        "doc", nargs="?", default=None, help="result document (default: newest history entry)"
    )
    report.add_argument("--history-dir", default=str(DEFAULT_HISTORY_DIR))
    report.add_argument("--roofline", action="store_true", help="print the roofline table")
    report.add_argument(
        "--device", default=None, help="restrict the roofline join to one device key"
    )
    report.add_argument(
        "--attribute",
        nargs=2,
        metavar=("BASE_TRACE", "CUR_TRACE"),
        default=None,
        help="per-span delta table between two Chrome trace files "
        "(repro.analysis.profiling.diff_traces)",
    )
    return parser


def _cmd_run(args) -> int:
    import json

    from repro.bench.history import append_run
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
    if not args.no_history:
        path = append_run(doc, args.history_dir)
        print(f"appended history entry {path}")
    if not args.out and args.no_history:
        print(json.dumps(doc, indent=2))
    return EXIT_OK


def _cmd_compare(args) -> int:
    from repro.analysis.bench_compare import (
        attribute_regressions,
        compare_documents,
        render_attribution,
        render_comparison,
    )
    from repro.bench.schema import load_document

    if args.planner:
        return _cmd_compare_planner(args)
    if args.current is None:
        print(
            "error: compare needs two documents (or --planner with one)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    base = load_document(args.baseline)
    cur = load_document(args.current)
    report = compare_documents(
        base, cur, noise_threshold=args.threshold, alpha=args.alpha
    )
    attributions = (
        attribute_regressions(report, base, cur) if args.attribute else None
    )
    if args.json:
        import json

        payload = {
            "baseline": report.baseline_label,
            "current": report.current_label,
            "noise_threshold": report.noise_threshold,
            "alpha": report.alpha,
            "geomean_speedup": report.geomean_speedup(),
            "series": [
                {
                    "key": d.key,
                    "classification": d.classification,
                    "significant": d.significant,
                    "speedup": d.speedup,
                    "p_value": d.p_value,
                }
                for d in report.deltas
            ],
        }
        if attributions is not None:
            payload["attributions"] = attributions
        print(json.dumps(payload, indent=2))
    else:
        print(render_comparison(report, verbose=args.verbose))
        if attributions is not None:
            print()
            print(render_attribution(attributions))
    return EXIT_OK


def _cmd_compare_planner(args) -> int:
    from repro.analysis.bench_compare import (
        planner_comparison,
        render_planner_comparison,
    )
    from repro.bench.schema import load_document

    doc = load_document(args.baseline)
    try:
        report = planner_comparison(
            doc,
            planned_method=args.planned_method,
            noise_threshold=args.threshold,
            alpha=args.alpha,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        import json

        print(json.dumps(report, indent=2))
    else:
        print(render_planner_comparison(report))
    if not report["passed"]:
        from types import SimpleNamespace

        failing = []
        for method, cfg in sorted(report["configs"].items()):
            if cfg["passed"]:
                continue
            for key in cfg["regressions"] or [f"geomean-vs-{method}"]:
                failing.append(SimpleNamespace(key=f"{key} (vs {method})"))
        exc = BenchRegressionError(failing)
        print(
            f"error: planner gate failed — {args.planned_method} is not >= "
            f"every static configuration: {exc}",
            file=sys.stderr,
        )
        return exit_code_for(exc)
    return EXIT_OK


def _resolve_candidate(args) -> Optional[Path]:
    if args.candidate is not None:
        return Path(args.candidate)
    from repro.bench.history import latest_run

    return latest_run(args.history_dir, exclude=Path(args.baseline))


def _cmd_gate(args) -> int:
    from repro.analysis.bench_compare import render_comparison
    from repro.bench.history import gate_documents
    from repro.bench.schema import load_document

    candidate = _resolve_candidate(args)
    if candidate is None:
        print(
            "error: no candidate document (run `repro bench run` first or pass --candidate)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    base = load_document(args.baseline)
    cur = load_document(candidate)
    try:
        report = gate_documents(
            base, cur, noise_threshold=args.threshold, alpha=args.alpha
        )
    except BenchRegressionError as exc:
        print(render_comparison(exc.report))
        if args.soft:
            print(f"warning (soft gate): {exc}", file=sys.stderr)
            return EXIT_OK
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    print(render_comparison(report))
    print(
        f"gate passed: {len(report.deltas)} series vs {args.baseline} "
        f"(geomean speedup {report.geomean_speedup():.3f}x)"
    )
    return EXIT_OK


def _cmd_report(args) -> int:
    from repro.analysis.profiling import diff_traces, load_chrome_trace, render_trace_diff

    if args.attribute is not None:
        base = load_chrome_trace(args.attribute[0])
        cur = load_chrome_trace(args.attribute[1])
        print(render_trace_diff(diff_traces(base, cur)))
        if args.doc is None and not args.roofline:
            return EXIT_OK

    from repro.analysis.reporting import format_table
    from repro.bench.history import latest_run
    from repro.bench.roofline import render_roofline, roofline_points
    from repro.bench.schema import load_document

    doc_path = args.doc
    if doc_path is None:
        found = latest_run(args.history_dir)
        if found is None:
            print("error: no result document (pass one or run `repro bench run`)", file=sys.stderr)
            return EXIT_USAGE
        doc_path = str(found)
    doc = load_document(doc_path)
    meta = doc["meta"]
    print(
        f"bench document {doc_path}: suite={meta['suite']} label={meta['label']} "
        f"series={len(doc['series'])} repeats={meta['repeats']}"
    )
    rows = []
    for s in doc["series"]:
        samples = s.get("wall_seconds") or []
        med = sorted(samples)[len(samples) // 2] if samples else None
        rows.append(
            [
                s["key"],
                len(samples),
                f"{med * 1e3:.3f}" if med is not None else "-",
                f"{s['gflops']:.3f}" if s.get("gflops") else "-",
                f"{s.get('estimates', {}).get('rtx3090', {}).get('gflops', 0.0):.2f}",
            ]
        )
    print(
        format_table(
            ["series", "samples", "median ms", "GFlops (measured)", "GFlops (3090 est)"],
            rows,
            title="series summary",
        )
    )
    if args.roofline:
        print()
        print(render_roofline(roofline_points(doc, device=args.device)))
    return EXIT_OK


def bench_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``bench`` subcommand family."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    handlers = {
        "run": _cmd_run,
        "compare": _cmd_compare,
        "gate": _cmd_gate,
        "report": _cmd_report,
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
