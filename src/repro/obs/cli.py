"""``python -m repro obs`` — the workload profile report.

``obs profile``
    The workload hotspot report: the totals and the top tile-row bands
    by intermediate products.  Renders an existing ``repro.profile/1``
    artifact, or records a fresh one by running a bench suite under the
    profiler::

        python -m repro obs profile --suite smoke --out profile.json
        python -m repro obs profile profile.json --top 5

Exit codes follow the repo-wide contract: 0 on success, 2 for bad
flags, 3 for malformed artifacts and 4 when an artifact is missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from repro.errors import EXIT_USAGE, InvalidInputError, exit_code_for

__all__ = ["obs_main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro obs",
        description="workload profile report (docs/OBSERVABILITY.md)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

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
    try:
        return _profile(args)
    except FileNotFoundError as exc:
        missing = getattr(exc, "filename", None) or exc
        print(f"error: file not found: {missing}", file=sys.stderr)
        return exit_code_for(exc)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
