"""The planner gate's statistics: per-matrix verdicts and their rollup.

The paper's comparisons (and the bhSPARSE/spECK lines of work it builds
on) are only meaningful with noise-aware, like-for-like measurement: a
2 % wall-clock delta on a Python harness is scheduler noise, a 2x delta
is a regression.  This module draws that line with order statistics
rather than means:

* :func:`mann_whitney_u` — the Mann-Whitney U rank test (normal
  approximation with tie correction and continuity correction), which
  needs no normality assumption and is robust to the long right tail of
  wall-clock samples;
* :func:`classify_samples` — folds the median ratio and the test into
  one verdict per series: ``improved`` / ``regressed`` / ``unchanged``
  given a relative noise threshold and significance level;
* :func:`planner_comparison` — the planner gate behind
  ``repro bench compare``: within one ``planner``-suite document, the
  planned method against every static configuration, per matrix and as
  a geometric mean per configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.regression import geometric_mean

__all__ = [
    "DEFAULT_NOISE_THRESHOLD",
    "DEFAULT_ALPHA",
    "PLANNED_METHOD",
    "SeriesDelta",
    "mann_whitney_u",
    "classify_samples",
    "planner_comparison",
    "render_planner_comparison",
]

#: Relative wall-clock change below which a delta is noise by definition.
#: Interpreted-Python wall times shift 10-25 % between processes on shared
#: machines (allocator and cache state, CPU frequency, co-tenants), so the
#: threshold sits above that floor; a genuine 2x regression — what the gate
#: exists to catch — still clears it with 4x margin.
DEFAULT_NOISE_THRESHOLD = 0.25

#: Two-sided significance level of the Mann-Whitney test.
DEFAULT_ALPHA = 0.05

#: The series method the planner gate treats as the planner.
PLANNED_METHOD = "tilespgemm_planned"


def mann_whitney_u(x: Sequence[float], y: Sequence[float]) -> Tuple[float, float]:
    """Two-sided Mann-Whitney U test; returns ``(U_of_x, p_value)``.

    Normal approximation with tie correction and continuity correction —
    exact enough for the bench's sample counts (>= 4 per side) and free of
    any SciPy dependency.  Fully tied inputs (identical runs) return
    ``p = 1.0``.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n1, n2 = x.size, y.size
    if n1 == 0 or n2 == 0:
        return 0.0, 1.0
    combined = np.concatenate([x, y])
    order = np.argsort(combined, kind="mergesort")
    ranks = np.empty(combined.size, dtype=np.float64)
    ranks[order] = np.arange(1, combined.size + 1, dtype=np.float64)
    # Average the ranks of tied values.
    uniq, inverse, counts = np.unique(combined, return_inverse=True, return_counts=True)
    if uniq.size < combined.size:
        sums = np.bincount(inverse, weights=ranks)
        ranks = (sums / counts)[inverse]
    r1 = float(ranks[:n1].sum())
    u1 = r1 - n1 * (n1 + 1) / 2.0
    mu = n1 * n2 / 2.0
    n = n1 + n2
    tie_term = float(((counts.astype(np.float64) ** 3) - counts).sum()) / (n * (n - 1))
    sigma2 = (n1 * n2 / 12.0) * ((n + 1) - tie_term)
    if sigma2 <= 0:
        return u1, 1.0  # every value tied: the samples are indistinguishable
    diff = u1 - mu
    correction = 0.5 if diff < 0 else (-0.5 if diff > 0 else 0.0)
    z = (diff + correction) / math.sqrt(sigma2)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return u1, min(1.0, max(0.0, p))


@dataclass
class SeriesDelta:
    """One series' verdict: ``current`` samples against ``baseline`` samples.

    ``speedup`` is ``baseline_median / current_median`` (> 1 means the
    current side is faster); ``None`` when the current median is 0.
    """

    classification: str = "unchanged"  #: improved|regressed|unchanged
    baseline_median: float = 0.0
    current_median: float = 0.0
    speedup: Optional[float] = None
    p_value: float = 1.0
    significant: bool = False


def classify_samples(baseline: Sequence[float], current: Sequence[float]) -> SeriesDelta:
    """Classify one series from its two wall-clock sample sets.

    A delta counts as ``regressed``/``improved`` only when the median
    moved beyond :data:`DEFAULT_NOISE_THRESHOLD` *and* the Mann-Whitney
    test rejects "same distribution" at :data:`DEFAULT_ALPHA` — so one
    outlier sample cannot fail a gate, and a consistent small drift below
    the threshold cannot either.
    """
    base = np.asarray(baseline, dtype=np.float64)
    cur = np.asarray(current, dtype=np.float64)
    if base.size == 0 or cur.size == 0:
        raise ValueError("classify_samples needs non-empty sample sets")
    base_med = float(np.median(base))
    cur_med = float(np.median(cur))
    ratio = cur_med / base_med if base_med > 0 else float("inf")
    _, p = mann_whitney_u(base, cur)
    delta = SeriesDelta(
        baseline_median=base_med,
        current_median=cur_med,
        speedup=(base_med / cur_med) if cur_med > 0 else None,
        p_value=p,
    )
    if abs(ratio - 1.0) > DEFAULT_NOISE_THRESHOLD and p < DEFAULT_ALPHA:
        delta.classification = "regressed" if ratio > 1.0 else "improved"
        delta.significant = True
    return delta


def planner_comparison(doc: Dict[str, Any]) -> Dict[str, Any]:
    """The adaptive-planner gate: one document, planned vs every static.

    Compares the :data:`PLANNED_METHOD` series against every other
    method's series **within one document**, per ``(matrix, op)``.  For
    each static configuration it reports the per-matrix speedup
    ``static_median / planned_median`` and the geometric mean across
    matrices.

    The gate passes when, against every static configuration, the
    geomean speedup is >= 1.0 **and** no matrix regresses beyond
    :data:`DEFAULT_NOISE_THRESHOLD` with Mann-Whitney significance at
    :data:`DEFAULT_ALPHA` — i.e. the planner is at least as good as any
    static choice overall and never meaningfully worse on a single input.
    """
    from repro.bench.schema import validate_document

    validate_document(doc)
    planned: Dict[Tuple[str, str], Dict[str, Any]] = {}
    statics: Dict[str, Dict[Tuple[str, str], Dict[str, Any]]] = {}
    for series in doc.get("series", []):
        at = (series["matrix"], series["op"])
        if series["method"] == PLANNED_METHOD:
            planned[at] = series
        else:
            statics.setdefault(series["method"], {})[at] = series
    if not planned:
        raise ValueError(
            f"document has no {PLANNED_METHOD!r} series — run the "
            "'planner' bench suite"
        )

    configs: Dict[str, Dict[str, Any]] = {}
    all_passed = True
    for method in sorted(statics):
        rows: List[Dict[str, Any]] = []
        regressions: List[str] = []
        speedups: List[float] = []
        for at in sorted(planned):
            static_series = statics[method].get(at)
            if static_series is None:
                continue
            p_samples = planned[at].get("wall_seconds") or []
            s_samples = static_series.get("wall_seconds") or []
            if not p_samples or not s_samples:
                continue
            # baseline = the static config, current = the planner, so
            # "regressed" means the planner is slower beyond threshold
            # *and* the rank test rejects "same distribution".
            delta = classify_samples(s_samples, p_samples)
            row = {
                "matrix": at[0],
                "op": at[1],
                "static_median_s": delta.baseline_median,
                "planned_median_s": delta.current_median,
                "speedup": delta.speedup,
                "classification": delta.classification,
                "p_value": delta.p_value,
                "significant": delta.significant,
            }
            rows.append(row)
            if delta.speedup is not None:
                speedups.append(delta.speedup)
            if delta.classification == "regressed" and delta.significant:
                regressions.append(f"{at[0]}:{at[1]}")
        geomean = geometric_mean(speedups)
        passed = geomean >= 1.0 and not regressions
        configs[method] = {
            "geomean_speedup": geomean,
            "rows": rows,
            "regressions": regressions,
            "passed": passed,
        }
        all_passed = all_passed and passed
    return {
        "planned_method": PLANNED_METHOD,
        "noise_threshold": DEFAULT_NOISE_THRESHOLD,
        "alpha": DEFAULT_ALPHA,
        "label": doc.get("meta", {}).get("label", ""),
        "configs": configs,
        "passed": all_passed,
    }


def render_planner_comparison(report: Dict[str, Any]) -> str:
    """Human-readable planner-gate report (``bench compare``)."""
    from repro.analysis.reporting import format_table

    rows = []
    for method, cfg in sorted(report.get("configs", {}).items()):
        for row in cfg["rows"]:
            rows.append(
                [
                    f"{row['matrix']}:{row['op']}",
                    method,
                    f"{row['static_median_s'] * 1e3:.3f}"
                    if row["static_median_s"]
                    else "-",
                    f"{row['planned_median_s'] * 1e3:.3f}"
                    if row["planned_median_s"]
                    else "-",
                    f"{row['speedup']:.3f}x" if row["speedup"] else "-",
                    row["classification"]
                    + ("" if row["significant"] else " (ns)"),
                ]
            )
    text = format_table(
        ["matrix", "static config", "static ms", "planned ms", "speedup", "verdict"],
        rows or [["(no matched series)", "", "", "", "", ""]],
        title=(
            f"planner gate: {report.get('planned_method')} vs every static "
            f"configuration (threshold "
            f"{report.get('noise_threshold', 0.0) * 100:.0f}%)"
        ),
    )
    roll = [
        [
            method,
            f"{cfg['geomean_speedup']:.3f}x",
            "pass" if cfg["passed"] else "FAIL",
            ", ".join(cfg["regressions"]) or "-",
        ]
        for method, cfg in sorted(report.get("configs", {}).items())
    ]
    text += "\n\n" + format_table(
        ["static config", "geomean speedup", "gate", "regressions"],
        roll,
        title="planner vs static rollup (gate: geomean >= 1.0, no regression)",
    )
    text += "\n" + (
        "planner gate: PASS" if report.get("passed") else "planner gate: FAIL"
    )
    return text
