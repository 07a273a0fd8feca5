"""Profile analysis over Chrome trace-event files (the ``--trace`` output).

The observability layer (:mod:`repro.obs`) exports runs as Chrome
trace-event JSON.  This module reads those files back and turns them into
the paper's figures-by-other-means:

* :func:`load_chrome_trace` / :func:`validate_chrome_trace` — parse a
  trace file and check it against the subset of the trace-event schema
  the exporter produces (so CI can smoke-test every emitted profile);
* :func:`aggregate_spans` / :func:`top_spans_report` — fold the complete
  events into per-name totals and render the hot-spans table behind the
  CLI's ``--profile`` flag;
* :func:`breakdown_from_trace` / :func:`render_breakdown` — recover the
  Figure-10 step1/step2/step3/malloc split from a trace alone, using the
  same phase-to-bucket mapping as :mod:`repro.analysis.breakdown`.  A
  trace's ``cat="step"`` spans are the phases every algorithm's
  :class:`~repro.util.timing.PhaseTimer` timed — one measurement, so the
  trace's split is the in-process one.

Everything here operates on plain dicts, so a trace captured on one
machine can be analysed on another with no repro objects in scope.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional

from repro.analysis.breakdown import BUCKETS, _PHASE_TO_BUCKET

__all__ = [
    "load_chrome_trace",
    "validate_chrome_trace",
    "aggregate_spans",
    "top_spans_report",
    "breakdown_from_trace",
    "render_breakdown",
]

#: Event phases the exporter emits (complete, instant, counter, metadata).
_KNOWN_PHASES = ("X", "i", "C", "M")


def load_chrome_trace(path: str) -> dict:
    """Read and validate a Chrome trace-event JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    validate_chrome_trace(doc)
    return doc


def validate_chrome_trace(doc: dict) -> List[dict]:
    """Check ``doc`` against the trace-event schema; returns the events.

    Raises ``ValueError`` naming the first offending event when the
    document is not a valid (exporter-subset) Chrome trace: a JSON object
    with a ``traceEvents`` list whose entries carry ``ph``/``name``/
    ``pid``/``tid``, microsecond ``ts`` on timed events and a
    non-negative ``dur`` on complete events.
    """
    if not isinstance(doc, dict):
        raise ValueError("trace must be a JSON object with a traceEvents list")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace is missing the traceEvents list")
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"traceEvents[{i}] is not an object")
        ph = ev.get("ph")
        if ph not in _KNOWN_PHASES:
            raise ValueError(f"traceEvents[{i}] has unknown phase {ph!r}")
        for key in ("name", "pid", "tid"):
            if key not in ev:
                raise ValueError(f"traceEvents[{i}] ({ph!r}) is missing {key!r}")
        if ph != "M":
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                raise ValueError(f"traceEvents[{i}] has invalid ts {ts!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"traceEvents[{i}] has invalid dur {dur!r}")
    return events


def _complete_events(doc: dict, cats: Optional[Iterable[str]] = None) -> List[dict]:
    wanted = set(cats) if cats is not None else None
    out = []
    for ev in validate_chrome_trace(doc):
        if ev.get("ph") != "X":
            continue
        if wanted is not None and ev.get("cat") not in wanted:
            continue
        out.append(ev)
    return out


def aggregate_spans(
    doc: dict, cats: Optional[Iterable[str]] = None
) -> Dict[str, Dict[str, float]]:
    """Fold complete events into per-name totals.

    Returns ``{name: {"seconds", "count", "min_s", "max_s", "mean_s"}}``,
    sorted by descending total.  ``cats`` restricts the aggregation to the
    given event categories (e.g. ``("step",)`` for pipeline steps only).
    """
    acc: Dict[str, List[float]] = {}
    for ev in _complete_events(doc, cats):
        acc.setdefault(ev["name"], []).append(float(ev["dur"]) / 1e6)
    out = {}
    for name, durs in sorted(acc.items(), key=lambda kv: -sum(kv[1])):
        out[name] = {
            "seconds": sum(durs),
            "count": len(durs),
            "min_s": min(durs),
            "max_s": max(durs),
            "mean_s": sum(durs) / len(durs),
        }
    return out


def top_spans_report(doc: dict, n: int = 12) -> str:
    """The hot-spans table behind the CLI's ``--profile`` flag."""
    agg = aggregate_spans(doc)
    lines = ["top spans by total wall time:"]
    if not agg:
        lines.append("  (no spans recorded)")
        return "\n".join(lines)
    width = max(len(name) for name in list(agg)[:n])
    lines.append(f"  {'span':<{width}}  {'total':>10}  {'count':>5}  {'mean':>10}")
    for name, st in list(agg.items())[:n]:
        lines.append(
            f"  {name:<{width}}  {st['seconds'] * 1e3:>8.3f}ms  {st['count']:>5}"
            f"  {st['mean_s'] * 1e3:>8.3f}ms"
        )
    hidden = len(agg) - n
    if hidden > 0:
        lines.append(f"  ... and {hidden} more")
    return "\n".join(lines)


def breakdown_from_trace(doc: dict, strict: bool = False) -> Dict[str, float]:
    """Figure-10 bucket seconds recovered from a trace file alone.

    Sums ``cat="step"`` spans into the paper's ``step1``/``step2``/
    ``step3``/``malloc`` buckets via the same mapping the in-process
    breakdown uses.  Every step span is one
    :meth:`~repro.util.timing.PhaseTimer.phase` and the timer was
    credited with that span's duration, so this equals
    :func:`~repro.analysis.breakdown.measured_breakdown` of the traced
    runs up to the float error of the file's microsecond units.
    Unmapped phase names are ignored unless ``strict`` is true (then
    they raise ``KeyError``), so traces from newer pipelines with extra
    phases still produce a breakdown.
    """
    out = {b: 0.0 for b in BUCKETS}
    for ev in _complete_events(doc, cats=("step",)):
        bucket = _PHASE_TO_BUCKET.get(ev["name"])
        if bucket is None:
            if strict:
                raise KeyError(f"phase {ev['name']!r} has no breakdown bucket mapping")
            continue
        out[bucket] += float(ev["dur"]) / 1e6
    return out


def render_breakdown(breakdown: Dict[str, float], width: int = 40) -> str:
    """ASCII bar chart of a bucket dict (the Figure-10 view of one run)."""
    total = sum(breakdown.values())
    lines = ["runtime breakdown (step spans):"]
    label_w = max((len(k) for k in breakdown), default=0)
    for name, sec in breakdown.items():
        frac = sec / total if total > 0 else 0.0
        bar = "#" * max(int(round(frac * width)), 1 if sec > 0 else 0)
        lines.append(f"  {name:<{label_w}}  {sec * 1e3:>8.3f}ms  {frac * 100:>5.1f}%  {bar}")
    return "\n".join(lines)
