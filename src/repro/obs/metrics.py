"""Counters, gauges and histograms for the algorithm's decision points.

The cost model and the paper's figures are driven by *counts*: tile-pair
intersections, AtomicOr/AtomicAdd scatter ops, sparse-vs-dense
accumulator selections, allocations, injected faults and retries.  A
:class:`MetricsRegistry` collects those as named metrics with optional
labels, offers a deterministic :meth:`~MetricsRegistry.snapshot` (plain
dicts with sorted keys — byte-identical across runs whose event stream is
deterministic, e.g. under a seeded
:class:`~repro.runtime.faults.FaultPlan`), and renders the Prometheus
text exposition format for scraping/diffing.

The registry holds one signal per fact: a count that a result's
``stats``, a span attribute or another counter already carries is not
recorded again, and every metric has a reader (a test, CI, the
``benchmarks/e2e`` harness or ``SpGEMMService.varz()``).  The glossary
in ``docs/OBSERVABILITY.md`` names each metric's reader.

Histograms take one observation at a time (a ``bisect`` into the
bounds); the :data:`NULL_METRICS` singleton makes disabled metrics a
pure no-op.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "DEFAULT_BUCKETS",
]

#: Default histogram bucket upper bounds: nnz-per-16x16-tile resolution
#: (the adaptive-accumulator threshold 192 sits on a boundary on purpose).
DEFAULT_BUCKETS: Tuple[float, ...] = (1, 4, 16, 48, 96, 144, 192, 224, 256)

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format.

    Backslash, double-quote and line-feed are the three characters the
    format requires escaping inside quoted label values; anything else
    passes through verbatim.
    """
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_key(name: str, labels: _LabelKey) -> str:
    if not labels:
        return name
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """A registry of counters, gauges and histograms.

    All update methods take the metric name plus free-form keyword labels
    (``metrics.inc("faults_injected_total", error="oom", site="alloc")``).
    Metric kinds are tracked per name; using one name as two kinds raises.
    Updates and exports take a lock, so pool threads recording one run's
    events can share the registry.
    """

    enabled: bool = True

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, _LabelKey], float] = {}
        self._gauges: Dict[Tuple[str, _LabelKey], float] = {}
        self._hists: Dict[Tuple[str, _LabelKey], Dict[str, Any]] = {}
        self._kinds: Dict[str, str] = {}
        self._help: Dict[str, str] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------- updates
    def _check_kind(self, name: str, kind: str) -> None:
        seen = self._kinds.setdefault(name, kind)
        if seen != kind:
            raise ValueError(f"metric {name!r} already registered as a {seen}")

    def describe(self, name: str, help_text: str) -> None:
        """Attach a HELP string rendered in the Prometheus export."""
        self._help[name] = help_text

    def inc(self, name: str, value: float = 1, **labels: Any) -> None:
        """Add ``value`` (default 1) to counter ``name``."""
        if value < 0:
            raise ValueError(f"counter {name!r} cannot decrease (value={value})")
        key = (name, _label_key(labels))
        with self._lock:
            self._check_kind(name, "counter")
            self._counters[key] = self._counters.get(key, 0) + value

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set gauge ``name`` to ``value``."""
        with self._lock:
            self._check_kind(name, "gauge")
            self._gauges[(name, _label_key(labels))] = value

    def max_gauge(self, name: str, value: float, **labels: Any) -> None:
        """Raise gauge ``name`` to ``value`` if larger (peak tracking)."""
        key = (name, _label_key(labels))
        with self._lock:
            self._check_kind(name, "gauge")
            if value > self._gauges.get(key, float("-inf")):
                self._gauges[key] = value

    def observe(
        self,
        name: str,
        value: float,
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: Any,
    ) -> None:
        """Record one observation into histogram ``name``.

        The value lands in the first bucket whose bound is ``>=`` it
        (``+inf`` bucket last), as ``bisect_left`` places it; NaN, which
        compares false with every bound, lands in the first bucket.  The
        running ``sum`` adds the values in arrival order.
        """
        value = float(value)
        key = (name, _label_key(labels))
        with self._lock:
            self._check_kind(name, "histogram")
            hist = self._hists.get(key)
            if hist is None:
                hist = {
                    "buckets": tuple(float(b) for b in buckets),
                    "counts": [0] * (len(buckets) + 1),  # +inf bucket last
                    "sum": 0.0,
                    "count": 0,
                }
                self._hists[key] = hist
            i = 0 if value != value else bisect.bisect_left(hist["buckets"], value)
            hist["counts"][i] += 1
            hist["sum"] += value
            hist["count"] += 1

    # ------------------------------------------------------------- queries
    def counter_value(self, name: str, **labels: Any) -> float:
        """Current value of a counter (0 if never incremented)."""
        return self._counters.get((name, _label_key(labels)), 0)

    def gauge_value(self, name: str, **labels: Any) -> Optional[float]:
        """Current gauge value, or ``None`` if never set."""
        return self._gauges.get((name, _label_key(labels)))

    def counter_samples(self, name: str) -> List[Tuple[Dict[str, str], float]]:
        """All label sets of counter ``name`` with their values."""
        with self._lock:
            items = sorted(self._counters.items())
        return [(dict(lk), float(v)) for (n, lk), v in items if n == name]

    def gauge_samples(self, name: str) -> List[Tuple[Dict[str, str], float]]:
        """All label sets of gauge ``name`` with their values."""
        with self._lock:
            items = sorted(self._gauges.items())
        return [(dict(lk), float(v)) for (n, lk), v in items if n == name]

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Deterministic plain-dict view of every metric.

        Keys are ``name`` or ``name{label="value",...}`` with labels
        sorted; top-level sections are ``counters``, ``gauges`` and
        ``histograms``.  Two runs with identical event streams produce
        equal snapshots — the comparability property the resilience
        tests pin down under a seeded fault plan.
        """
        with self._lock:
            return self._snapshot()

    def _snapshot(self) -> Dict[str, Dict[str, Any]]:
        from repro.obs.native import to_native

        # Coerce values to native types at export time: a counter bumped
        # with an ``np.int64`` must not leak a NumPy scalar into JSON.
        counters = {
            _render_key(n, lk): to_native(v)
            for (n, lk), v in sorted(self._counters.items())
        }
        gauges = {
            _render_key(n, lk): to_native(v)
            for (n, lk), v in sorted(self._gauges.items())
        }
        hists = {}
        for (n, lk), h in sorted(self._hists.items()):
            hists[_render_key(n, lk)] = {
                "buckets": {str(b): int(c) for b, c in zip(h["buckets"], h["counts"])}
                | {"+Inf": int(h["counts"][-1])},
                "sum": to_native(h["sum"]),
                "count": int(h["count"]),
            }
        return {"counters": counters, "gauges": gauges, "histograms": hists}

    # ------------------------------------------------------------- export
    def to_prometheus(self) -> str:
        """Render the Prometheus text exposition format (v0.0.4)."""
        with self._lock:
            return self._to_prometheus()

    def _to_prometheus(self) -> str:
        lines: List[str] = []
        by_name: Dict[str, List[Tuple[_LabelKey, float]]] = {}
        for (n, lk), v in self._counters.items():
            by_name.setdefault(n, []).append((lk, v))
        for name in sorted(by_name):
            if name in self._help:
                lines.append(f"# HELP {name} {self._help[name]}")
            lines.append(f"# TYPE {name} counter")
            for lk, v in sorted(by_name[name]):
                lines.append(f"{_render_key(name, lk)} {_num(v)}")
        by_name = {}
        for (n, lk), v in self._gauges.items():
            by_name.setdefault(n, []).append((lk, v))
        for name in sorted(by_name):
            if name in self._help:
                lines.append(f"# HELP {name} {self._help[name]}")
            lines.append(f"# TYPE {name} gauge")
            for lk, v in sorted(by_name[name]):
                lines.append(f"{_render_key(name, lk)} {_num(v)}")
        hist_by_name: Dict[str, List[Tuple[_LabelKey, Dict[str, Any]]]] = {}
        for (n, lk), h in self._hists.items():
            hist_by_name.setdefault(n, []).append((lk, h))
        for name in sorted(hist_by_name):
            # One TYPE line per metric family (not per label set), then the
            # bucket series; the _sum/_count series get their own TYPE/HELP
            # header so scrapers that treat them as standalone series see
            # them typed (they are cumulative, i.e. counters).
            if name in self._help:
                lines.append(f"# HELP {name} {self._help[name]}")
            lines.append(f"# TYPE {name} histogram")
            label_sets = sorted(hist_by_name[name])
            for lk, h in label_sets:
                cumulative = 0
                for bound, c in zip(h["buckets"], h["counts"]):
                    cumulative += c
                    key = _render_key(f"{name}_bucket", lk + (("le", _num(bound)),))
                    lines.append(f"{key} {cumulative}")
                cumulative += h["counts"][-1]
                key = _render_key(f"{name}_bucket", lk + (("le", "+Inf"),))
                lines.append(f"{key} {cumulative}")
            for suffix, render in (
                ("_sum", lambda h: _num(h["sum"])),
                ("_count", lambda h: str(h["count"])),
            ):
                if name in self._help:
                    lines.append(
                        f"# HELP {name}{suffix} {self._help[name]} ({suffix[1:]} of observations)"
                    )
                lines.append(f"# TYPE {name}{suffix} counter")
                for lk, h in label_sets:
                    lines.append(f"{_render_key(name + suffix, lk)} {render(h)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def write(self, path) -> None:
        """Write :meth:`to_prometheus` to ``path``."""
        with open(path, "w") as fh:
            fh.write(self.to_prometheus())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, histograms={len(self._hists)})"
        )


def _num(v: float) -> str:
    """Render a number the way Prometheus likes (ints without the dot)."""
    f = float(v)
    return str(int(f)) if f.is_integer() else repr(f)


class NullMetrics:
    """The disabled registry: every method is a no-op."""

    enabled: bool = False

    def describe(self, name: str, help_text: str) -> None:
        pass

    def inc(self, name: str, value: float = 1, **labels: Any) -> None:
        pass

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        pass

    def max_gauge(self, name: str, value: float, **labels: Any) -> None:
        pass

    def observe(self, name: str, value: float, **kwargs: Any) -> None:
        pass

    def counter_value(self, name: str, **labels: Any) -> float:
        return 0

    def gauge_value(self, name: str, **labels: Any) -> Optional[float]:
        return None

    def counter_samples(self, name: str) -> List[Tuple[Dict[str, str], float]]:
        return []

    def gauge_samples(self, name: str) -> List[Tuple[Dict[str, str], float]]:
        return []

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def to_prometheus(self) -> str:
        return ""


#: Singleton used by the default (disabled) observability context.
NULL_METRICS = NullMetrics()
