"""Export safety of the telemetry sinks: NumPy values never crash an export.

Span attributes and metric values routinely pick up NumPy scalars; the
tracer's Chrome-trace writer and the metrics registry's snapshot and
Prometheus text coerce them to JSON-native Python types on the way out.
"""

from __future__ import annotations

import json

import numpy as np

from repro.obs import MetricsRegistry, Tracer, to_native


class TestNativeCoercionAtExport:
    def test_trace_write_survives_numpy_args(self, tmp_path):
        tracer = Tracer()
        with tracer.span("s", nnz=np.int64(7), t=np.float32(0.5)):
            tracer.counter("c", np.int64(3))
        path = tmp_path / "t.json"
        tracer.write(path)
        doc = json.loads(path.read_text())
        span = next(e for e in doc["traceEvents"] if e.get("name") == "s")
        assert span["args"]["nnz"] == 7

    def test_metrics_exports_survive_numpy_values(self):
        m = MetricsRegistry()
        m.inc("kernel_nnz_total", np.int64(12))
        m.set_gauge("queue_depth", np.int64(3), tenant="t0")
        m.observe("lat_seconds", np.float64(0.25))
        snap = m.snapshot()
        assert snap["counters"]["kernel_nnz_total"] == 12
        assert type(snap["counters"]["kernel_nnz_total"]) is int
        text = m.to_prometheus()
        assert "kernel_nnz_total 12" in text
        # Every snapshot leaf is JSON-native.
        json.dumps(snap)

    def test_to_native_recurses(self):
        out = to_native({"a": np.int64(1), "b": [np.float64(2.0), (3,)]})
        assert out == {"a": 1, "b": [2.0, [3]]}
        assert type(out["a"]) is int
