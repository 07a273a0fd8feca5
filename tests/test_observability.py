"""Tests for the observability layer: tracing, metrics, context, profiling.

Covers the properties the layer promises:

* span nesting/ordering and Chrome trace-event schema validity;
* zero overhead when disabled (instrumentation is O(phases), not O(nnz),
  and a disabled run's numerical output is unchanged);
* deterministic metrics snapshots under a seeded fault plan;
* kernel counters agreeing with ``collect_stats`` ground truth;
* the PhaseTimer's merge semantics.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis.profiling import (
    aggregate_spans,
    breakdown_from_trace,
    load_chrome_trace,
    render_breakdown,
    top_spans_report,
    validate_chrome_trace,
)
from repro.core import TileMatrix, tile_spgemm
from repro.gpu import RTX3060, estimate_run
from repro.obs import (
    NULL_OBS,
    MetricsRegistry,
    NullTracer,
    Tracer,
    current_obs,
    emit_gpu_timeline,
    make_obs,
    obs_context,
)
from repro.runtime import FaultPlan, parallel_tile_spgemm
from repro.util.timing import PhaseTimer
from tests.conftest import random_csr


def fake_clock():
    """A deterministic clock ticking 1 ms per call."""
    state = {"t": 0.0}

    def tick() -> float:
        state["t"] += 1e-3
        return state["t"]

    return tick


def tiled(n=96, density=0.08, seed=5) -> TileMatrix:
    return TileMatrix.from_csr(random_csr(n, n, density, seed=seed))


class TestTracer:
    def test_span_nesting_and_order(self):
        t = Tracer(clock=fake_clock())
        with t.span("outer", cat="step", tiles=4):
            assert t.open_spans == ("outer",)
            with t.span("inner"):
                assert t.open_spans == ("outer", "inner")
        assert t.open_spans == ()
        # spans complete in end order: inner first
        assert [s.name for s in t.spans] == ["inner", "outer"]
        inner, outer = t.spans
        assert inner.depth == 1 and outer.depth == 0
        assert inner.parent_seq == outer.seq
        assert outer.parent_seq == -1
        assert outer.args == {"tiles": 4}
        assert inner.start_s >= outer.start_s
        assert inner.end_s <= outer.end_s

    def test_find_returns_begin_order(self):
        t = Tracer(clock=fake_clock())
        with t.span("phase", k=0):
            pass
        with t.span("wrap"):
            with t.span("phase", k=1):
                pass
        found = t.find("phase")
        assert [s.args["k"] for s in found] == [0, 1]
        assert t.total_seconds("phase") > 0

    def test_span_closes_on_exception(self):
        t = Tracer(clock=fake_clock())
        with pytest.raises(RuntimeError):
            with t.span("boom"):
                raise RuntimeError("x")
        assert t.open_spans == ()
        assert t.find("boom")[0].duration_s > 0

    def test_chrome_trace_schema(self, tmp_path):
        t = Tracer(clock=fake_clock())
        with t.span("step1", cat="step"):
            t.instant("fault", cat="fault", site="alloc")
            t.counter("live_bytes", 128)
        t.add_complete("k.task", 0.0, 1e-4, pid="virtual-gpu", tid="slot 00")
        doc = t.to_chrome_trace()
        events = validate_chrome_trace(doc)  # raises on schema violation
        assert doc["displayTimeUnit"] == "ms"
        phases = {e["ph"] for e in events}
        assert phases == {"X", "i", "C", "M"}
        inst = next(e for e in events if e["ph"] == "i")
        assert inst["s"] == "t"
        # one process_name + thread_name metadata pair per track
        tracks = {(e["pid"], e["tid"]) for e in events if e["ph"] != "M"}
        names = [e["name"] for e in events if e["ph"] == "M"]
        assert names.count("process_name") == len(tracks)
        # round-trips through the file loader
        path = tmp_path / "t.json"
        t.write(path)
        assert load_chrome_trace(str(path))["traceEvents"]

    def test_deterministic_structure(self):
        def run():
            t = Tracer(clock=fake_clock())
            a = tiled(64, 0.1, seed=9)
            with obs_context(tracer=t):
                tile_spgemm(a, a)
            return [(s.name, s.cat, s.depth, s.seq) for s in t.spans]

        assert run() == run()


class TestNullTracerOverhead:
    def test_disabled_run_is_o_phases_not_o_nnz(self):
        """Instrumentation call count is independent of problem size."""

        class CountingNull(NullTracer):
            def __init__(self):
                self.calls = 0

            def span(self, name, cat="phase", **attrs):
                self.calls += 1
                return super().span(name, cat, **attrs)

        counts = []
        for n, seed in ((64, 1), (256, 2)):
            nt = CountingNull()
            a = tiled(n, 0.08, seed=seed)
            with obs_context(tracer=nt):
                # context stays disabled (NullTracer subclass), exactly
                # like the default NULL_OBS path
                assert not current_obs().enabled
                tile_spgemm(a, a)
            counts.append(nt.calls)
        assert counts[0] == counts[1]  # O(steps), not O(nnz)
        assert 0 < counts[0] < 20

    def test_disabled_flags_change_no_numerical_output(self):
        a = tiled(80, 0.1, seed=3)
        plain = tile_spgemm(a, a)
        with obs_context(tracer=Tracer(), metrics=MetricsRegistry()):
            traced = tile_spgemm(a, a)
        assert plain.c.to_csr().allclose(traced.c.to_csr())
        assert np.array_equal(plain.c.colidx, traced.c.colidx)

    def test_null_obs_outside_context(self):
        assert current_obs() is NULL_OBS
        assert not NULL_OBS.enabled


class TestObsContext:
    def test_nesting_inherits_parent_sinks(self):
        tracer = Tracer()
        with obs_context(tracer=tracer) as outer:
            assert outer.enabled
            metrics = MetricsRegistry()
            with obs_context(metrics=metrics) as inner:
                assert inner.tracer is tracer  # inherited
                assert inner.metrics is metrics
            assert current_obs().metrics.enabled is False
        assert current_obs() is NULL_OBS

    def test_make_obs_flags(self):
        obs = make_obs(trace=False, metrics=True)
        assert obs.enabled
        assert not obs.tracer.enabled
        assert obs.metrics.enabled


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        m = MetricsRegistry()
        m.inc("ops_total", 3, kind="or")
        m.inc("ops_total", 2, kind="or")
        m.set_gauge("live", 7)
        m.max_gauge("peak", 5)
        m.max_gauge("peak", 3)  # lower: ignored
        for v in (1, 10, 300):
            m.observe("tile_nnz", v, buckets=(4, 100))
        assert m.counter_value("ops_total", kind="or") == 5
        assert m.gauge_value("peak") == 5
        snap = m.snapshot()
        assert snap["counters"] == {'ops_total{kind="or"}': 5}
        hist = snap["histograms"]["tile_nnz"]
        assert hist["count"] == 3 and hist["sum"] == 311
        assert hist["buckets"]["+Inf"] == 1

    @staticmethod
    def _loop_histogram(values, bounds):
        """The per-value reference: ``bisect_left`` and a running sum."""
        import bisect

        counts = [0] * (len(bounds) + 1)
        total = 0.0
        for v in values:
            v = float(v)
            counts[bisect.bisect_left(bounds, v)] += 1
            total += v
        return counts, total

    @pytest.mark.parametrize(
        "values",
        [
            [1, 4, 16, 48, 96, 144, 192, 224, 256],  # every bucket bound
            [0.5, 4.0000001, 3.9999999, 256.5, -3.0],
            [float("inf"), float("-inf"), 2.0],
            [float("nan"), 5.0, float("nan"), 300.0],
            [],
            np.random.default_rng(5).uniform(-10, 300, size=1000),
        ],
        ids=["bounds", "around-bounds", "inf", "nan", "empty", "random"],
    )
    def test_observe_many_matches_per_value_loop(self, values):
        """Many observations, as Python floats or NumPy scalars, land in
        the reference loop's buckets with its running sum, bit for bit."""
        from repro.obs.metrics import DEFAULT_BUCKETS

        bounds = tuple(float(b) for b in DEFAULT_BUCKETS)
        for seq in (list(values), np.asarray(values, dtype=np.float64)):
            m = MetricsRegistry()
            m.observe("h", 7.25)  # a prior observation the rest adds onto
            for v in seq:
                m.observe("h", v)
            counts, total = self._loop_histogram([7.25, *list(values)], bounds)
            hist = m._hists[("h", ())]
            assert hist["counts"] == counts
            assert hist["count"] == len(values) + 1
            assert np.asarray(hist["sum"]).tobytes() == np.asarray(total).tobytes()

    def test_kind_conflict_and_negative_inc_raise(self):
        m = MetricsRegistry()
        m.inc("x")
        with pytest.raises(ValueError):
            m.set_gauge("x", 1)
        with pytest.raises(ValueError):
            m.inc("y", -1)

    def test_prometheus_export(self):
        m = MetricsRegistry()
        m.describe("runs_total", "number of runs")
        m.inc("runs_total", 2)
        m.set_gauge("live_bytes", 42)
        for v in (2, 5, 50):
            m.observe("sizes", v, buckets=(4, 16))
        text = m.to_prometheus()
        assert "# HELP runs_total number of runs" in text
        assert "# TYPE runs_total counter" in text
        assert "runs_total 2" in text
        assert "# TYPE live_bytes gauge" in text
        lines = text.splitlines()
        # histogram buckets are cumulative and end with +Inf == count
        assert 'sizes_bucket{le="4"} 1' in lines
        assert 'sizes_bucket{le="16"} 2' in lines
        assert 'sizes_bucket{le="+Inf"} 3' in lines
        assert "sizes_sum 57" in lines
        assert "sizes_count 3" in lines

    def test_prometheus_label_value_escaping(self):
        """Backslash, quote and newline must be escaped inside label values."""
        m = MetricsRegistry()
        m.inc("weird_total", path='C:\\x\n"q"')
        text = m.to_prometheus()
        assert 'weird_total{path="C:\\\\x\\n\\"q\\""} 1' in text.splitlines()
        # The snapshot keys get the same treatment (diffable text form).
        assert 'weird_total{path="C:\\\\x\\n\\"q\\""}' in m.snapshot()["counters"]

    def test_prometheus_histogram_family_headers(self):
        """One TYPE line per histogram family; _sum/_count typed as counters."""
        m = MetricsRegistry()
        m.describe("tile_nnz", "nnz per tile")
        m.observe("tile_nnz", 3, buckets=(4,), kind="sparse")
        m.observe("tile_nnz", 200, buckets=(4,), kind="dense")
        lines = m.to_prometheus().splitlines()
        assert lines.count("# TYPE tile_nnz histogram") == 1
        assert lines.count("# TYPE tile_nnz_sum counter") == 1
        assert lines.count("# TYPE tile_nnz_count counter") == 1
        # TYPE precedes every series of its family, once.
        assert lines.index("# TYPE tile_nnz histogram") < lines.index(
            'tile_nnz_bucket{kind="dense",le="4"} 0'
        )
        assert 'tile_nnz_count{kind="sparse"} 1' in lines
        assert 'tile_nnz_sum{kind="dense"} 200' in lines
        assert "# HELP tile_nnz_sum nnz per tile (sum of observations)" in lines

    def test_snapshot_deterministic_under_fault_plan(self):
        """Same seeded plan + same input => byte-identical metrics."""

        def run():
            a = tiled(72, 0.1, seed=21)
            plan = FaultPlan(seed=5).inject(
                "transient", "step", probability=0.3
            )
            obs = make_obs(clock=fake_clock())
            with obs_context(tracer=obs.tracer, metrics=obs.metrics):
                res = parallel_tile_spgemm(a, a, workers=1, fault_plan=plan)
            return obs.metrics.snapshot(), res.stats["retries"]

        (snap1, retries1), (snap2, retries2) = run(), run()
        assert retries1 == retries2
        assert json.dumps(snap1, sort_keys=True) == json.dumps(snap2, sort_keys=True)
        assert snap1["counters"].get("parallel_retries_total", 0) == retries1


class TestPipelineInstrumentation:
    def test_step_spans_and_counters_match_stats(self):
        a = tiled(96, 0.1, seed=13)
        obs = make_obs()
        with obs_context(tracer=obs.tracer, metrics=obs.metrics):
            result = tile_spgemm(a, a)
        stats = result.stats
        t, m = obs.tracer, obs.metrics
        # one span per pipeline step, nested under tile_spgemm
        top = t.find("tile_spgemm")[0]
        for step in ("step1", "step2", "step3"):
            spans = t.find(step)
            assert len(spans) == 1
            assert spans[0].parent_seq == top.seq
        # counters mirror collect_stats exactly
        assert m.counter_value("atomic_or_ops_total") == stats["symbolic_ops"]
        assert m.counter_value("atomic_add_ops_total") == stats["num_products"]
        assert (
            m.counter_value("accumulator_tiles_total", kind="sparse")
            == stats["sparse_tiles"]
        )
        assert (
            m.counter_value("accumulator_tiles_total", kind="dense")
            == stats["dense_tiles"]
        )
        assert m.counter_value("tile_pairs_matched_total") == int(
            np.asarray(stats["pairs_per_tile"]).sum()
        )
        # allocation ledger flows into the metrics too
        assert m.counter_value("device_alloc_events_total") == len(
            [e for e in result.alloc.events if e.kind == "alloc"]
        )

    def test_baseline_kernel_spans(self):
        from repro.baselines import get_algorithm

        a = random_csr(64, 64, 0.1, seed=17)
        obs = make_obs(metrics=True)
        with obs_context(tracer=obs.tracer, metrics=obs.metrics):
            result = get_algorithm("nsparse_hash")(a, a)
        t = obs.tracer
        kernel = t.find("spgemm:nsparse_hash")
        assert len(kernel) == 1
        # the timer's phases, malloc included, are step spans nested in
        # the kernel span
        phases = [s for s in t.spans if s.cat == "step"]
        assert all(p.parent_seq == kernel[0].seq for p in phases)
        assert {p.name for p in phases} == set(result.timer.seconds)
        assert "malloc" in result.timer.seconds
        assert len(phases) == sum(result.timer.count(n) for n in result.timer.seconds)
        assert obs.metrics.counter_value("spgemm_calls_total", method="nsparse_hash") == 1

    def test_chunked_batch_spans(self):
        from repro.runtime.chunked import chunked_tile_spgemm

        a = tiled(128, 0.08, seed=23)
        obs = make_obs()
        with obs_context(tracer=obs.tracer, metrics=obs.metrics):
            chunked_tile_spgemm(a, a, num_batches=3)
        assert len(obs.tracer.find("chunked_tile_spgemm")) == 1
        # Inline ranges share parallel_tile_spgemm's namespace.
        batch_spans = [s for s in obs.tracer.spans if s.cat == "parallel.batch"]
        assert len(batch_spans) == 3
        assert obs.metrics.counter_value("parallel_batches_total") == 3

    def test_summa_stage_spans(self):
        from repro.distributed.grid import ProcessGrid
        from repro.distributed.summa import summa_spgemm

        a = random_csr(64, 64, 0.1, seed=29)
        obs = make_obs()
        with obs_context(tracer=obs.tracer, metrics=obs.metrics):
            res = summa_spgemm(a, a, ProcessGrid(2, 2))
        stages = [s for s in obs.tracer.spans if s.cat == "summa.stage"]
        assert len(stages) == res.stages
        assert obs.metrics.counter_value("summa_stages_total") == res.stages
        assert obs.metrics.counter_value("summa_comm_bytes_total") == sum(
            res.per_stage_volume
        )
        # each stage has a broadcast and a multiply child
        for cat in ("summa.comm", "summa.compute"):
            assert len([s for s in obs.tracer.spans if s.cat == cat]) == res.stages

    def test_fault_instants_and_retry_counters(self):
        a = tiled(64, 0.1, seed=31)
        plan = FaultPlan(seed=1).transient_at_step("step2", at=1)
        obs = make_obs()
        with obs_context(tracer=obs.tracer, metrics=obs.metrics):
            res = parallel_tile_spgemm(a, a, workers=1, fault_plan=plan)
        m = obs.metrics
        assert m.counter_value("faults_injected_total", error="transient", site="step") == 1
        # The shard engine's tallies are the one record of the recovery.
        assert m.counter_value("parallel_retries_total") == res.stats["retries"] == 1
        assert m.counter_value("tilespgemm_runs_total") == 1
        names = [e.name for e in obs.tracer.events if e.ph == "i"]
        assert "inject:transient" in names


class TestGpuTimeline:
    def test_virtual_tracks_in_trace(self):
        from repro.baselines import get_algorithm

        a = random_csr(96, 96, 0.08, seed=37)
        run = get_algorithm("tilespgemm")(a, a)
        est = estimate_run(run, RTX3060)
        t = Tracer(clock=fake_clock())
        emit_gpu_timeline(t, est, device=RTX3060)
        doc = t.to_chrome_trace()
        validate_chrome_trace(doc)
        gpu_pids = {s.pid for s in t.spans if s.pid.startswith("virtual-gpu")}
        assert gpu_pids == {f"virtual-gpu ({RTX3060.name})"}
        # one summary span per kernel estimate
        kernel_spans = [s for s in t.spans if s.tid == "kernels"]
        assert len(kernel_spans) >= len(est.kernels)


class TestPhaseTimer:
    def test_nested_phases_double_count_total(self):
        t = PhaseTimer()
        t.add("outer", 2.0)
        t.add("inner", 0.5)  # nested inside outer in real runs
        assert t.total == 2.5  # phase-seconds, not wall-clock

    def test_merge_folds_min_max_and_is_order_deterministic(self):
        def build(a_vals, b_vals):
            t = PhaseTimer()
            for v in a_vals:
                t.add("a", v)
            for v in b_vals:
                t.add("b", v)
            return t

        merged = PhaseTimer()
        merged.add("a", 5.0)
        merged.merge(build([1.0], [2.0]))
        merged.merge(build([3.0], [0.5]))
        assert merged.seconds == {"a": 9.0, "b": 2.5}
        assert merged.count("a") == 3
        # existing phases keep their positions; new ones append
        assert list(merged.seconds) == ["a", "b"]

    def test_negative_add_raises(self):
        with pytest.raises(ValueError):
            PhaseTimer().add("x", -1.0)


class TestProfiling:
    def make_doc(self):
        t = Tracer(clock=fake_clock())
        with t.span("step1", cat="step"):
            pass
        with t.span("step2", cat="step"):
            pass
        with t.span("step2", cat="step"):
            pass
        with t.span("weird_phase", cat="step"):
            pass
        return t.to_chrome_trace()

    def test_aggregate_spans(self):
        agg = aggregate_spans(self.make_doc())
        assert agg["step2"]["count"] == 2
        assert agg["step2"]["seconds"] == pytest.approx(
            agg["step2"]["min_s"] + agg["step2"]["max_s"]
        )

    def test_top_spans_report(self):
        rep = top_spans_report(self.make_doc(), n=2)
        assert "top spans" in rep and "step2" in rep
        assert "... and" in rep  # truncation note
        assert "(no spans recorded)" in top_spans_report({"traceEvents": []})

    def test_breakdown_from_trace(self):
        doc = self.make_doc()
        bd = breakdown_from_trace(doc)
        assert set(bd) == {"step1", "step2", "step3", "malloc"}
        assert bd["step2"] > bd["step1"] > 0
        with pytest.raises(KeyError):
            breakdown_from_trace(doc, strict=True)  # weird_phase unmapped
        out = render_breakdown(bd)
        assert "step2" in out and "%" in out

    def test_validate_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_chrome_trace([])  # not an object
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"ph": "Z", "name": "x"}]})
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "X", "name": "x", "pid": "p", "tid": "t", "ts": 0}]}
            )  # missing dur
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "i", "name": "x", "pid": "p", "tid": "t", "ts": -1}]}
            )
