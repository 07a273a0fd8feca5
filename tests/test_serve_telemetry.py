"""End-to-end serving telemetry: the acceptance scenario of the layer.

A chaos-flavoured serve run on a 2-worker thread pool must yield:

* one merged Chrome trace whose worker-recorded shard spans carry the
  request trace ids and whose parent links all resolve;
* an injected OOM re-split attributed to its request in that trace;
* ``serve_outcomes_total`` counters that account for 100 % of
  submissions once the run drains;
* a ``varz()`` document consistent with the counters.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.obs import MetricsRegistry, Tracer, obs_context
from repro.runtime.faults import FaultPlan
from repro.serve import SpGEMMService
from tests.conftest import random_csr

REQUESTS = 6
TENANTS = 2


def _operands(seed):
    a = random_csr(96, 96, 0.06, seed=seed)
    b = random_csr(96, 96, 0.06, seed=seed + 100)
    return a, b


async def _chaos_burst(service):
    """Submit REQUESTS multiplies, one carrying an injected OOM."""
    tasks = []
    for i in range(REQUESTS):
        a, b = _operands(seed=40 + i)
        plan = FaultPlan(seed=i).oom_at_alloc(at=1) if i == 2 else None
        tasks.append(
            asyncio.ensure_future(
                service.submit(
                    a, b,
                    tenant=f"tenant{i % TENANTS}",
                    fault_plan=plan,
                    backpressure="wait",
                )
            )
        )
    return await asyncio.gather(*tasks)


@pytest.fixture(scope="module")
def chaos_run():
    """One thread-pool chaos run; every test inspects its artifacts."""
    tracer, metrics = Tracer(), MetricsRegistry()

    async def drive():
        service = SpGEMMService(workers=2, max_queue_depth=16)
        async with service:
            responses = await _chaos_burst(service)
            varz = service.varz()
        return responses, varz

    with obs_context(tracer=tracer, metrics=metrics):
        responses, varz = asyncio.run(drive())
    return {
        "responses": responses,
        "varz": varz,
        "tracer": tracer,
        "metrics": metrics,
    }


def _counter_total(metrics, name):
    return sum(v for _, v in metrics.counter_samples(name))


class TestMergedTrace:
    def test_every_request_has_a_trace_id_and_span(self, chaos_run):
        responses = chaos_run["responses"]
        assert len(responses) == REQUESTS
        trace_ids = {r.trace_id for r in responses}
        assert len(trace_ids) == REQUESTS and "" not in trace_ids
        tracer = chaos_run["tracer"]
        request_spans = [
            sp for sp in tracer.spans if sp.cat == "serve.request"
        ]
        assert {sp.args["trace_id"] for sp in request_spans} == trace_ids

    def test_worker_spans_carry_request_trace_ids(self, chaos_run):
        tracer = chaos_run["tracer"]
        worker_spans = [sp for sp in tracer.spans if sp.pid == "serve.workers"]
        assert worker_spans, "pool threads shipped spans back"
        request_ids = {r.trace_id for r in chaos_run["responses"]}
        assert {sp.args["trace_id"] for sp in worker_spans} <= request_ids
        # Pool-thread tracks, not the coordinator's.
        assert all(
            sp.tid.startswith("repro-shard") for sp in worker_spans
        )

    def test_all_parent_links_resolve(self, chaos_run):
        tracer = chaos_run["tracer"]
        known = {
            sp.args["span_id"] for sp in tracer.spans if "span_id" in sp.args
        }
        dangling = [
            sp.args["parent_span_id"]
            for sp in tracer.spans
            if sp.args.get("parent_span_id")
            and sp.args["parent_span_id"] not in known
        ]
        assert dangling == []

    def test_trace_file_is_valid_and_merged(self, chaos_run, tmp_path):
        from repro.analysis.profiling import validate_chrome_trace

        path = tmp_path / "trace.json"
        chaos_run["tracer"].write(path)
        doc = json.loads(path.read_text())
        validate_chrome_trace(doc)
        pids = {
            e["pid"] for e in doc["traceEvents"] if e.get("ph") == "X"
        }
        assert "serve.workers" in pids and "serve" in pids

    def test_oom_resplit_is_tied_to_its_request(self, chaos_run):
        request_spans = [
            sp for sp in chaos_run["tracer"].spans if sp.cat == "serve.request"
        ]
        resplit = [sp for sp in request_spans if sp.args["resplits"] > 0]
        assert len(resplit) == 1, "only the request with the injected OOM"
        request_ids = {r.trace_id for r in chaos_run["responses"]}
        assert resplit[0].args["trace_id"] in request_ids


class TestAccounting:
    def test_registry_accounts_for_all_submissions(self, chaos_run):
        metrics = chaos_run["metrics"]
        assert _counter_total(metrics, "serve_requests_total") == REQUESTS
        assert _counter_total(metrics, "serve_outcomes_total") == REQUESTS

    def test_varz_document(self, chaos_run):
        varz = chaos_run["varz"]
        assert varz["workers"] == 2
        assert sum(varz["requests_total"].values()) == REQUESTS
        outcome_total = sum(
            v
            for per_tenant in varz["outcomes_total"].values()
            for v in per_tenant.values()
        )
        assert outcome_total == REQUESTS
        json.dumps(varz)  # native types end to end
