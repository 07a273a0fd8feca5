"""The exported metric families are an explicit, reviewed set.

The registry holds one signal per fact (``docs/OBSERVABILITY.md``,
"Counter glossary"): a count that a result's ``stats``, a span
attribute or another counter already carries is not recorded again,
and every family has a reader.  This file pins the families — name and
Prometheus type — that a seeded serve burst and a budgeted, re-splitting
CLI run export, so a signal added later changes this file in review.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.cli import main
from repro.formats.mtx import write_mtx
from repro.matrices.generators import banded
from repro.obs import make_obs, obs_context
from repro.runtime.tilecache import reset_tile_cache
from repro.serve.loadgen import make_workload, run_closed_loop
from repro.serve.service import SpGEMMService

#: One multiply's work record, made once from its result.
WORK = {
    ("tilespgemm_runs_total", "counter"),
    ("backend_runs_total", "counter"),
    ("tile_pairs_matched_total", "counter"),
    ("atomic_or_ops_total", "counter"),
    ("atomic_add_ops_total", "counter"),
    ("accumulator_tiles_total", "counter"),
    ("c_nnz_total", "counter"),
    # an event counter, recorded where each allocation happens
    ("device_alloc_events_total", "counter"),
}

SERVE = WORK | {
    ("serve_requests_total", "counter"),
    ("serve_outcomes_total", "counter"),
    ("serve_queue_high_water", "gauge"),
    ("serve_latency_seconds", "histogram"),
    ("serve_latency_seconds_sum", "counter"),
    ("serve_latency_seconds_count", "counter"),
    ("tilecache_hits_total", "counter"),
    ("tilecache_misses_total", "counter"),
}

CLI = {
    # inline ranges re-split on one worker
    "1": WORK | {
        ("parallel_batches_total", "counter"),
        ("parallel_resplits_total", "counter"),
    },
    # pooled shards re-split on two
    "2": WORK | {
        ("parallel_runs_total", "counter"),
        ("parallel_shards_total", "counter"),
        ("parallel_workers", "gauge"),
        ("parallel_shard_seconds_total", "counter"),
        ("parallel_resplits_total", "counter"),
    },
}


def _families(prometheus_text: str):
    """``(name, type)`` of every ``# TYPE`` line of an exposition."""
    out = set()
    for line in prometheus_text.splitlines():
        if line.startswith("# TYPE "):
            name, kind = line[len("# TYPE "):].split()
            out.add((name, kind))
    return out


def test_serve_burst_exports_exactly_the_kept_families():
    reset_tile_cache()
    workload = make_workload(8, n=128, nnz_per_row=8.0, seed=7)

    async def drive():
        async with SpGEMMService(max_queue_depth=32, workers=2) as service:
            return service, await run_closed_loop(service, workload, tenants=2)

    obs = make_obs()
    with obs_context(tracer=obs.tracer, metrics=obs.metrics, profile=obs.profile):
        service, report = asyncio.run(drive())
    assert report.outcomes.get("served") == len(workload)
    assert _families(obs.metrics.to_prometheus()) == SERVE
    # Raised only at admission, the gauge still reads the queue's peak.
    assert obs.metrics.gauge_value("serve_queue_high_water") == service.queue_high_water


@pytest.mark.parametrize("workers", sorted(CLI))
def test_resplitting_cli_run_exports_exactly_the_kept_families(
    workers, tmp_path, capsys
):
    path = tmp_path / "banded.mtx"
    write_mtx(str(path), banded(3000, 12, seed=7))
    prom = tmp_path / "m.prom"
    argv = ["--workers", workers, "--memory-budget", "40K", "--metrics", str(prom)]
    assert main(argv + [str(path)]) == 0
    assert "recovered: resplits=" in capsys.readouterr().out
    assert _families(prom.read_text()) == CLI[workers]
