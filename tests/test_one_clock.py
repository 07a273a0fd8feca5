"""One phase clock: the timer and the trace read one measurement.

Every phase is timed once, by :meth:`repro.util.timing.PhaseTimer.phase`.
Under a live tracer that phase *is* a ``cat="step"`` span and the timer is
credited with the span's own duration, so for every entry point:

* the per-name sums of step-span durations equal ``result.timer.seconds``
  (the modelled ``backoff`` phase is charged without a span);
* :func:`~repro.analysis.profiling.breakdown_from_trace` equals
  :func:`~repro.analysis.breakdown.measured_breakdown` up to the trace
  file's microsecond encoding.

The first holds with ``==``: every duration is a difference of
:func:`time.perf_counter` readings, so all of them lie on one binary grid
and their sums are exact in whatever order a merge adds them.
"""

from __future__ import annotations

import pytest

from repro.analysis.breakdown import measured_breakdown
from repro.analysis.profiling import breakdown_from_trace
from repro.baselines import available_algorithms, get_algorithm
from repro.core.masked import masked_tile_spgemm
from repro.core.tile_matrix import TileMatrix
from repro.matrices import generators
from repro.obs import make_obs, obs_context
from repro.runtime.chunked import chunked_tile_spgemm
from repro.runtime.parallel import parallel_tile_spgemm

#: Modelled phases: charged with ``timer.add``, never measured.
MODELLED = ("backoff",)


@pytest.fixture(scope="module")
def csr():
    return generators.banded(300, 6, seed=3).to_csr()


@pytest.fixture(scope="module")
def tiled(csr):
    return TileMatrix.from_csr(csr)


def step_sums(tracer):
    """Per-name sums of ``cat="step"`` span durations, in end order."""
    sums = {}
    for sp in tracer.spans:
        if sp.cat == "step":
            sums[sp.name] = sums.get(sp.name, 0.0) + sp.duration_s
    return sums


def traced(run):
    obs = make_obs(trace=True, metrics=True, profile=True)
    with obs_context(tracer=obs.tracer, metrics=obs.metrics, profile=obs.profile):
        result = run()
    return obs, result


def assert_one_clock(obs, result):
    measured = {k: v for k, v in result.timer.seconds.items() if k not in MODELLED}
    assert measured, "the run timed no phase"
    assert step_sums(obs.tracer) == measured
    from_trace = breakdown_from_trace(obs.tracer.to_chrome_trace(), strict=True)
    in_process = measured_breakdown(result)
    assert from_trace.keys() == in_process.keys()
    for bucket, seconds in in_process.items():
        assert from_trace[bucket] == pytest.approx(seconds, abs=1e-9), bucket


@pytest.mark.parametrize("name", available_algorithms())
def test_registered_algorithm(name, csr):
    obs, result = traced(lambda: get_algorithm(name)(csr, csr))
    assert_one_clock(obs, result)
    if name == "tilespgemm":
        # the adapter's CSR->tiled conversion is a phase like any other
        assert "format_conversion" in step_sums(obs.tracer)


def test_masked(tiled):
    obs, result = traced(lambda: masked_tile_spgemm(tiled, tiled, tiled))
    assert_one_clock(obs, result)


def test_chunked(tiled):
    obs, result = traced(lambda: chunked_tile_spgemm(tiled, tiled, num_batches=3))
    assert_one_clock(obs, result)


def test_parallel(tiled):
    obs, result = traced(lambda: parallel_tile_spgemm(tiled, tiled, workers=2))
    assert_one_clock(obs, result)
