"""The workload profiler.

Contracts under test:

* recording — one ``tile_spgemm`` run inside a profiling context fills
  phases, totals, tnnz decisions and tile-row bands;
* serialisation — the full ``repro.profile/1`` artifact round-trips
  through plain ``json.dumps`` (no custom ``default=``),
  :func:`validate_profile` rejects malformed documents naming the path,
  and older bench documents load unedited: the checked-in
  ``BENCH_PR3.json`` / ``BENCH_PR4.json`` (per-device ``estimates``) and
  a series shape that embeds a profile still carrying the retired
  ``calibration`` list;
* one record per multiply — a pooled run records once, from its
  stitched result, and its workload equals the serial run's byte for
  byte;
* tile-cache telemetry — lookups feed the ambient metrics registry;
* the ``repro obs profile`` CLI.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.core import TileMatrix, tile_spgemm
from repro.errors import InvalidInputError
from repro.obs import (
    MetricsRegistry,
    WorkloadProfiler,
    load_profile,
    obs_context,
    render_profile,
    validate_profile,
    write_profile,
)
from repro.obs.profile import NULL_PROFILER
from repro.runtime.parallel import parallel_tile_spgemm
from tests.conftest import random_csr


def _tiled(n=96, density=0.06, seed=11):
    return TileMatrix.from_csr(random_csr(n, n, density, seed=seed))


def _workload_bytes(profiler: WorkloadProfiler) -> bytes:
    return json.dumps(profiler.workload(), sort_keys=True).encode()


# ------------------------------------------------------------------ record
class TestRecording:
    def test_one_run_fills_every_section(self):
        a = _tiled()
        profiler = WorkloadProfiler()
        with obs_context(profile=profiler):
            result = tile_spgemm(a, a)
        assert profiler.runs == 1
        assert set(profiler.phases) >= {"step1", "step2", "step3"}
        assert profiler.totals["products"] == int(result.stats["num_products"])
        assert profiler.totals["nnz_c"] == int(result.stats["nnz_c"])
        assert profiler.bands, "tile-row bands attributed"
        # Band counts sum back to the totals (no work lost or invented).
        assert sum(b["products"] for b in profiler.bands.values()) == (
            profiler.totals["products"]
        )
        assert sum(b["nnz_c"] for b in profiler.bands.values()) == (
            profiler.totals["nnz_c"]
        )
        # The tnnz threshold decision was captured.
        assert profiler.tnnz
        (decision,) = profiler.tnnz.values()
        assert decision["sparse_tiles"] + decision["dense_tiles"] == (
            profiler.totals["num_c_tiles"]
        )

    def test_disabled_context_records_nothing(self):
        a = _tiled(n=48)
        tile_spgemm(a, a)  # default ambient context: the null profiler
        assert vars(NULL_PROFILER) == {}  # it keeps no state at all
        assert NULL_PROFILER.summary() == {}


# -------------------------------------------------------------- serialise
class TestArtifact:
    def test_full_artifact_roundtrips_without_custom_default(self, tmp_path):
        """Satellite contract: plain ``json.dumps``, no ``default=``."""
        from repro.gpu import DEVICES, estimate_run

        a_csr = random_csr(96, 96, 0.06, seed=11)
        profiler = WorkloadProfiler()
        with obs_context(profile=profiler):
            from repro.baselines import get_algorithm

            result = get_algorithm("tilespgemm")(a_csr, a_csr)
            estimate_run(result, DEVICES["rtx3090"])
        doc = profiler.to_dict()
        assert "calibration" not in doc
        text = json.dumps(doc)  # would raise TypeError on any numpy scalar
        assert json.loads(text) == doc
        path = tmp_path / "profile.json"
        write_profile(doc, path)
        loaded = load_profile(path)
        assert loaded == doc
        assert "workload profile" in render_profile(loaded)

    @pytest.mark.parametrize(
        "path",
        [Path(__file__).parent.parent / name for name in ("BENCH_PR3.json", "BENCH_PR4.json")],
        ids=lambda p: p.name,
    )
    def test_history_snapshots_still_load(self, path):
        from repro.bench.schema import load_document

        doc = load_document(path)
        assert doc["series"] and all("estimates" in s for s in doc["series"])
        profiles = [s["profile"] for s in doc["series"] if "profile" in s]
        for embedded in profiles:
            assert validate_profile(embedded) is embedded

    def test_series_with_embedded_profile_and_calibration_still_load(self, tmp_path):
        """Older ``bench run`` series embedded a profile (some with the
        retired ``calibration`` list) and per-device ``estimates``."""
        from repro.bench import schema

        a = _tiled(n=48)
        profiler = WorkloadProfiler()
        with obs_context(profile=profiler):
            tile_spgemm(a, a)
        embedded = profiler.to_dict(include_cache=False)
        embedded["calibration"] = [{"method": "tilespgemm", "predicted_s": 1e-5}]
        series = schema.make_series("m", "tilespgemm", "aa", wall_seconds=[0.1])
        series["estimates"] = {"rtx3090": {"seconds": 1e-5, "gflops": 4.0, "kernels": {}}}
        series["profile"] = embedded
        doc = schema.new_document("old", "smoke", warmup=0, repeats=1, seed=0)
        doc["series"] = [series]
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))

        (loaded,) = schema.load_document(path)["series"]
        assert validate_profile(loaded["profile"]) is loaded["profile"]
        assert loaded["estimates"] == series["estimates"]

    def test_validate_rejects_bad_documents(self):
        a = _tiled(n=48)
        profiler = WorkloadProfiler()
        with obs_context(profile=profiler):
            tile_spgemm(a, a)
        good = profiler.to_dict()
        validate_profile(good)

        bad = copy.deepcopy(good)
        bad["schema"] = "repro.profile/999"
        with pytest.raises(InvalidInputError, match=r"\$\.schema"):
            validate_profile(bad)

        bad = copy.deepcopy(good)
        del bad["totals"]["products"]
        with pytest.raises(InvalidInputError, match=r"\$\.totals\.products"):
            validate_profile(bad)

        bad = copy.deepcopy(good)
        bad["bands"][0]["tile_rows"] = [0]
        with pytest.raises(InvalidInputError, match=r"tile_rows"):
            validate_profile(bad)


# ------------------------------------------------------------ pool merge
class TestSpawnBoundaryMerge:
    def test_thread_pool_profiles_sum_to_serial(self):
        """A pooled multiply is one record, made from the stitched
        result, and its workload is the serial run's byte for byte."""
        a = _tiled(n=96, seed=5)
        serial, merged = WorkloadProfiler(), WorkloadProfiler()
        with obs_context(profile=serial):
            tile_spgemm(a, a)
        with obs_context(profile=merged):
            parallel_tile_spgemm(a, a, workers=2, shards=3)
        assert merged.runs == 1  # one multiply, however many shards
        assert _workload_bytes(merged) == _workload_bytes(serial)


# -------------------------------------------------------------- tilecache
class TestTileCacheTelemetry:
    def test_lookups_feed_the_ambient_registry(self):
        from repro.runtime.tilecache import TileCache

        a = random_csr(64, 64, 0.08, seed=2)
        b = random_csr(64, 64, 0.08, seed=3)
        registry = MetricsRegistry()
        cache = TileCache(capacity=1)
        with obs_context(metrics=registry):
            cache.tile(a)  # miss
            cache.tile(a)  # hit
            cache.tile(b)  # miss + evicts a
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 2
        assert cache.stats()["evictions"] == 1
        assert registry.counter_value("tilecache_hits_total") == 1.0
        assert registry.counter_value("tilecache_misses_total") == 2.0
        assert registry.counter_value("tilecache_evictions_total") == 1.0
        def gauge_value(name):
            samples = registry.gauge_samples(name)
            assert samples, name
            return samples[0][1]

        assert gauge_value("tilecache_entries") == 1.0
        assert gauge_value("tilecache_evictions") == 1.0
        assert gauge_value("tilecache_resident_bytes") > 0
        assert cache.stats()["resident_bytes"] > 0

    def test_disabled_context_exports_nothing(self):
        from repro.runtime.tilecache import TileCache

        a = random_csr(32, 32, 0.1, seed=4)
        cache = TileCache()
        cache.tile(a)
        cache.tile(a)
        assert cache.stats()["hits"] == 1  # local counters still work


# -------------------------------------------------------------------- CLI
class TestObsProfileCli:
    @pytest.fixture(scope="class")
    def artifact(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("prof") / "profile.json"
        a = _tiled()
        profiler = WorkloadProfiler()
        with obs_context(profile=profiler):
            tile_spgemm(a, a)
        write_profile(profiler.to_dict(), path)
        return path

    def test_profile_renders_artifact(self, artifact, capsys):
        from repro.obs.cli import obs_main

        assert obs_main(["profile", str(artifact), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "workload profile" in out
        assert "tile-row bands" in out

    def test_profile_json_is_the_artifact(self, artifact, capsys):
        from repro.obs.cli import obs_main

        assert obs_main(["profile", str(artifact), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == validate_profile(doc)

    def test_profile_requires_artifact_or_suite(self, capsys):
        from repro.errors import EXIT_USAGE
        from repro.obs.cli import obs_main

        assert obs_main(["profile"]) == EXIT_USAGE

    def test_profile_missing_artifact_exit_code(self, tmp_path):
        from repro.errors import EXIT_FILE_NOT_FOUND
        from repro.obs.cli import obs_main

        assert obs_main(["profile", str(tmp_path / "no.json")]) == EXIT_FILE_NOT_FOUND

    @pytest.mark.parametrize(
        "argv",
        [["calibrate", "profile.json"], ["top"], ["slo", "--metrics", "x.prom"]],
    )
    def test_removed_subcommands_are_usage_errors(self, argv, capsys):
        from repro.errors import EXIT_USAGE
        from repro.obs.cli import obs_main

        with pytest.raises(SystemExit) as exc:
            obs_main(argv)
        assert exc.value.code == EXIT_USAGE
