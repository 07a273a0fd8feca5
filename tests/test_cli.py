"""Tests for the artifact-style command line interface."""

import pytest

from repro.cli import main
from repro.core import TileMatrix, tile_spgemm
from repro.errors import (
    EXIT_CONFIG,
    EXIT_EXHAUSTED,
    EXIT_FILE_NOT_FOUND,
    EXIT_INVALID_INPUT,
    EXIT_USAGE,
)
from repro.formats.mtx import read_mtx, write_mtx
from tests.conftest import random_csr


@pytest.fixture
def mtx_file(tmp_path):
    path = tmp_path / "a.mtx"
    write_mtx(path, random_csr(60, 60, 0.1, seed=191))
    return str(path)


class TestCLI:
    def test_a_squared_succeeds(self, mtx_file, capsys):
        assert main(["-d", "0", "-aat", "0", mtx_file]) == 0
        out = capsys.readouterr().out
        assert "rows = 60, cols = 60" in out
        assert "tile size: 16 x 16" in out
        assert "check passed: yes" in out
        assert "step3 time:" in out
        assert "number of nonzeros of C:" in out

    def test_aat_mode(self, mtx_file, capsys):
        assert main(["-aat", "1", mtx_file]) == 0
        assert "check passed: yes" in capsys.readouterr().out

    def test_device_selection(self, mtx_file, capsys):
        assert main(["-d", "1", mtx_file]) == 0
        assert "RTX 3090" in capsys.readouterr().out

    def test_bad_device(self, mtx_file):
        assert main(["-d", "7", mtx_file]) == 2

    def test_module_invocation(self, mtx_file):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", mtx_file],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0
        assert "check passed: yes" in proc.stdout


class TestCLIErrorHandling:
    """One distinct exit code and a one-line stderr message per error class."""

    def _assert_one_line_error(self, capsys):
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) <= 2  # error line (+ faults note)
        return err

    def test_missing_file(self, tmp_path, capsys):
        assert main([str(tmp_path / "missing.mtx")]) == EXIT_FILE_NOT_FOUND
        err = self._assert_one_line_error(capsys)
        assert "not found" in err

    def test_malformed_header(self, tmp_path, capsys):
        path = tmp_path / "bad.mtx"
        path.write_text("not a MatrixMarket file\n1 1 1\n1 1 1.0\n")
        assert main([str(path)]) == EXIT_INVALID_INPUT
        err = self._assert_one_line_error(capsys)
        assert "MatrixMarket" in err

    def test_garbage_entries(self, tmp_path, capsys):
        path = tmp_path / "garbage.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1.0\nx y z\n"
        )
        assert main([str(path)]) == EXIT_INVALID_INPUT
        self._assert_one_line_error(capsys)

    def test_truncated_entries(self, tmp_path, capsys):
        path = tmp_path / "short.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n3 3 5\n1 1 1.0\n")
        assert main([str(path)]) == EXIT_INVALID_INPUT
        self._assert_one_line_error(capsys)

    def test_dimension_mismatch(self, tmp_path, capsys):
        path = tmp_path / "rect.mtx"
        write_mtx(path, random_csr(40, 30, 0.1, seed=7))
        assert main([str(path)]) == EXIT_INVALID_INPUT
        err = self._assert_one_line_error(capsys)
        assert "dimension mismatch" in err

    def test_rectangular_ok_with_aat(self, tmp_path, capsys):
        path = tmp_path / "rect.mtx"
        write_mtx(path, random_csr(40, 30, 0.1, seed=7))
        assert main(["-aat", "1", str(path)]) == 0
        assert "check passed: yes" in capsys.readouterr().out

    def test_budget_oom_exit_code(self, mtx_file, capsys, monkeypatch):
        # One execution path whatever REPRO_WORKERS says: an OOM re-splits,
        # and a tile row that still does not fit exhausts the recovery.
        for workers in ("1", "2"):
            monkeypatch.setenv("REPRO_WORKERS", workers)
            assert main(["--memory-budget", "1K", mtx_file]) == EXIT_EXHAUSTED
            err = self._assert_one_line_error(capsys)
            assert "cannot split further" in err, workers

    def test_sharded_run_recovers_from_budget(self, mtx_file, capsys):
        # The shard engine halves an over-budget shard instead of dying,
        # inline on one worker and on a pool alike.
        a = TileMatrix.from_csr(read_mtx(mtx_file).to_csr())
        peak = tile_spgemm(a, a).alloc.peak_bytes
        budget = str(int(peak * 0.6))
        for workers in ("1", "2"):
            assert main(["--workers", workers, "--memory-budget", budget, mtx_file]) == 0
            assert "check passed: yes" in capsys.readouterr().out, workers

    def test_sharded_run_exhausts_on_hopeless_budget(self, mtx_file, capsys):
        # Not even one tile row fits: recovery runs out of road.
        for workers in ("1", "2"):
            args = ["--workers", workers, "--memory-budget", "1K", mtx_file]
            assert main(args) == EXIT_EXHAUSTED
            err = self._assert_one_line_error(capsys)
            assert "cannot split further" in err, workers

    def test_bad_budget_is_usage_error(self, mtx_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["--memory-budget", "lots", mtx_file])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("name", ["no-such-backend", "fragment"])
    def test_unknown_backend_flag_is_usage_error(self, name, mtx_file, capsys):
        assert main(["--backend", name, mtx_file]) == EXIT_USAGE
        err = self._assert_one_line_error(capsys)
        assert "'numpy'" in err and "'pyloops'" in err

    @pytest.mark.parametrize("name", ["no-such-backend", "fragment"])
    def test_unknown_backend_env_is_config_error(
        self, name, mtx_file, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_BACKEND", name)
        assert main(["--workers", "1", mtx_file]) == EXIT_CONFIG
        assert "REPRO_BACKEND" in self._assert_one_line_error(capsys)

    def test_exact_flag_is_gone(self, mtx_file):
        for flag in ("--exact", "--resilient", "--executor thread"):
            with pytest.raises(SystemExit) as excinfo:
                main([*flag.split(), mtx_file])
            assert excinfo.value.code == EXIT_USAGE, flag

    def test_resilient_exhausted_exit_code(self, tmp_path, capsys):
        # A budget too small for even a single tile row defeats the
        # re-split of the default run.
        path = tmp_path / "a.mtx"
        write_mtx(path, random_csr(60, 60, 0.1, seed=191))
        assert main(["--memory-budget", "64", str(path)]) == EXIT_EXHAUSTED
        self._assert_one_line_error(capsys)


class TestCLIObservability:
    def test_trace_flag_writes_valid_chrome_trace(self, mtx_file, tmp_path, capsys):
        from repro.analysis.profiling import breakdown_from_trace, load_chrome_trace

        trace = tmp_path / "t.json"
        assert main(["--trace", str(trace), mtx_file]) == 0
        doc = load_chrome_trace(str(trace))  # validates the schema
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"tile_spgemm", "step1", "step2", "step3"} <= names
        bd = breakdown_from_trace(doc)
        assert sum(bd.values()) > 0

    def test_metrics_flag_writes_prometheus(self, mtx_file, tmp_path, capsys):
        prom = tmp_path / "m.prom"
        assert main(["--workers", "1", "--metrics", str(prom), mtx_file]) == 0
        text = prom.read_text()
        assert "# TYPE atomic_add_ops_total counter" in text
        assert "accumulator_tiles_total{kind=" in text
        # one multiply: the cost model prices the run itself
        assert "tilespgemm_runs_total 1" in text

    def test_multi_shard_run_multiplies_once_and_prices_as_serial(self, tmp_path, capsys):
        # The stitched result is priced as the one serial run it equals,
        # so the GPU estimate is the one-worker run's, without a second
        # multiply.
        from repro.matrices.generators import banded

        path = tmp_path / "banded.mtx"
        write_mtx(str(path), banded(120, 8))
        estimates = {}
        for workers in ("1", "2"):
            prom = tmp_path / f"m{workers}.prom"
            assert main(["--workers", workers, "--metrics", str(prom), str(path)]) == 0
            out = capsys.readouterr().out
            estimates[workers] = [ln for ln in out.splitlines() if ln.startswith("estimated")]
            assert "tilespgemm_runs_total 1\n" in prom.read_text()
        assert "parallel run: workers=2" in out
        assert len(estimates["1"]) == 2
        assert estimates["2"] == estimates["1"]

    def test_cross_check_stays_out_of_the_run_counters(self, tmp_path, capsys):
        # The `check passed` cross-check keeps its span in the trace, but
        # its ledger is not the run's: the counters read the multiply's
        # seven device buffers alone.
        from repro.analysis.profiling import load_chrome_trace
        from repro.matrices.generators import banded

        path = tmp_path / "banded.mtx"
        write_mtx(str(path), banded(120, 8))
        prom, trace = tmp_path / "m.prom", tmp_path / "t.json"
        argv = ["--workers", "1", "--metrics", str(prom), "--trace", str(trace)]
        assert main(argv + [str(path)]) == 0
        assert "device_alloc_events_total 7\n" in prom.read_text()
        names = {ev["name"] for ev in load_chrome_trace(str(trace))["traceEvents"]}
        assert "spgemm:nsparse_hash" in names

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_budgeted_run_counts_one_multiply(self, workers, tmp_path, capsys):
        # An OOM re-split run is still one multiply at any worker count,
        # its allocations count once, where the ranges made them, and its
        # re-splits count under the same name.
        from repro.matrices.generators import banded

        path = tmp_path / "banded.mtx"
        write_mtx(str(path), banded(3000, 12, seed=7))
        prom = tmp_path / "m.prom"
        argv = ["--workers", workers, "--memory-budget", "40K", "--metrics", str(prom)]
        assert main(argv + [str(path)]) == 0
        (recovered,) = [
            ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("recovered:")
        ]
        resplits = int(recovered.split("resplits=")[1].split()[0])
        counters = {}
        for line in prom.read_text().splitlines():
            if line and not line.startswith("#"):
                key, value = line.rsplit(" ", 1)
                counters[key] = float(value)
        assert counters["tilespgemm_runs_total"] == 1
        # Inline or pooled, parallel_tile_spgemm counts its recovery
        # under one name.
        assert counters["parallel_resplits_total"] == resplits > 0
        # The allocations the ranges made: seven per range that finished,
        # plus those of ranges that ran out of budget part-way.
        assert counters["device_alloc_events_total"] >= 7 * (resplits + 1)

    def test_trace_written_even_when_run_fails(self, mtx_file, tmp_path, capsys):
        trace = tmp_path / "t.json"
        assert (
            main(["--workers", "1", "--memory-budget", "1K", "--trace", str(trace), mtx_file])
            == EXIT_EXHAUSTED
        )
        from repro.analysis.profiling import load_chrome_trace

        assert load_chrome_trace(str(trace))["traceEvents"]

    def test_profile_flag_prints_report(self, mtx_file, capsys):
        assert main(["--profile", mtx_file]) == 0
        out = capsys.readouterr().out
        assert "top spans by total wall time:" in out
        assert "tile_spgemm" in out

    def test_json_output(self, mtx_file, capsys):
        import json

        assert main(["--json", mtx_file]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)  # stdout is pure JSON
        assert doc["check_passed"] is True
        assert doc["rows"] == 60 and doc["nnz"] > 0
        for phase in ("step1", "step2", "step3"):
            assert doc["phases"][phase]["count"] >= 1
            assert doc["phases"][phase]["seconds"] >= 0

    def test_json_resilient_tallies(self, mtx_file, capsys):
        import json

        assert main(["--json", "--workers", "1", mtx_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["recovery"] == {"resplits": 0, "retries": 0, "backoff_seconds": 0.0}
        assert doc["parallel"] == {"workers": 1, "shards": 1}
        assert "resilience" not in doc

    def test_json_with_metrics_embeds_snapshot(self, mtx_file, tmp_path, capsys):
        import json

        prom = tmp_path / "m.prom"
        assert main(["--workers", "1", "--json", "--metrics", str(prom), mtx_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        counters = doc["metrics"]["counters"]
        assert counters["tilespgemm_runs_total"] == 1
        assert counters["c_nnz_total"] == doc["c"]["nnz"]


class TestCLIResilient:
    def test_resilient_no_faults(self, mtx_file, capsys):
        # A clean one-worker run keeps the artifact's eighteen lines: no
        # parallel line, no recovery line.
        assert main(["--workers", "1", mtx_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 18
        assert not [ln for ln in lines if ln.startswith(("parallel run:", "recovered:"))]
        assert lines[-1] == "check passed: yes"

    def test_resilient_recovers_from_budget(self, mtx_file, capsys):
        # Measure the unbudgeted peak, then re-run under ~60 % of it: the
        # default run must re-split and still pass the cross-check.
        import json

        a = TileMatrix.from_csr(read_mtx(mtx_file).to_csr())
        peak = tile_spgemm(a, a).alloc.peak_bytes
        budget = str(int(peak * 0.6))
        assert main(["--workers", "1", "--memory-budget", budget, mtx_file]) == 0
        out = capsys.readouterr().out
        assert "recovered: resplits=" in out
        assert "check passed: yes" in out
        assert main(["--json", "--workers", "1", "--memory-budget", budget, mtx_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["recovery"]["resplits"] > 0 and doc["recovery"]["retries"] == 0
        assert doc["parallel"]["shards"] == doc["recovery"]["resplits"] + 1
        assert doc["check_passed"] is True
