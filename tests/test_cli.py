"""Tests for the artifact-style command line interface."""

import pytest

from repro.cli import main
from repro.core import TileMatrix, tile_spgemm
from repro.errors import (
    EXIT_EXHAUSTED,
    EXIT_FILE_NOT_FOUND,
    EXIT_INVALID_INPUT,
    EXIT_OOM,
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

    def test_budget_oom_exit_code(self, mtx_file, capsys):
        # One worker: the serial kernel, no recovery.
        assert main(["--workers", "1", "--memory-budget", "1K", mtx_file]) == EXIT_OOM
        err = self._assert_one_line_error(capsys)
        assert "OOM" in err

    def test_sharded_run_recovers_from_budget(self, mtx_file, capsys):
        # The sharded engine halves an over-budget shard instead of dying.
        a = TileMatrix.from_csr(read_mtx(mtx_file).to_csr())
        peak = tile_spgemm(a, a).alloc.peak_bytes
        budget = str(int(peak * 0.6))
        assert main(["--workers", "2", "--memory-budget", budget, mtx_file]) == 0
        assert "check passed: yes" in capsys.readouterr().out

    def test_sharded_run_exhausts_on_hopeless_budget(self, mtx_file, capsys):
        # Not even one tile row fits: recovery runs out of road.
        assert main(["--workers", "2", "--memory-budget", "1K", mtx_file]) == EXIT_EXHAUSTED
        err = self._assert_one_line_error(capsys)
        assert "cannot split further" in err

    def test_bad_budget_is_usage_error(self, mtx_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["--memory-budget", "lots", mtx_file])
        assert excinfo.value.code == 2

    def test_resilient_exhausted_exit_code(self, tmp_path, capsys):
        # A budget too small for even a single tile row defeats chunking
        # and the fallbacks alike.
        path = tmp_path / "a.mtx"
        write_mtx(path, random_csr(60, 60, 0.1, seed=191))
        assert main(["--memory-budget", "64", "--resilient", str(path)]) == EXIT_EXHAUSTED
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
        assert main(["--metrics", str(prom), mtx_file]) == 0
        text = prom.read_text()
        assert "# TYPE atomic_add_ops_total counter" in text
        assert "accumulator_tiles_total{kind=" in text
        # the main run plus the cost-model adapter's run
        assert "tilespgemm_runs_total 2" in text

    def test_trace_written_even_when_run_fails(self, mtx_file, tmp_path, capsys):
        trace = tmp_path / "t.json"
        assert (
            main(["--workers", "1", "--memory-budget", "1K", "--trace", str(trace), mtx_file])
            == EXIT_OOM
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

        assert main(["--json", "--resilient", mtx_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        res = doc["resilience"]
        assert res["method"] == "tilespgemm"
        assert res["attempts"] >= 1
        assert res["failed_attempts"] == 0
        assert res["retries"] == 0 and res["fallbacks"] == 0
        assert res["degraded"] is False

    def test_json_with_metrics_embeds_snapshot(self, mtx_file, tmp_path, capsys):
        import json

        prom = tmp_path / "m.prom"
        assert main(["--json", "--metrics", str(prom), mtx_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["metrics"]["counters"]["tilespgemm_runs_total"] >= 1


class TestCLIResilient:
    def test_resilient_no_faults(self, mtx_file, capsys):
        assert main(["--resilient", mtx_file]) == 0
        out = capsys.readouterr().out
        assert "resilient run: method=tilespgemm" in out
        assert "degraded=no" in out
        assert "check passed: yes" in out

    def test_resilient_recovers_from_budget(self, mtx_file, capsys):
        # Measure the unbudgeted peak, then re-run under ~60 % of it: the
        # resilient runtime must chunk and still pass the cross-check.
        a = TileMatrix.from_csr(read_mtx(mtx_file).to_csr())
        peak = tile_spgemm(a, a).alloc.peak_bytes
        budget = str(int(peak * 0.6))
        assert main(["--memory-budget", budget, "--resilient", mtx_file]) == 0
        out = capsys.readouterr().out
        assert "resilient run: method=tilespgemm" in out
        assert "batches=" in out
        assert "degraded=no" in out
        assert "check passed: yes" in out
