"""The planner gate's statistics and ``repro bench compare`` (the gate's CLI).

Contracts under test:

* an injected 2x slowdown is flagged as a significant regression;
* two identical runs compare as unchanged at the default noise threshold;
* gate exit codes follow the ``repro.errors`` taxonomy (0 pass,
  9 regression, 4 missing file, 3 malformed document, 2 usage).
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.bench_compare import (
    DEFAULT_NOISE_THRESHOLD,
    classify_samples,
    mann_whitney_u,
)
from repro.bench.cli import bench_main
from repro.bench.schema import write_document
from repro.errors import (
    EXIT_FILE_NOT_FOUND,
    EXIT_INVALID_INPUT,
    EXIT_OK,
    EXIT_REGRESSION,
    EXIT_USAGE,
)
from tests.conftest import planner_doc

BASE_SAMPLES = [1.00, 1.01, 0.99, 1.02, 0.98]


class TestStatistics:
    def test_mann_whitney_separated_samples_significant(self):
        _, p = mann_whitney_u(BASE_SAMPLES, [2 * s for s in BASE_SAMPLES])
        assert p < 0.05

    def test_mann_whitney_identical_samples_not_significant(self):
        _, p = mann_whitney_u(BASE_SAMPLES, BASE_SAMPLES)
        assert p > 0.5

    def test_mann_whitney_fully_tied_is_p_one(self):
        assert mann_whitney_u([1, 1, 1], [1, 1, 1])[1] == 1.0


class TestClassification:
    def test_2x_slowdown_flagged_as_regression(self):
        d = classify_samples(BASE_SAMPLES, [2 * s for s in BASE_SAMPLES])
        assert d.classification == "regressed"
        assert d.significant
        assert d.p_value < 0.05
        assert d.speedup == pytest.approx(0.5, rel=0.05)

    def test_identical_runs_unchanged_at_default_threshold(self):
        d = classify_samples(BASE_SAMPLES, list(BASE_SAMPLES))
        assert d.classification == "unchanged"
        assert not d.significant

    def test_drift_below_noise_threshold_is_unchanged(self):
        shifted = [s * (1 + DEFAULT_NOISE_THRESHOLD / 2) for s in BASE_SAMPLES]
        assert classify_samples(BASE_SAMPLES, shifted).classification == "unchanged"

    def test_speedup_classifies_improved(self):
        d = classify_samples(BASE_SAMPLES, [s / 2 for s in BASE_SAMPLES])
        assert d.classification == "improved" and d.significant
        assert d.speedup == pytest.approx(2.0, rel=0.05)


class TestCliExitCodes:
    """`repro bench compare DOC` exit codes follow the repro.errors taxonomy."""

    def _write(self, tmp_path, name, doc):
        path = tmp_path / name
        write_document(doc, path)
        return str(path)

    def test_gate_exit_9_on_2x_slowdown(self, tmp_path, capsys):
        doc = planner_doc([2 * s for s in BASE_SAMPLES], BASE_SAMPLES)
        path = self._write(tmp_path, "planner.json", doc)
        assert bench_main(["compare", path]) == EXIT_REGRESSION == 9
        captured = capsys.readouterr()
        assert "planner gate: FAIL" in captured.out
        assert "m1:aa (vs tilespgemm)" in captured.err

    def test_gate_exit_0_on_identical_rerun(self, tmp_path, capsys):
        doc = planner_doc(list(BASE_SAMPLES), BASE_SAMPLES)
        path = self._write(tmp_path, "planner.json", doc)
        assert bench_main(["compare", path]) == EXIT_OK
        assert "planner gate: PASS" in capsys.readouterr().out

    def test_missing_file_exits_4(self, tmp_path, capsys):
        code = bench_main(["compare", str(tmp_path / "nope.json")])
        assert code == EXIT_FILE_NOT_FOUND == 4

    def test_malformed_document_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "wrong"}))
        assert bench_main(["compare", str(bad)]) == EXIT_INVALID_INPUT == 3

    def test_usage_error_exits_2(self, capsys):
        for argv in (
            ["run", "--suite", "no-such-suite"],
            ["compare"],
            ["compare", "a.json", "b.json"],  # the two-document form is gone
            ["compare", "--planner", "a.json"],
        ):
            assert bench_main(argv) == EXIT_USAGE == 2, argv

    def test_document_without_planned_series_exits_2(self, tmp_path, capsys):
        doc = planner_doc(BASE_SAMPLES, BASE_SAMPLES)
        doc["series"] = [s for s in doc["series"] if s["method"] != "tilespgemm_planned"]
        assert bench_main(["compare", self._write(tmp_path, "p.json", doc)]) == EXIT_USAGE
        assert "tilespgemm_planned" in capsys.readouterr().err
