"""The machine-readable bench runner, schema and ``bench run`` CLI.

The smoke suite (two tiny generated matrices, two methods) keeps these
tests fast while exercising the full measurement path: instrumented
counter collection, warmup/repeat timing and document validation.
"""

from __future__ import annotations

import json

import pytest

from repro.bench import schema
from repro.bench.cli import bench_main
from repro.bench.runner import BenchConfig, BenchRunner, available_suites
from repro.errors import EXIT_OK, InvalidInputError


@pytest.fixture(scope="module")
def smoke_doc():
    config = BenchConfig(suite="smoke", label="unit", warmup=1, repeats=3, seed=0)
    return BenchRunner(config).run()


class TestRunner:
    def test_smoke_run_is_schema_valid(self, smoke_doc):
        schema.validate_document(smoke_doc)
        assert smoke_doc["schema"] == schema.SCHEMA_VERSION
        assert smoke_doc["meta"]["suite"] == "smoke"
        assert smoke_doc["environment"]["python"]

    def test_series_carry_samples_and_counters(self, smoke_doc):
        assert len(smoke_doc["series"]) == 4  # 2 matrices x 2 methods x 1 op
        for s in smoke_doc["series"]:
            assert len(s["wall_seconds"]) == 3
            assert all(t >= 0 for t in s["wall_seconds"])
            assert s["gflops"] > 0 and s["flops"] > 0 and s["nnz_c"] > 0
        tile = [s for s in smoke_doc["series"] if s["method"] == "tilespgemm"]
        assert tile and all(s["counters"] for s in tile)
        assert all("step2" in s.get("phases", {}) for s in tile)

    def test_unknown_suite_raises_invalid_input(self):
        with pytest.raises(InvalidInputError):
            BenchRunner(BenchConfig(suite="nope"))

    def test_available_suites_lists_all(self):
        names = available_suites()
        assert {"smoke", "ext", "representative", "fig6", "tsparse"} <= set(names)

    def test_max_matrices_env_cap(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_MAX_MATRICES", "1")
        doc = BenchRunner(
            BenchConfig(suite="smoke", warmup=0, repeats=1)
        ).run()
        assert len({s["matrix"] for s in doc["series"]}) == 1


class TestSchema:
    def test_corrupted_key_rejected(self, smoke_doc):
        bad = json.loads(json.dumps(smoke_doc))
        bad["series"][0]["key"] = "wrong|key|oops"
        with pytest.raises(InvalidInputError, match=r"\$\.series\[0\]\.key"):
            schema.validate_document(bad)

    def test_negative_duration_rejected(self, smoke_doc):
        bad = json.loads(json.dumps(smoke_doc))
        bad["series"][1]["wall_seconds"] = [-1.0]
        with pytest.raises(InvalidInputError, match="negative"):
            schema.validate_document(bad)

    def test_load_rejects_truncated_json(self, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text('{"schema": "repro.bench/1", "meta"')
        with pytest.raises(InvalidInputError, match="not valid JSON"):
            schema.load_document(path)


class TestCli:
    def test_run_out_roundtrip(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # a stray relative write would land here
        out = tmp_path / "runs" / "a.json"
        argv = ["run", "--suite", "smoke", "--warmup", "0", "--repeats", "2", "--quiet"]
        assert bench_main(argv + ["--out", str(out)]) == EXIT_OK
        doc = schema.load_document(out)
        assert doc["meta"]["suite"] == "smoke"
        assert len(doc["series"]) == 4
        assert f"wrote {out} (4 series)" in capsys.readouterr().out

        # Without --out the document goes to stdout, and nothing else does.
        assert bench_main(argv + ["--max-matrices", "1"]) == EXIT_OK
        printed = schema.validate_document(json.loads(capsys.readouterr().out))
        assert len(printed["series"]) == 2
        assert list(tmp_path.iterdir()) == [tmp_path / "runs"]
