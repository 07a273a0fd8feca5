"""The canonical machine-readable benchmark result document.

The ``repro bench run`` CLI and the pytest figure benchmarks under
``benchmarks/`` report through one schema-versioned JSON shape, which the
planner gate (:mod:`repro.analysis.bench_compare`) reads.  A document is
a plain dict::

    {
      "schema": "repro.bench/1",
      "meta": {
        "label": "seed", "suite": "ext",
        "created_unix": 1754..., "warmup": 1, "repeats": 5, "seed": 0
      },
      "environment": { ... fingerprint ... },
      "series": [
        {
          "key": "pdb1HYS|tilespgemm|aa",
          "matrix": "pdb1HYS", "method": "tilespgemm", "op": "aa",
          "n": 3600, "nnz": 218670, "nnz_c": ..., "flops": ...,
          "wall_seconds": [0.98, 0.97, ...],   # one entry per repeat
          "gflops": 0.061,                     # flops / median wall time
          "phases": {"step1": ..., "step2": ..., "step3": ..., "malloc": ...},
          "counters": {"atomic_add_ops_total": ...},   # MetricsRegistry
          "extra": { ... free-form, bench-module specific ... }
        }, ...
      ]
    }

``wall_seconds`` may be empty for series whose value is model-derived
(e.g. the Figure 6 GFlops sweep).  Everything optional defaults sanely,
and :func:`validate_document` pins the shape the rest of the tooling
relies on, raising :class:`~repro.errors.InvalidInputError` naming the
first offending path (so CI failures point at the actual field).  Keys
it does not pin pass through: older documents whose series carry
per-device ``estimates`` or an embedded ``profile`` still load.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from typing import Any, Dict, List, Optional

from repro.errors import InvalidInputError

__all__ = [
    "SCHEMA_VERSION",
    "series_key",
    "environment_fingerprint",
    "new_document",
    "make_series",
    "validate_document",
    "write_document",
    "load_document",
]

#: Version tag of the document shape; bump on incompatible changes.
SCHEMA_VERSION = "repro.bench/1"

#: Sample lists beyond this length are rejected (corrupt documents).
_MAX_SAMPLES = 100_000


def series_key(matrix: str, method: str, op: str) -> str:
    """Canonical identity of one measured series: ``matrix|method|op``."""
    return f"{matrix}|{method}|{op}"


def environment_fingerprint() -> Dict[str, str]:
    """Where a document was produced (joined into every comparison report).

    Deliberately coarse — interpreter, platform, library versions — so two
    fingerprints answer "are these runs even comparable on absolute time?"
    without leaking anything host-specific beyond the platform triple.
    """
    import numpy

    import repro

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "numpy": numpy.__version__,
        "repro": repro.__version__,
    }


def new_document(
    label: str,
    suite: str,
    warmup: int,
    repeats: int,
    seed: int,
    created_unix: Optional[float] = None,
    backend: Optional[str] = None,
) -> Dict[str, Any]:
    """An empty document with meta and environment filled in.

    ``backend`` records the kernel backend the suite executed under
    (:mod:`repro.backend`); ``None`` omits the key, keeping documents
    from before the backend seam byte-compatible.
    """
    meta: Dict[str, Any] = {
        "label": str(label),
        "suite": str(suite),
        "created_unix": float(time.time() if created_unix is None else created_unix),
        "warmup": int(warmup),
        "repeats": int(repeats),
        "seed": int(seed),
    }
    if backend is not None:
        meta["backend"] = str(backend)
    return {
        "schema": SCHEMA_VERSION,
        "meta": meta,
        "environment": environment_fingerprint(),
        "series": [],
    }


def make_series(
    matrix: str,
    method: str,
    op: str,
    wall_seconds: Optional[List[float]] = None,
    gflops: Optional[float] = None,
    flops: int = 0,
    n: int = 0,
    nnz: int = 0,
    nnz_c: int = 0,
    phases: Optional[Dict[str, float]] = None,
    counters: Optional[Dict[str, float]] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One series entry (see the module docstring for the shape)."""
    out: Dict[str, Any] = {
        "key": series_key(matrix, method, op),
        "matrix": str(matrix),
        "method": str(method),
        "op": str(op),
        "n": int(n),
        "nnz": int(nnz),
        "nnz_c": int(nnz_c),
        "flops": int(flops),
        "wall_seconds": [float(s) for s in (wall_seconds or [])],
    }
    if gflops is not None:
        out["gflops"] = float(gflops)
    if phases:
        out["phases"] = {str(k): float(v) for k, v in phases.items()}
    if counters:
        out["counters"] = dict(counters)
    if extra:
        out["extra"] = extra
    return out


def _fail(path: str, message: str) -> None:
    raise InvalidInputError(f"invalid bench document at {path}: {message}")


def _check_number(value: Any, path: str, allow_none: bool = False) -> None:
    if value is None and allow_none:
        return
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        _fail(path, f"expected a number, got {value!r}")


def validate_document(doc: Any) -> Dict[str, Any]:
    """Check ``doc`` against the schema; returns it unchanged.

    Raises :class:`~repro.errors.InvalidInputError` naming the first
    offending path.  Only the fields the tooling consumes are pinned;
    ``extra`` stays free-form by design.
    """
    if not isinstance(doc, dict):
        _fail("$", "document must be a JSON object")
    if doc.get("schema") != SCHEMA_VERSION:
        _fail("$.schema", f"expected {SCHEMA_VERSION!r}, got {doc.get('schema')!r}")
    meta = doc.get("meta")
    if not isinstance(meta, dict):
        _fail("$.meta", "missing meta object")
    for field in ("label", "suite"):
        if not isinstance(meta.get(field), str):
            _fail(f"$.meta.{field}", "expected a string")
    for field in ("created_unix", "warmup", "repeats", "seed"):
        _check_number(meta.get(field), f"$.meta.{field}")
    env = doc.get("environment")
    if not isinstance(env, dict):
        _fail("$.environment", "missing environment fingerprint")
    series = doc.get("series")
    if not isinstance(series, list):
        _fail("$.series", "expected a list")
    seen = set()
    for i, s in enumerate(series):
        at = f"$.series[{i}]"
        if not isinstance(s, dict):
            _fail(at, "expected an object")
        for field in ("key", "matrix", "method", "op"):
            if not isinstance(s.get(field), str) or not s[field]:
                _fail(f"{at}.{field}", "expected a non-empty string")
        if s["key"] != series_key(s["matrix"], s["method"], s["op"]):
            _fail(f"{at}.key", f"key {s['key']!r} does not match matrix/method/op")
        if s["key"] in seen:
            _fail(f"{at}.key", f"duplicate series key {s['key']!r}")
        seen.add(s["key"])
        for field in ("n", "nnz", "nnz_c", "flops"):
            _check_number(s.get(field, 0), f"{at}.{field}")
        samples = s.get("wall_seconds", [])
        if not isinstance(samples, list) or len(samples) > _MAX_SAMPLES:
            _fail(f"{at}.wall_seconds", "expected a (bounded) list of seconds")
        for j, v in enumerate(samples):
            _check_number(v, f"{at}.wall_seconds[{j}]")
            if v < 0:
                _fail(f"{at}.wall_seconds[{j}]", f"negative duration {v!r}")
        _check_number(s.get("gflops"), f"{at}.gflops", allow_none=True)
        for mapping in ("phases", "counters"):
            got = s.get(mapping)
            if got is None:
                continue
            if not isinstance(got, dict):
                _fail(f"{at}.{mapping}", "expected an object")
            for k, v in got.items():
                _check_number(v, f"{at}.{mapping}[{k!r}]")
    return doc


def write_document(doc: Dict[str, Any], path) -> None:
    """Validate and write ``doc`` as indented JSON."""
    validate_document(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")


def load_document(path) -> Dict[str, Any]:
    """Read and validate one result document.

    Raises ``FileNotFoundError`` when the file is absent and
    :class:`~repro.errors.InvalidInputError` when the contents are not a
    valid document (including JSON syntax errors — a truncated artifact
    should fail the same way a wrong-shaped one does).
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"bench document {path} is not valid JSON: {exc}") from exc
    return validate_document(doc)
