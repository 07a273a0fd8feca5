"""The machine-readable benchmark runner behind ``repro bench run``.

Executes a named suite — a (matrix specs x methods x ops) grid — with
warmup/repeat control and deterministic seeding, and emits one canonical
result document (:mod:`repro.bench.schema`): per-series wall-clock
samples, measured GFlops, cost-model estimates per device, the
:class:`~repro.obs.metrics.MetricsRegistry` counters of one instrumented
execution, and the environment fingerprint.

The measurement discipline mirrors ``benchmarks/conftest.py``'s cached
pass: the tiled conversion is hoisted out of the timed region (the paper
times SpGEMM, not format conversion — Figure 12 prices conversion
separately), the first instrumented execution doubles as warmup, and
every timed repeat is a fresh full run of the registered algorithm.  When
the ``benchmarks`` package is importable (running from a repo checkout),
its conversion cache is reused so a bench session and a ``repro bench``
invocation share one tiling pass.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend import resolve_backend_name
from repro.baselines import get_algorithm
from repro.bench import schema
from repro.gpu import DEVICES, estimate_run
from repro.obs import MetricsRegistry, WorkloadProfiler, obs_context

__all__ = [
    "SuiteSpec",
    "SUITES",
    "BenchConfig",
    "BenchRunner",
    "available_suites",
]

#: Methods of the paper's main comparison (benchmarks/conftest.py order).
_PAPER_METHODS = ("cusparse_spa", "bhsparse_esc", "nsparse_hash", "speck", "tilespgemm")

#: Devices every series is estimated on (keys of ``repro.gpu.DEVICES``).
_ESTIMATE_DEVICES = ("rtx3060", "rtx3090")


@dataclass(frozen=True)
class SuiteSpec:
    """A named benchmark suite: which matrices, methods and ops to run."""

    name: str
    description: str
    specs: Callable[[], Sequence[Any]] = field(repr=False)  #: -> [MatrixSpec]
    methods: Tuple[str, ...] = _PAPER_METHODS
    ops: Tuple[str, ...] = ("aa",)


def _smoke_specs():
    from repro.matrices.generators import banded, powerlaw
    from repro.matrices.suite import MatrixSpec

    return [
        MatrixSpec("bench_smoke_banded", "fem", lambda: banded(600, 8, seed=11)),
        MatrixSpec(
            "bench_smoke_powerlaw",
            "powerlaw",
            lambda: powerlaw(800, 4.0, exponent=1.9, max_degree=120, seed=12),
            asymmetric=True,
        ),
    ]


def _ext_specs():
    from repro.matrices.suite import representative_18

    return representative_18()[:6]


def _representative_specs():
    from repro.matrices.suite import representative_18

    return representative_18()


def _fig6_specs():
    from repro.matrices.suite import full_dataset

    return full_dataset()


def _tsparse_specs():
    from repro.matrices.suite import tsparse_16

    return tsparse_16()


#: The suite registry; extend here and the CLI picks the entry up.
SUITES: Dict[str, SuiteSpec] = {
    "smoke": SuiteSpec(
        "smoke",
        "two tiny matrices, two methods — seconds, for tests and CI sanity",
        _smoke_specs,
        methods=("tilespgemm", "nsparse_hash"),
    ),
    "ext": SuiteSpec(
        "ext",
        "first six representative matrices x the paper's five methods",
        _ext_specs,
    ),
    "representative": SuiteSpec(
        "representative",
        "all 18 representative matrices x the paper's five methods",
        _representative_specs,
    ),
    "fig6": SuiteSpec(
        "fig6",
        "the full-dataset sweep (Figure 6) x the paper's five methods",
        _fig6_specs,
    ),
    "tsparse": SuiteSpec(
        "tsparse",
        "the tSparse 16-matrix dataset, TileSpGEMM vs tSparse",
        _tsparse_specs,
        methods=("tilespgemm", "tsparse"),
    ),
    "parallel": SuiteSpec(
        "parallel",
        "the ext matrices, serial TileSpGEMM vs the sharded engine at 2 "
        "and 4 workers (scaling of repro.runtime.parallel)",
        _ext_specs,
        methods=("tilespgemm", "tilespgemm_par2", "tilespgemm_par4"),
    ),
    "planner": SuiteSpec(
        "planner",
        "the ext matrices, the estimation-driven planner vs every static "
        "shard/worker configuration (gate: repro bench compare --planner)",
        _ext_specs,
        methods=(
            "tilespgemm",
            "tilespgemm_par2",
            "tilespgemm_par4",
            "tilespgemm_planned",
        ),
    ),
}


def available_suites() -> Dict[str, str]:
    """``{suite name: description}`` for help text."""
    return {name: s.description for name, s in sorted(SUITES.items())}


@dataclass
class BenchConfig:
    """Everything a run needs to be reproducible."""

    suite: str = "ext"
    label: str = ""
    warmup: int = 1
    repeats: int = 5
    seed: int = 0
    max_matrices: Optional[int] = None  #: None = REPRO_BENCH_MAX_MATRICES or all
    methods: Optional[Tuple[str, ...]] = None  #: None = the suite's methods
    devices: Tuple[str, ...] = _ESTIMATE_DEVICES
    backend: Optional[str] = None  #: kernel backend name; None = $REPRO_BACKEND, else numpy

    def resolved_cap(self) -> Optional[int]:
        if self.max_matrices is not None:
            return self.max_matrices
        raw = os.environ.get("REPRO_BENCH_MAX_MATRICES", "")
        return int(raw) if raw else None


def _tiled_of(a):
    """CSR -> tiled conversion, shared with the bench session cache when
    ``benchmarks.conftest`` is importable (repo checkout), local otherwise."""
    try:
        from benchmarks.conftest import tiled_of as shared

        return shared(a)
    except ImportError:
        from repro.core.tile_matrix import TileMatrix

        key = id(a)
        cached = _LOCAL_TILED.get(key)
        if cached is None:
            cached = _LOCAL_TILED[key] = TileMatrix.from_csr(a)
        return cached


_LOCAL_TILED: Dict[int, Any] = {}


class BenchRunner:
    """Execute one suite and emit a result document.

    >>> doc = BenchRunner(BenchConfig(suite="smoke", repeats=2, warmup=0)).run()
    >>> doc["schema"]
    'repro.bench/1'
    """

    def __init__(self, config: Optional[BenchConfig] = None) -> None:
        self.config = config or BenchConfig()
        if self.config.suite not in SUITES:
            from repro.errors import InvalidInputError

            raise InvalidInputError(
                f"unknown bench suite {self.config.suite!r}; "
                f"available: {sorted(SUITES)}"
            )

    # ------------------------------------------------------------------ run
    def run(self, progress: Optional[Callable[[str], None]] = None) -> Dict[str, Any]:
        """Run the configured suite; returns the validated document."""
        cfg = self.config
        suite = SUITES[cfg.suite]
        random.seed(cfg.seed)
        np.random.seed(cfg.seed % (2**32))
        # Resolve (and validate) the kernel backend once; every tiled
        # method runs on it, and the document records the resolved name
        # so any two runs can be compared backend-aware.
        backend_name = resolve_backend_name(cfg.backend)
        doc = schema.new_document(
            label=cfg.label or cfg.suite,
            suite=cfg.suite,
            warmup=cfg.warmup,
            repeats=cfg.repeats,
            seed=cfg.seed,
            backend=backend_name,
        )
        specs = list(suite.specs())
        cap = cfg.resolved_cap()
        if cap is not None:
            specs = specs[: max(int(cap), 0)]
        methods = tuple(cfg.methods) if cfg.methods else suite.methods
        for spec in specs:
            a = spec.matrix()
            for op in suite.ops:
                b = a if op == "aa" else a.transpose()
                for method in methods:
                    if progress is not None:
                        progress(f"{spec.name} {method} {op}")
                    doc["series"].append(
                        self._measure_series(spec.name, method, op, a, b, backend_name)
                    )
        schema.validate_document(doc)
        return doc

    # ------------------------------------------------------------- measure
    def _measure_series(
        self, matrix_name: str, method: str, op: str, a, b, backend: str
    ) -> Dict[str, Any]:
        cfg = self.config
        kwargs: Dict[str, Any] = {}
        if method.startswith("tilespgemm"):
            # Every tiled variant (serial and the parallel adapters) takes
            # pre-tiled operands, keeping conversion out of the timed region,
            # and runs on the suite's backend.
            kwargs["backend"] = backend
            kwargs["a_tiled"] = _tiled_of(a)
            kwargs["b_tiled"] = _tiled_of(a) if op == "aa" else _tiled_of(b)
        fn = get_algorithm(method)

        # Instrumented pass: collects the kernel counters, the workload
        # profile and the result whose statistics feed the cost model;
        # doubles as the first warmup iteration so the counters cost no
        # extra execution.  The timed repeats below run outside the
        # context, so the samples price the algorithm alone.
        metrics = MetricsRegistry()
        profiler = WorkloadProfiler()
        with obs_context(metrics=metrics, profile=profiler):
            result = fn(a, b, **kwargs)
        for _ in range(max(cfg.warmup - 1, 0)):
            fn(a, b, **kwargs)

        samples: List[float] = []
        for _ in range(max(cfg.repeats, 0)):
            t0 = time.perf_counter()
            fn(a, b, **kwargs)
            samples.append(time.perf_counter() - t0)

        flops = result.flops
        median = float(np.median(samples)) if samples else 0.0
        gflops = flops / median / 1e9 if median > 0 else None

        estimates: Dict[str, Any] = {}
        for dev_key in cfg.devices:
            est = estimate_run(result, DEVICES[dev_key])
            estimates[dev_key] = {
                "device": est.device.name,
                "seconds": est.seconds if np.isfinite(est.seconds) else -1.0,
                "gflops": est.gflops,
                "oom": bool(est.oom),
                "malloc_s": est.malloc_s,
                "kernels": {
                    k.name: {
                        "seconds": k.seconds,
                        "compute_s": k.compute_s,
                        "memory_s": k.memory_s,
                        "launch_s": k.launch_s,
                        "bound": k.bound,
                        "tasks": int(k.task_cycles.size)
                        if k.task_cycles is not None
                        else 0,
                    }
                    for k in est.kernels
                },
            }

        return schema.make_series(
            matrix=matrix_name,
            method=method,
            op=op,
            wall_seconds=samples,
            gflops=gflops,
            flops=flops,
            n=a.shape[0],
            nnz=a.nnz,
            nnz_c=int(result.stats.get("nnz_c", result.c.nnz)),
            phases=dict(result.timer.seconds),
            counters=dict(metrics.snapshot()["counters"]),
            estimates=estimates,
            # Per-series: the process-wide tile-cache counters would smear
            # across series, so the snapshot is omitted here.
            profile=profiler.to_dict(include_cache=False),
        )
