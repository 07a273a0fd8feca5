"""Pluggable kernel-backend registry for the TileSpGEMM pipeline.

The three-step pipeline funnels its hot inner work through the five
kernels of a :class:`~repro.backend.base.KernelSet` (mask OR-accumulate,
popcount, popcount rank, scatter-add accumulate, tile compaction); this
module maps *names* onto kernel sets so the same pipeline can run on any
registered implementation::

    from repro.core import tile_spgemm
    from repro.runtime import parallel_tile_spgemm

    tile_spgemm(a, b, backend="pyloops")
    parallel_tile_spgemm(a, b, workers=2, backend="pyloops")

Selection precedence, resolved per run by :func:`resolve_backend`:

1. an explicit argument (a name or a ``KernelSet`` instance);
2. the ``REPRO_BACKEND`` environment variable;
3. the always-registered ``numpy`` reference.

There is no process-wide default to set: a run's backend is an argument
of its entry point, so one thread's choice never reaches another's run.
The sharded engines (:mod:`repro.runtime.parallel`, :mod:`repro.serve`)
resolve the backend spec to a :class:`KernelSet` once per run, in the
coordinator, and forward that instance in every shard's options, so every
shard of a run uses one backend — and an unregistered kernel set works
there as it does for ``tile_spgemm``.

Every registered backend must be byte-identical to the ``numpy``
reference — all eight result arrays, values included.  There is one
conformance contract (stated in :mod:`repro.backend.base`), and
``tests/test_backend_conformance.py`` judges every registration by it.

In-tree backends:

* ``numpy`` — the vectorised reference; always available and the
  definition of the byte-level conformance contract;
* ``pyloops`` — pure-Python scalar loops; the slow, obviously-correct
  oracle for differential testing;
* ``numba`` — JIT-compiled sequential scalar loops; registered only
  when :mod:`numba` is importable, skipped otherwise;
* ``numba-par`` — ``prange`` sort-and-segment variants of the same
  kernels (numba-gated like ``numba``).

``docs/BACKENDS.md`` documents the registry API, how to write a backend
and the conformance contract the test suite enforces.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from repro.backend.accel import NumbaKernelSet, NumbaParKernelSet, numba_available
from repro.backend.base import KERNEL_NAMES, KernelSet
from repro.backend.numpy_backend import NumpyKernelSet
from repro.backend.pyloops import PyLoopsKernelSet
from repro.errors import ConfigurationError, InvalidInputError

__all__ = [
    "ENV_BACKEND",
    "DEFAULT_BACKEND",
    "KernelSet",
    "KERNEL_NAMES",
    "NumpyKernelSet",
    "PyLoopsKernelSet",
    "NumbaKernelSet",
    "NumbaParKernelSet",
    "numba_available",
    "register_backend",
    "unregister_backend",
    "get_backend",
    "list_backends",
    "backend_available",
    "resolve_backend",
    "resolve_backend_name",
    "default_backend_name",
]

#: Environment variable consulted when no explicit backend is given.
ENV_BACKEND = "REPRO_BACKEND"

#: The always-registered reference backend.
DEFAULT_BACKEND = "numpy"


@dataclass
class _Entry:
    name: str
    factory: Callable[[], KernelSet]
    available: Callable[[], bool] = field(default=lambda: True)
    description: str = ""


_REGISTRY: Dict[str, _Entry] = {}
_INSTANCES: Dict[str, KernelSet] = {}


def register_backend(
    name: str,
    factory: Optional[Callable[[], KernelSet]] = None,
    *,
    available: Optional[Callable[[], bool]] = None,
    description: str = "",
    replace: bool = False,
):
    """Register ``factory`` (returning a :class:`KernelSet`) as ``name``.

    Usable directly or as a class decorator::

        @register_backend("mybackend", description="...")
        class MyKernelSet(KernelSet): ...

    Parameters
    ----------
    name:
        Registry key; also what ``REPRO_BACKEND`` / ``--backend`` accept.
    factory:
        Zero-argument callable producing the kernel set (a ``KernelSet``
        subclass works — classes are their own factories).  Instantiated
        lazily on first :func:`get_backend` and cached per process.
    available:
        Optional probe; when it returns False the backend stays listed
        under ``list_backends(available_only=False)`` but cannot be
        instantiated (optional-dependency gating).
    description:
        One line for ``list_backends`` consumers and help text.
    replace:
        Allow overwriting an existing registration (tests).
    """
    def _register(fac):
        if name in _REGISTRY and not replace:
            raise InvalidInputError(f"backend {name!r} is already registered")
        _REGISTRY[name] = _Entry(
            name=name,
            factory=fac,
            available=available or (lambda: True),
            description=description,
        )
        _INSTANCES.pop(name, None)
        return fac

    if factory is None:
        return _register
    return _register(factory)


def unregister_backend(name: str) -> None:
    """Remove a registration (primarily for test cleanup).

    The ``numpy`` reference cannot be removed — the pipeline's default
    resolution and the conformance suite both anchor on it.
    """
    if name == DEFAULT_BACKEND:
        raise InvalidInputError("the numpy reference backend cannot be unregistered")
    _REGISTRY.pop(name, None)
    _INSTANCES.pop(name, None)


def backend_available(name: str) -> bool:
    """True when ``name`` is registered and its availability probe passes."""
    entry = _REGISTRY.get(name)
    return entry is not None and bool(entry.available())


def list_backends(available_only: bool = True) -> List[str]:
    """Registered backend names, sorted; ``numpy`` always first.

    ``available_only`` (default) filters out registrations whose
    optional dependency is missing on this machine.
    """
    names = [n for n, e in _REGISTRY.items() if not available_only or e.available()]
    names.sort(key=lambda n: (n != DEFAULT_BACKEND, n))
    return names


def get_backend(name: str) -> KernelSet:
    """The (per-process cached) kernel set registered as ``name``.

    Raises :class:`~repro.errors.InvalidInputError` for unknown names and
    for registered-but-unavailable backends, naming the alternatives.
    """
    inst = _INSTANCES.get(name)
    if inst is not None:
        return inst
    entry = _REGISTRY.get(name)
    if entry is None:
        raise InvalidInputError(
            f"unknown backend {name!r}; registered: {list_backends(available_only=False)}"
        )
    if not entry.available():
        raise InvalidInputError(
            f"backend {name!r} is registered but unavailable on this machine "
            f"(missing optional dependency); available: {list_backends()}"
        )
    inst = entry.factory()
    if not isinstance(inst, KernelSet):
        raise InvalidInputError(
            f"backend {name!r} factory returned {type(inst).__name__}, "
            "expected a KernelSet"
        )
    inst.name = name
    _INSTANCES[name] = inst
    return inst


def default_backend_name() -> str:
    """The name :func:`resolve_backend` would use with no explicit spec."""
    env = os.environ.get(ENV_BACKEND, "").strip()
    return env or DEFAULT_BACKEND


def resolve_backend(spec: Union[None, str, KernelSet] = None) -> KernelSet:
    """Resolve a backend spec to a kernel set.

    ``spec`` may be a :class:`KernelSet` instance (returned as-is), a
    registered name, or ``None`` — which resolves ``REPRO_BACKEND``, else
    ``numpy``.

    A name that came from the ``REPRO_BACKEND`` environment variable and
    fails to resolve raises :class:`~repro.errors.ConfigurationError`
    naming the variable (exit code 10 at the CLI) instead of the generic
    invalid-input error an explicit argument gets.
    """
    if isinstance(spec, KernelSet):
        return spec
    from_env = spec is None  # the numpy fallback always resolves
    if from_env:
        spec = default_backend_name()
    if not isinstance(spec, str):
        raise InvalidInputError(
            f"backend spec must be a name or KernelSet, got {type(spec).__name__}"
        )
    try:
        return get_backend(spec)
    except InvalidInputError as exc:
        if from_env:
            raise ConfigurationError(str(exc), source=ENV_BACKEND) from exc
        raise


def resolve_backend_name(spec: Union[None, str, KernelSet] = None) -> str:
    """Like :func:`resolve_backend` but returns the registry name — what
    an execution plan and a bench record keep."""
    return resolve_backend(spec).name


# ---------------------------------------------------------------- in-tree
def _register_builtin_backends() -> None:
    from repro.backend.accel import NumbaKernelSet, NumbaParKernelSet, numba_available
    from repro.backend.numpy_backend import NumpyKernelSet
    from repro.backend.pyloops import PyLoopsKernelSet

    register_backend(
        DEFAULT_BACKEND,
        NumpyKernelSet,
        description="vectorised NumPy reference (always available)",
        replace=True,
    )
    register_backend(
        "pyloops",
        PyLoopsKernelSet,
        description="pure-Python scalar loops — slow differential oracle",
        replace=True,
    )
    register_backend(
        "numba",
        NumbaKernelSet,
        available=numba_available,
        description="Numba-JIT scalar loops (requires the numba package)",
        replace=True,
    )
    register_backend(
        "numba-par",
        NumbaParKernelSet,
        available=numba_available,
        description=(
            "Numba prange sort-and-segment kernels (requires the numba package)"
        ),
        replace=True,
    )


_register_builtin_backends()
