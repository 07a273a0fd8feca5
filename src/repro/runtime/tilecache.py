"""Content-hash-keyed cache of tiled operands.

CSR→tiled conversion is the fixed cost the paper amortises over repeated
multiplies (Figure 12): an AMG hierarchy reuses each level's operators,
MCL squares the same matrix every iteration, and a Krylov loop applies
one matrix over and over.  Those call sites receive plain CSR operands,
so without help they re-tile the same matrix on every call.

:class:`TileCache` removes that cost.  The key is a SHA-256 digest of the
CSR *content* — shape, tile size and the raw bytes of ``indptr`` /
``indices`` / ``val`` — so two structurally identical matrices hit the
same entry regardless of object identity, while any numeric or structural
change misses.  Entries are evicted least-recently-used once ``capacity``
is exceeded.  The cache is thread-safe (one lock around the table), so
the sharded parallel engine and :func:`~repro.runtime.parallel.spgemm_batch`
can share the process-wide instance returned by :func:`get_tile_cache`.

Every lookup also counts in the ambient
:class:`~repro.obs.metrics.MetricsRegistry` when one is live
(``tilecache_hits_total`` / ``tilecache_misses_total`` /
``tilecache_evictions_total``).  The table's state — entries, resident
bytes — is :meth:`TileCache.stats`, which ``SpGEMMService.varz()``
exports; it is not copied into gauges.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.core.tile_matrix import TILE, TileMatrix
from repro.obs.context import current_obs

__all__ = ["TileCache", "get_tile_cache", "reset_tile_cache", "cached_algorithm"]

#: Default number of tiled operands kept alive (AMG hierarchies are
#: shallow; MCL/Krylov loops touch one or two matrices).
DEFAULT_CAPACITY = 8


def content_key(csr, tile_size: int) -> str:
    """SHA-256 digest identifying a CSR matrix's exact content.

    Hashes shape, tile size, dtypes and the raw array bytes, so equality
    of keys implies the tiled forms are byte-identical.
    """
    h = hashlib.sha256()
    h.update(f"{csr.shape[0]}x{csr.shape[1]}/T{int(tile_size)}".encode())
    for arr in (csr.indptr, csr.indices, csr.val):
        h.update(str(arr.dtype).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


class TileCache:
    """An LRU cache mapping CSR content to its tiled form.

    Parameters
    ----------
    capacity:
        Maximum number of entries; the least recently used entry is
        evicted when a new one would exceed it.  ``0`` disables caching
        (every lookup misses and nothing is stored).
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[str, TileMatrix]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.resident_bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def tile(self, m, tile_size: int = TILE) -> TileMatrix:
        """The tiled form of ``m``, converting (and caching) on a miss.

        A :class:`~repro.core.tile_matrix.TileMatrix` passes through
        untouched — it is already the resident format.
        """
        if isinstance(m, TileMatrix):
            return m
        key = content_key(m, tile_size)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                current_obs().metrics.inc("tilecache_hits_total")
                return cached
            self.misses += 1
        current_obs().metrics.inc("tilecache_misses_total")
        tiled = TileMatrix.from_csr(m, tile_size)
        with self._lock:
            if self.capacity > 0 and key not in self._entries:
                self._entries[key] = tiled
                self.resident_bytes += tiled.memory_bytes()
                while len(self._entries) > self.capacity:
                    _, evicted = self._entries.popitem(last=False)
                    self.resident_bytes -= evicted.memory_bytes()
                    self.evictions += 1
                    current_obs().metrics.inc("tilecache_evictions_total")
        return tiled

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss/eviction counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.resident_bytes = 0

    def stats(self) -> Dict[str, int]:
        """Counters snapshot: hits, misses, evictions, size, bytes."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._entries),
                "capacity": self.capacity,
                "resident_bytes": self.resident_bytes,
            }


_GLOBAL_CACHE: Optional[TileCache] = None
_GLOBAL_LOCK = threading.Lock()


def get_tile_cache() -> TileCache:
    """The process-wide cache used by the apps layer and ``spgemm_batch``."""
    global _GLOBAL_CACHE
    with _GLOBAL_LOCK:
        if _GLOBAL_CACHE is None:
            _GLOBAL_CACHE = TileCache()
        return _GLOBAL_CACHE


def reset_tile_cache(capacity: int = DEFAULT_CAPACITY) -> TileCache:
    """Replace the process-wide cache (tests; capacity changes)."""
    global _GLOBAL_CACHE
    with _GLOBAL_LOCK:
        _GLOBAL_CACHE = TileCache(capacity)
        return _GLOBAL_CACHE


def cached_algorithm(method: str, tile_size: int = TILE):
    """A registered SpGEMM method with cached tiling of its operands.

    For the tiled-family methods (``tilespgemm`` and the parallel
    variants) the returned callable tiles CSR operands through
    :func:`get_tile_cache` and passes them as ``a_tiled``/``b_tiled``,
    so the application loops that repeat operands — AMG level chains,
    MCL's iterated squaring, Krylov solves — convert each matrix once.
    Other methods are returned untouched (they work on CSR directly).
    """
    from repro.baselines.base import get_algorithm

    algorithm = get_algorithm(method)
    if not method.startswith("tilespgemm"):
        return algorithm
    cache = get_tile_cache()

    def run(a, b, **kwargs):
        a_tiled = cache.tile(a, tile_size)
        b_tiled = a_tiled if b is a else cache.tile(b, tile_size)
        return algorithm(a, b, a_tiled=a_tiled, b_tiled=b_tiled, **kwargs)

    run.__name__ = f"cached_{method}"
    return run
