"""Coercion of exported telemetry values to native Python types.

Span attributes, metric values and status documents routinely pick up
NumPy scalars — ``nnz`` counts are ``np.int64``, timings ``np.float64``
— and ``json.dump`` refuses the integer kinds outright.  Every export
surface (``Tracer.write`` and ``MetricsRegistry.snapshot``/``to_prometheus``)
funnels its payload through :func:`to_native` so a stray ``np.int64``
attribute can never crash an export.

The module imports only the standard library: NumPy scalars are detected
structurally (``.item()`` / ``.tolist()``), so the observability layer
keeps its no-upward-imports property.
"""

from __future__ import annotations

from typing import Any

__all__ = ["to_native", "json_default"]


def to_native(value: Any) -> Any:
    """Recursively convert ``value`` into JSON-native Python types.

    * NumPy scalars (anything scalar exposing ``.item()``) become the
      matching ``int`` / ``float`` / ``bool``;
    * NumPy arrays (``.tolist()``) become (nested) lists of natives;
    * ``dict`` / ``list`` / ``tuple`` / ``set`` recurse (tuples and sets
      become lists — the JSON shape they serialise to anyway);
    * native scalars and strings pass through unchanged.

    Unknown objects are returned as-is; pair with :func:`json_default`
    when serialising so even those degrade to strings instead of raising.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {_native_key(k): to_native(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [to_native(v) for v in value]
    # NumPy ndarray (and anything array-like that knows how to listify).
    tolist = getattr(value, "tolist", None)
    if callable(tolist):
        try:
            return to_native(tolist())
        except Exception:
            pass
    # NumPy scalar: 0-d, knows .item(); also covers np.bool_, np.float32...
    item = getattr(value, "item", None)
    if callable(item) and getattr(value, "shape", ()) == ():
        try:
            return to_native(item())
        except Exception:
            pass
    return value


def _native_key(key: Any) -> Any:
    native = to_native(key)
    if isinstance(native, (str, int, float, bool)) or native is None:
        return native
    return str(native)


def json_default(value: Any) -> Any:
    """``json.dump(..., default=json_default)`` fallback: natives, else str."""
    native = to_native(value)
    if native is not value:
        return native
    return str(value)
