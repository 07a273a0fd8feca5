"""repro.serve — the resilient async SpGEMM serving tier.

The layers below this package answer "how do we multiply once, fast and
correctly"; this one answers "how do we keep answering when everyone
asks at the same time".  It puts an asyncio front door on the tiled
engines: a bounded request queue with backpressure, estimation-driven
admission control (OCEAN-style upfront pricing against the device
budget), per-request deadlines with cooperative cancellation,
per-request memory budgets whose blow-ups degrade gracefully (each
request is one async run of the shard engine, :mod:`repro.runtime.shards`:
an over-budget shard is halved and stays on the pool — never a silent
fall-back to serial), per-tenant response
ordering, and full accounting: every submitted request terminates in
exactly one typed outcome, and the Prometheus export of
:mod:`repro.obs.metrics` sums to the submission count.

Entry points
------------
:class:`SpGEMMService`
    The service itself (``async with SpGEMMService(...) as svc``).
:func:`~repro.serve.loadgen.run_closed_loop` /
:func:`~repro.serve.loadgen.run_open_loop`
    Deterministic load drivers, also behind ``python -m repro serve``.

See ``docs/SERVING.md`` for the operational story.
"""

from repro.serve.admission import AdmissionController, CostEstimate, estimate_cost
from repro.serve.deadline import CancelToken, Deadline, ShardCancelled
from repro.serve.loadgen import (
    LoadReport,
    make_workload,
    run_closed_loop,
    run_open_loop,
)
from repro.serve.queue import BoundedRequestQueue
from repro.serve.request import (
    OUTCOME_DEADLINE,
    OUTCOME_EXHAUSTED,
    OUTCOME_SERVED,
    OUTCOME_SHED,
    OUTCOMES,
    ServeRequest,
    ServeResponse,
    outcome_for,
)
from repro.serve.service import LATENCY_BUCKETS, SpGEMMService

__all__ = [
    "SpGEMMService",
    "LATENCY_BUCKETS",
    "ServeRequest",
    "ServeResponse",
    "OUTCOMES",
    "OUTCOME_SERVED",
    "OUTCOME_SHED",
    "OUTCOME_DEADLINE",
    "OUTCOME_EXHAUSTED",
    "outcome_for",
    "AdmissionController",
    "CostEstimate",
    "estimate_cost",
    "BoundedRequestQueue",
    "Deadline",
    "CancelToken",
    "ShardCancelled",
    "LoadReport",
    "make_workload",
    "run_closed_loop",
    "run_open_loop",
]
