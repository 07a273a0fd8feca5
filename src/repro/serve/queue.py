"""The bounded request queue: FIFO buffering with a hard bound.

A thin layer over :class:`asyncio.Queue` that adds the two things the
serving tier needs and asyncio does not provide: a *hard* bound that is
observable (``high_water`` proves the bound was never exceeded; the
service exports it as the ``serve_queue_high_water`` gauge), and a
synchronous drain used at non-graceful shutdown to shed whatever is
still buffered.

``try_put`` is the shed path (fail fast when full); ``put`` is the
backpressure path (the *submitter's* coroutine blocks until a slot
frees, which is exactly the signal an open-loop client needs to slow
down).  Both run on the event loop — no locks needed beyond asyncio's
own.
"""

from __future__ import annotations

import asyncio
from typing import List

from repro.serve.request import ServeRequest

__all__ = ["BoundedRequestQueue"]


class BoundedRequestQueue:
    """FIFO of :class:`~repro.serve.request.ServeRequest` with a hard bound."""

    def __init__(self, bound: int) -> None:
        if bound < 1:
            raise ValueError(f"queue bound must be >= 1, got {bound}")
        self.bound = int(bound)
        self._q: "asyncio.Queue[ServeRequest]" = asyncio.Queue(maxsize=self.bound)
        self.high_water = 0

    # ------------------------------------------------------------- producers
    def try_put(self, req: ServeRequest) -> bool:
        """Enqueue without waiting; False when the queue is at its bound."""
        try:
            self._q.put_nowait(req)
        except asyncio.QueueFull:
            return False
        self._note_put()
        return True

    async def put(self, req: ServeRequest) -> None:
        """Enqueue, awaiting a free slot — backpressure to the submitter."""
        await self._q.put(req)
        self._note_put()

    def _note_put(self) -> None:
        self.high_water = max(self.high_water, self.depth)

    # ------------------------------------------------------------- consumers
    async def get(self) -> ServeRequest:
        return await self._q.get()

    def task_done(self) -> None:
        self._q.task_done()

    async def join(self) -> None:
        """Resolve once every dequeued request has been marked done."""
        await self._q.join()

    def drain(self) -> List[ServeRequest]:
        """Empty the queue synchronously (non-graceful shutdown shed)."""
        drained: List[ServeRequest] = []
        while True:
            try:
                req = self._q.get_nowait()
            except asyncio.QueueEmpty:
                return drained
            self._q.task_done()
            drained.append(req)

    # ------------------------------------------------------------- queries
    @property
    def depth(self) -> int:
        return self._q.qsize()
