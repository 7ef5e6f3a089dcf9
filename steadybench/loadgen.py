"""The closed-loop load generator.

One generator process holds at most two :class:`ServingClient`
connections and keeps a fixed number of requests in flight, pipelined
across them: each of ``in_flight`` workers sends its next request only
when its previous one has been answered, as ingest shippers and
dashboards do.  Every request is timed from send to reply.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Op:
    """One request of the window and what came back."""

    index: int
    op: str
    fields: Dict[str, Any]
    start: float
    end: float = 0.0
    response: Optional[Dict[str, Any]] = None
    error: Optional[str] = None


@dataclass
class Window:
    """The timed window: its bounds and every op started inside it."""

    start: float
    end: float
    ops: List[Op] = field(default_factory=list)

    def completed(self, lo: float, hi: float) -> List[Op]:
        """Ops started in ``[lo, hi)`` that were answered ``ok``."""
        return [
            op for op in self.ops
            if op.error is None and lo <= op.start < hi
        ]


async def closed_loop(
    clients: Sequence[Any],
    make_request: Callable[[int], Tuple[str, Dict[str, Any]]],
    in_flight: int,
    seconds: float,
    marks: Sequence[Tuple[float, Callable[[], None]]] = (),
) -> Window:
    """Keep ``in_flight`` requests outstanding for ``seconds``.

    Workers alternate over ``clients``; request ``i`` is
    ``make_request(i)`` in the order workers claim indices, so a seed
    fixes the request sequence.  ``marks`` are ``(offset, callback)``
    pairs run that many seconds into the window (tracing on and off).
    A request that fails is recorded with its error, never retried.
    """
    from repro.serving import ServingError

    loop = asyncio.get_running_loop()
    start = time.perf_counter()
    window = Window(start=start, end=start + seconds)
    next_index = 0

    async def worker(client) -> None:
        nonlocal next_index
        while time.perf_counter() < window.end:
            index = next_index
            next_index += 1
            op_name, fields = make_request(index)
            op = Op(index, op_name, fields, time.perf_counter())
            window.ops.append(op)
            try:
                op.response = await client.request(op_name, **fields)
            except ServingError as exc:
                op.error = f"{type(exc).__name__}: {exc}"
            op.end = time.perf_counter()

    handles = [loop.call_at(loop.time() + offset, callback)
               for offset, callback in marks]
    try:
        await asyncio.gather(
            *(worker(clients[i % len(clients)]) for i in range(in_flight))
        )
    finally:
        for handle in handles:
            handle.cancel()
    return window
