"""Typed event heap with deterministic tie-breaking.

Every simulation driven by the kernel advances through one totally
ordered stream of timestamped events.  Ordering is the contract the
golden regression tests pin, so it is explicit:

1. events sort by **time** first;
2. equal times sort by **kind** — completions free their memory before
   a recovering node returns, before new arrivals queue, before a node
   drain preempts (see the kind constants below);
3. equal ``(time, kind)`` pairs sort by **push sequence** — a
   monotonically increasing integer, so insertion order breaks the tie
   and payloads are never compared.

The three-level key is a total order over unique keys, which makes the
pop sequence independent of :mod:`heapq`'s internal array layout — the
engines rely on this for bit-for-bit reproducibility.
"""

from __future__ import annotations

import heapq

__all__ = [
    "COMPLETION",
    "OUTAGE_END",
    "ARRIVAL",
    "OUTAGE_START",
    "EventHeap",
]

#: A running attempt reached its end (success or kill); frees memory
#: before anything else at the same instant can claim it.
COMPLETION = 0
#: A drained node returns to service — before new arrivals at the same
#: instant queue, so the scheduling pass sees its capacity.
OUTAGE_END = 1
#: New work arrives: a task (flat mode) or a whole workflow instance
#: (DAG mode); the driver interprets the payload.
ARRIVAL = 2
#: A node drain begins — after same-instant arrivals have queued, so the
#: scheduling pass that follows the event batch sees the node as gone.
OUTAGE_START = 3


class EventHeap:
    """The kernel's calendar: a min-heap of ``(time, kind, seq, payload)``.

    The kernel's hot loop reads ``_heap`` directly (peek at
    ``_heap[0][0]``, pop via :func:`heapq.heappop`) and pushes
    completions with ``_seq`` itself, skipping the method and property
    indirection; the entry layout is therefore part of the
    kernel-internal contract.  A pickled heap keeps its ``_seq``, so
    events pushed after a resume sort after the ones pushed before.
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, object]] = []
        self._seq = 0

    def push(self, time: float, kind: int, payload: object) -> None:
        heapq.heappush(self._heap, (time, kind, self._seq, payload))
        self._seq += 1

    def pop(self) -> tuple[float, int, object]:
        time, kind, _, payload = heapq.heappop(self._heap)
        return time, kind, payload

    @property
    def next_time(self) -> float:
        """Timestamp of the earliest pending event."""
        return self._heap[0][0]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
