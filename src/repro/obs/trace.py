"""Chrome ``trace_event`` export for kernel runs.

:class:`TraceCollector` is an ordinary composable
:class:`~repro.sim.kernel.collectors.MetricsCollector`: it observes a
run through the standard callbacks and writes a Chrome trace JSON file
(``{"traceEvents": [...]}``) in :meth:`contribute`.  Load the file in
``about:tracing`` or https://ui.perfetto.dev.

Track layout:

- one *process* per cluster node (``pid = node_id``), named
  ``node<id>`` via ``M`` metadata events;
- within a node, *thread* 0 is the outage lane and threads 1..k are
  task occupancy lanes — concurrent attempts on the same node get
  distinct lanes, so occupancy reads like a Gantt chart;
- every attempt is a ``ph="X"`` complete event spanning its occupied
  interval, categorized by its ``on_attempt_end`` outcome
  (``success`` / ``kill`` / ``preempt``) and carrying its attempt
  number;
- kills, resizes (re-dispatch after a kill), and preemptions add
  ``ph="i"`` instant markers on the same lane;
- a synthetic *cluster* process (``pid = CLUSTER_PID``) carries a
  ``ph="C"`` ``queue_depth`` counter updated on every ready/dispatch
  transition.

Timestamps are microseconds of simulated time (1 simulated hour =
3.6e9 µs), so the viewer's clock reads as real cluster time.

For million-task runs pass ``limit=N`` to keep only the most recent
``N`` events in a bounded ring buffer (metadata is exempt, so node
names always survive eviction).
"""

from __future__ import annotations

import json
from collections import deque
from heapq import heappop, heappush

from repro.errors import ConfigError
from repro.sim.kernel.collectors import KILL, PREEMPT, SUCCESS, BaseCollector

__all__ = ["CLUSTER_PID", "US_PER_HOUR", "TraceCollector"]

#: Simulated hours → trace microseconds.
US_PER_HOUR = 3_600_000_000.0
#: Synthetic pid for cluster-wide tracks (queue depth).
CLUSTER_PID = 1_000_000
#: Reserved tid for outage spans on each node process.
OUTAGE_TID = 0

_CAT_COLOR = {
    SUCCESS: "good",
    KILL: "terrible",
    PREEMPT: "bad",
}


class TraceCollector(BaseCollector):
    """Collect kernel lifecycle events as Chrome ``trace_event`` JSON.

    Parameters
    ----------
    path:
        Output file written when the run finishes (``contribute``).
        ``None`` keeps the events in memory only (useful in tests via
        :meth:`trace_events`).
    limit:
        Optional ring-buffer bound on the number of retained
        (non-metadata) events; the oldest events are evicted first.
    """

    def __init__(self, path: str | None = None, limit: int | None = None):
        if limit is not None and limit <= 0:
            raise ConfigError(f"trace_limit must be >= 1, got {limit}")
        self.path = str(path) if path is not None else None
        self.limit = limit
        self._events: deque = deque(maxlen=limit)
        self._meta: list[dict] = []
        # Per-node occupancy lanes: free lane numbers (min-heap) and the
        # next never-used lane; a state's lane is held from dispatch to
        # release so concurrent attempts never share a track.
        self._free_lanes: dict[int, list[int]] = {}
        self._next_lane: dict[int, int] = {}
        self._lane_of: dict[int, tuple[int, int]] = {}  # id(state) -> (pid, tid)
        self._outage_start: dict[int, float] = {}
        self._queue_depth = 0

    # ------------------------------------------------------------------
    # kernel callbacks
    # ------------------------------------------------------------------
    def on_run_start(self, manager) -> None:
        self._meta = [
            self._process_meta(CLUSTER_PID, "cluster"),
        ]
        for node in manager.nodes:
            self._meta.append(
                self._process_meta(node.node_id, f"node{node.node_id}")
            )
        self._counter(0.0)

    def on_ready(self, state, now) -> None:
        self._queue_depth += 1
        self._counter(now)

    def on_dispatch(self, state, now, node, wait_hours) -> None:
        self._queue_depth -= 1
        self._counter(now)
        lane = self._acquire_lane(node.node_id)
        self._lane_of[id(state)] = (node.node_id, lane)
        if state.attempt > 1:
            self._instant(
                "resize",
                now,
                node.node_id,
                lane,
                {
                    "instance_id": state.instance_id,
                    "attempt": state.attempt,
                    "allocated_mb": state.running[2],
                },
            )

    def on_attempt_end(
        self, state, now, node, allocated_mb, occupied_hours, outcome
    ) -> None:
        pid, lane = self._lane_of.pop(id(state), (node.node_id, 0))
        self._release_lane(pid, lane)
        self._span(
            state, outcome, pid, lane, now - occupied_hours, occupied_hours
        )
        if outcome == KILL:
            self._instant(
                "kill",
                now,
                pid,
                lane,
                {
                    "instance_id": state.instance_id,
                    "attempt": state.attempt,
                    "allocated_mb": allocated_mb,
                    "peak_memory_mb": state.inst.peak_memory_mb,
                },
            )
        elif outcome == PREEMPT:
            self._instant(
                "preempt",
                now,
                pid,
                lane,
                {"instance_id": state.instance_id},
            )

    def on_outage(self, node_id, now, active) -> None:
        if active:
            self._outage_start[node_id] = now
        else:
            start = self._outage_start.pop(node_id, now)
            self._events.append(
                {
                    "name": "outage",
                    "cat": "outage",
                    "ph": "X",
                    "ts": start * US_PER_HOUR,
                    "dur": (now - start) * US_PER_HOUR,
                    "pid": node_id,
                    "tid": OUTAGE_TID,
                    "cname": "grey",
                }
            )

    def contribute(self, result) -> None:
        if self.path is not None:
            with open(self.path, "w") as fh:
                json.dump(self.trace_json(), fh)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def trace_events(self) -> list[dict]:
        """All retained events, metadata first (the on-disk order)."""
        return [*self._meta, *self._events]

    def trace_json(self) -> dict:
        return {
            "traceEvents": self.trace_events(),
            "displayTimeUnit": "ms",
            "otherData": {"tool": "repro", "time_unit": "1 hour = 3.6e9 us"},
        }

    # ------------------------------------------------------------------
    # event builders
    # ------------------------------------------------------------------
    def _span(
        self, state, cat: str, pid: int, tid: int, start: float, dur: float
    ) -> None:
        inst = state.inst
        self._events.append(
            {
                "name": inst.task_type.name,
                "cat": cat,
                "ph": "X",
                "ts": start * US_PER_HOUR,
                "dur": dur * US_PER_HOUR,
                "pid": pid,
                "tid": tid,
                "args": {
                    "instance_id": state.instance_id,
                    "attempt": state.attempt,
                    "peak_memory_mb": inst.peak_memory_mb,
                },
                "cname": _CAT_COLOR[cat],
            }
        )

    def _instant(
        self, name: str, now: float, pid: int, tid: int, args: dict
    ) -> None:
        self._events.append(
            {
                "name": name,
                "cat": name,
                "ph": "i",
                "s": "t",
                "ts": now * US_PER_HOUR,
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )

    def _counter(self, now: float) -> None:
        self._events.append(
            {
                "name": "queue_depth",
                "ph": "C",
                "ts": now * US_PER_HOUR,
                "pid": CLUSTER_PID,
                "args": {"tasks": self._queue_depth},
            }
        )

    @staticmethod
    def _process_meta(pid: int, name: str) -> dict:
        return {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "args": {"name": name},
        }

    # ------------------------------------------------------------------
    # lane bookkeeping
    # ------------------------------------------------------------------
    def _acquire_lane(self, node_id: int) -> int:
        free = self._free_lanes.get(node_id)
        if free:
            return heappop(free)
        lane = self._next_lane.get(node_id, OUTAGE_TID + 1)
        self._next_lane[node_id] = lane + 1
        return lane

    def _release_lane(self, node_id: int, lane: int) -> None:
        if lane == OUTAGE_TID:  # pragma: no cover - defensive
            return
        heappush(self._free_lanes.setdefault(node_id, []), lane)
