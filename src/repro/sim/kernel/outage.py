"""Scheduled node drain/outage windows.

A :class:`NodeOutage` takes one node out of service for a window of
simulated time: placement on the node pauses, and attempts running on it
when the window opens are *preempted* — their memory is freed, their
in-flight completion events are invalidated, and they re-enter the ready
queue at their original priority with their allocation and attempt
budget intact.  Preemption is the cluster's fault, not the sizing
method's, so it charges **nothing** to the wastage ledger and does not
count as a prediction failure; the occupied memory-hours still show up
in the cluster utilization metrics, because the memory really was held.

Because outages are kernel-level events, the scenario works identically
in the flat event backend and the DAG scheduling engine.

Spec strings (CLI ``--node-outage``, repeatable)::

    "0.5:2:3"    node 3 drains at t=0.5 h for 2 h
    "1:0.25:0"   node 0 drains at t=1 h for 15 minutes
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import ConfigError

__all__ = ["NodeOutage", "parse_node_outage", "parse_node_outages"]


@dataclass(frozen=True)
class NodeOutage:
    """One drain window: ``node_id`` is gone during ``[start, start+duration)``.

    The start is a finite number of hours.  An infinite duration is a
    permanent drain: the node never returns during the run (its end
    event sorts after every other event).
    """

    start_hours: float
    duration_hours: float
    node_id: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.start_hours) or self.start_hours < 0:
            raise ConfigError(
                f"outage start must be >= 0 hours, got {self.start_hours}"
            )
        if math.isnan(self.duration_hours) or self.duration_hours <= 0:
            raise ConfigError(
                f"outage duration must be positive, got {self.duration_hours}"
            )
        if self.node_id < 0:
            raise ConfigError(f"node id must be >= 0, got {self.node_id}")

    @property
    def end_hours(self) -> float:
        return self.start_hours + self.duration_hours

    @property
    def spec(self) -> str:
        return f"{self.start_hours:g}:{self.duration_hours:g}:{self.node_id}"


def parse_node_outage(spec: str | NodeOutage) -> NodeOutage:
    """Parse an outage spec ``"START:DURATION:NODE"`` (hours, hours, id)."""
    if isinstance(spec, NodeOutage):
        return spec
    if not isinstance(spec, str):
        raise TypeError(
            f"node outage must be a spec string or NodeOutage, got {type(spec)!r}"
        )
    parts = spec.strip().split(":")
    if len(parts) != 3:
        raise ConfigError(
            f"bad node-outage spec {spec!r}: expected 'START:DURATION:NODE', "
            f"e.g. '0.5:2:3'"
        )
    try:
        start, duration = float(parts[0]), float(parts[1])
        node_id = int(parts[2])
    except ValueError:
        raise ConfigError(
            f"bad node-outage spec {spec!r}: START/DURATION are hours, "
            f"NODE is an integer node id"
        ) from None
    try:
        return NodeOutage(start, duration, node_id)
    except ValueError as exc:
        raise ConfigError(f"bad node-outage spec {spec!r}: {exc}") from None


def parse_node_outages(
    specs: str | NodeOutage | Iterable[str | NodeOutage] | None,
) -> tuple[NodeOutage, ...]:
    """Normalize an outage option — one spec, a list, or ``None``."""
    if specs is None:
        return ()
    if isinstance(specs, (str, NodeOutage)):
        specs = [specs]
    if not isinstance(specs, Sequence):
        specs = list(specs)
    return tuple(parse_node_outage(s) for s in specs)
