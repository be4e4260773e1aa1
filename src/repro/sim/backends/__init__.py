"""Pluggable simulation backends.

- :mod:`repro.sim.backends.base` -- the :class:`SimulatorBackend`
  protocol and shared constants and helpers (attempt cap, doubling
  factor, prediction chunk, checked allocation clamping).
- :mod:`repro.sim.backends.replay` -- the paper's serialized per-task
  replay (``backend="replay"``, the default): the unified simulation
  kernel (:mod:`repro.sim.kernel`) driven with one task in flight.
- :mod:`repro.sim.backends.event` -- the event backend over the same
  kernel: real node concurrency, FCFS queueing, cluster metrics,
  node-drain scenarios and DAG-aware scheduling (``backend="event"``).

:data:`BACKENDS` maps each name to its class; any other object
satisfying :class:`SimulatorBackend` is accepted as an instance.
"""

from repro.sim.backends.base import SimulatorBackend
from repro.sim.backends.event import EventDrivenBackend
from repro.sim.backends.replay import ReplayBackend

#: The backends addressable by name (``backend="event"``, ``--backend``).
BACKENDS: dict[str, type[SimulatorBackend]] = {
    "replay": ReplayBackend,
    "event": EventDrivenBackend,
}

__all__ = [
    "BACKENDS",
    "SimulatorBackend",
    "ReplayBackend",
    "EventDrivenBackend",
]
