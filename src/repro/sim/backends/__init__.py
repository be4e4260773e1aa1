"""The simulation backend.

- :mod:`repro.sim.backends.base` -- shared constants and helpers
  (attempt cap, doubling factor, prediction chunk, checked allocation
  clamping, cluster-metrics assembly).
- :mod:`repro.sim.backends.event` -- :class:`EventDrivenBackend`, which
  holds every simulation option and builds the unified simulation
  kernel (:mod:`repro.sim.kernel`) with one of its drivers: the paper's
  serialized per-task replay (``serial=True``: one task in flight), the
  flat event stream (real node concurrency, FCFS queueing, cluster
  metrics) or DAG-aware scheduling.

:data:`BACKENDS` names the two stock configurations; :func:`resolve_backend`
turns a name into its instance.
"""

from repro.errors import ConfigError
from repro.sim.backends.event import EventDrivenBackend

#: The backends addressable by name (``backend="event"``, ``--backend``):
#: the paper's serial replay and the concurrent event engine.
BACKENDS: dict[str, EventDrivenBackend] = {
    "replay": EventDrivenBackend(serial=True),
    "event": EventDrivenBackend(),
}


def resolve_backend(backend: "str | EventDrivenBackend") -> EventDrivenBackend:
    """The backend ``backend`` names in :data:`BACKENDS`, or ``backend``."""
    if isinstance(backend, EventDrivenBackend):
        return backend
    if not isinstance(backend, str):
        raise TypeError(
            f"backend must be a name or an EventDrivenBackend, got "
            f"{type(backend)!r}"
        )
    try:
        return BACKENDS[backend]
    except KeyError:
        raise ConfigError(
            f"unknown backend {backend!r}; choose from {sorted(BACKENDS)}"
        ) from None


__all__ = ["BACKENDS", "EventDrivenBackend", "resolve_backend"]
