"""Arrival models: the single source of truth for how work arrives.

The replay backend has no notion of time between submissions; the event
backend originally supported only a fixed inter-arrival gap.  Real
workflow engines submit work in anything but a fixed cadence, so the
arrival process is a seam: an :class:`ArrivalModel` (any object with a
``name`` and a ``sample(n, rng)`` method) maps a trace length to the
absolute submission times of its tasks.

- ``"fixed:H"`` — task *i* arrives at ``i * H`` hours (``H = 0``
  models a batch submission of the whole trace, the default).
- ``"poisson:R"`` — a Poisson process with rate ``R`` arrivals per
  hour: inter-arrival gaps are i.i.d. exponential draws from the run's
  seeded RNG, so a fixed seed reproduces the exact arrival times.
- ``"bursty:NxG"`` — bursts of ``N`` simultaneous submissions spaced
  ``G`` hours apart (e.g. ``"bursty:8x0.5"``) — the scatter-gather
  pattern of scientific workflows that fan a stage out all at once.

Stochastic models draw exclusively from the RNG handed to ``sample``,
never from global state, so the event backend stays deterministic under
a fixed seed.  ``sample`` must return non-decreasing times: the flat
driver draws a run's whole schedule once and keeps one arrival pending,
so it refuses a schedule that decreases.  A workload that cannot report
its length is materialized first, so every source gets this schedule.

The workflow-level model lives here too: on a shared cluster the unit of
submission is often the whole workflow — users hand the SWMS complete
DAGs, and several users' runs contend for the same nodes.
:class:`WorkflowArrivals` captures that: it fixes how many workflow
instances are injected, reuses the task-level :class:`ArrivalModel`
machinery for the instance arrival times, and assigns each instance to a
tenant round-robin.  Spec strings, accepted everywhere a
``workflow_arrival`` option exists (backend, runner, CLI
``--workflow-arrival``)::

    "4"               four instances, all submitted at t=0
    "4@fixed:1.5"     four instances, 1.5 h apart
    "4@poisson:2"     four instances, Poisson process at 2/h
    "6@bursty:2x0.5"  six instances in bursts of two, 0.5 h apart
    "4@poisson:2@tenants:2"   same, shared by two users round-robin
"""

from __future__ import annotations

import math
from typing import Protocol, runtime_checkable

import numpy as np

from repro.errors import ConfigError

__all__ = [
    "ArrivalModel",
    "FixedArrivals",
    "PoissonArrivals",
    "BurstyArrivals",
    "parse_arrival",
    "WorkflowArrivals",
    "parse_workflow_arrival",
]


@runtime_checkable
class ArrivalModel(Protocol):
    """Maps a trace length to absolute submission times (hours)."""

    #: Spec / display name of the model.
    name: str

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Non-decreasing arrival times for ``n`` tasks, shape ``(n,)``."""
        ...


class FixedArrivals:
    """Evenly spaced submissions: task ``i`` arrives at ``i * interval``."""

    name = "fixed"

    def __init__(self, interval_hours: float = 0.0) -> None:
        if not math.isfinite(interval_hours) or interval_hours < 0:
            raise ConfigError(
                f"interval_hours must be >= 0, got {interval_hours}"
            )
        self.interval_hours = interval_hours

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.arange(n, dtype=np.float64) * self.interval_hours


class PoissonArrivals:
    """Poisson process: exponential inter-arrival gaps, seeded RNG."""

    name = "poisson"

    def __init__(self, rate_per_hour: float) -> None:
        if not math.isfinite(rate_per_hour) or rate_per_hour <= 0:
            raise ConfigError(
                f"rate_per_hour must be positive, got {rate_per_hour}"
            )
        self.rate_per_hour = rate_per_hour

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n == 0:
            return np.empty(0, dtype=np.float64)
        gaps = rng.exponential(1.0 / self.rate_per_hour, size=n)
        # The first task arrives at t=0 (the run starts with work), the
        # gaps separate consecutive submissions.
        gaps[0] = 0.0
        return np.cumsum(gaps)


class BurstyArrivals:
    """Bursts of ``burst_size`` simultaneous arrivals, ``gap_hours`` apart."""

    name = "bursty"

    def __init__(self, burst_size: int, gap_hours: float) -> None:
        if burst_size < 1:
            raise ConfigError(f"burst_size must be >= 1, got {burst_size}")
        if not math.isfinite(gap_hours) or gap_hours < 0:
            raise ConfigError(f"gap_hours must be >= 0, got {gap_hours}")
        self.burst_size = burst_size
        self.gap_hours = gap_hours

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        bursts = np.arange(n, dtype=np.float64) // self.burst_size
        return bursts * self.gap_hours


def parse_arrival(spec: str | ArrivalModel) -> ArrivalModel:
    """Parse an arrival spec (``"fixed:0.25"``, ``"poisson:0.5"``,
    ``"bursty:8x0.5"``) or pass a ready-made model through."""
    if not isinstance(spec, str):
        if isinstance(spec, ArrivalModel):
            return spec
        raise TypeError(
            f"arrival must be a spec string or ArrivalModel, got {type(spec)!r}"
        )
    kind, _, arg = spec.strip().partition(":")
    kind = kind.lower()
    try:
        if kind in ("fixed", "batch"):
            return FixedArrivals(float(arg) if arg else 0.0)
        if kind == "poisson":
            if not arg:
                raise ConfigError("poisson needs a rate, e.g. 'poisson:0.5'")
            return PoissonArrivals(float(arg))
        if kind == "bursty":
            size_token, sep, gap_token = arg.partition("x")
            if not sep:
                raise ConfigError(
                    "bursty needs 'SIZExGAP', e.g. 'bursty:8x0.5'"
                )
            return BurstyArrivals(int(size_token), float(gap_token))
    except ValueError as exc:
        raise ConfigError(f"bad arrival spec {spec!r}: {exc}") from None
    raise ConfigError(
        f"unknown arrival model {kind!r} in {spec!r}; "
        f"expected fixed, poisson, or bursty"
    )


class WorkflowArrivals:
    """How many workflow instances arrive, when, and for which tenants.

    Parameters
    ----------
    n_instances:
        Number of whole-workflow copies injected into the simulation.
    arrival:
        Inter-instance arrival process — a task-level arrival spec
        string or :class:`ArrivalModel` (default: all instances
        submitted at t=0, a batch of competing runs).
    n_tenants:
        Number of distinct users owning the instances, assigned
        round-robin (``user0``, ``user1``, ...).  Defaults to one tenant
        per instance — every run belongs to a different user.
    """

    def __init__(
        self,
        n_instances: int = 1,
        arrival: str | ArrivalModel | None = None,
        n_tenants: int | None = None,
    ) -> None:
        if n_instances < 1:
            raise ConfigError(f"n_instances must be >= 1, got {n_instances}")
        if n_tenants is not None and n_tenants < 1:
            raise ConfigError(f"n_tenants must be >= 1, got {n_tenants}")
        self.n_instances = n_instances
        self.arrival = parse_arrival(
            FixedArrivals(0.0) if arrival is None else arrival
        )
        self.n_tenants = min(n_tenants or n_instances, n_instances)

    @property
    def name(self) -> str:
        return f"{self.n_instances}@{self.arrival.name}"

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Non-decreasing submission times for all instances (hours)."""
        return self.arrival.sample(self.n_instances, rng)

    def tenant(self, index: int) -> str:
        """Owning tenant of workflow instance ``index`` (round-robin)."""
        return f"user{index % self.n_tenants}"


def parse_workflow_arrival(
    spec: str | int | WorkflowArrivals,
) -> WorkflowArrivals:
    """Parse a workflow-arrival spec (see module docstring for forms)."""
    if isinstance(spec, WorkflowArrivals):
        return spec
    if isinstance(spec, int):
        return WorkflowArrivals(n_instances=spec)
    if not isinstance(spec, str):
        raise TypeError(
            f"workflow_arrival must be a spec string, an int count, or a "
            f"WorkflowArrivals, got {type(spec)!r}"
        )
    parts = spec.strip().split("@")
    n_tenants: int | None = None
    if len(parts) == 3:
        kind, _, arg = parts[2].partition(":")
        if kind != "tenants" or not arg:
            raise ConfigError(
                f"bad workflow-arrival spec {spec!r}: third segment must "
                f"be 'tenants:K'"
            )
        try:
            n_tenants = int(arg)
        except ValueError:
            raise ConfigError(
                f"bad workflow-arrival spec {spec!r}: tenant count "
                f"{arg!r} is not an integer"
            ) from None
        parts = parts[:2]
    if len(parts) > 2:
        raise ConfigError(
            f"bad workflow-arrival spec {spec!r}: expected "
            f"'N', 'N@ARRIVAL', or 'N@ARRIVAL@tenants:K'"
        )
    try:
        count = int(parts[0])
    except ValueError:
        raise ConfigError(
            f"bad workflow-arrival spec {spec!r}: instance count "
            f"{parts[0]!r} is not an integer"
        ) from None
    arrival = parts[1] if len(parts) == 2 else None
    try:
        return WorkflowArrivals(
            n_instances=count, arrival=arrival, n_tenants=n_tenants
        )
    except ValueError as exc:
        raise ConfigError(f"bad workflow-arrival spec {spec!r}: {exc}") from None
