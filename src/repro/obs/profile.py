"""Kernel phase profiler: lap timers and per-phase accounting.

The profiler answers one question about the simulation kernel: where
does the event loop spend its wall time?  It partitions the kernel's
lifecycle into named phases (heap churn, arrivals, sizing waves,
placement scans, dispatch bookkeeping, completion/kill handling,
collector callbacks, outage management, finalization) and charges every
interval of wall time to exactly one phase, so per-phase totals sum to
~100% of the instrumented loop's wall time.

Design notes:

- :class:`PhaseTimer` is *lap-based*, not stack-based: ``lap(phase)``
  charges the time since the previous lap to ``phase`` and restarts the
  clock.  This makes instrumentation a straight-line sequence of calls
  between existing statements — no try/finally, no context-manager
  overhead on the hot path — and guarantees the intervals tile the
  timeline exactly.
- The kernel has one event loop, ``SimulationKernel._loop``, which
  takes the run's timer or ``None``.  Each lap there sits behind an
  ``if timer is not None:`` check, so with profiling off the loop never
  reads the clock and pays about ten ``is not None`` tests per task.
  That loop's docstring lists which statements each phase covers.
- :class:`KernelProfile` is a plain mergeable value object so sharded
  runs (``run_sharded``) can sum per-shard profiles into one.
- Checkpoint-safe: pickling a :class:`PhaseTimer` drops the in-flight
  lap origin, so a resumed run simply starts a fresh lap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["PHASE_ORDER", "KernelProfile", "PhaseStat", "PhaseTimer", "profile_to_dict"]

# Canonical display order for kernel phases.  Unknown phases sort after
# these, alphabetically.
PHASE_ORDER = (
    "seed",
    "heap",
    "wave",
    "arrival",
    "size",
    "place",
    "dispatch",
    "success",
    "kill",
    "outage",
    "collect",
    "finalize",
)


@dataclass
class PhaseStat:
    """Accumulated wall time and call count for one kernel phase."""

    calls: int = 0
    seconds: float = 0.0

    def merge(self, other: "PhaseStat") -> None:
        self.calls += other.calls
        self.seconds += other.seconds


@dataclass
class KernelProfile:
    """Per-phase wall-time accounting for one (or many merged) kernel runs.

    ``wall_seconds`` is the total wall time of the instrumented region
    (kernel ``run()``), while the phase stats partition the portion of
    it the timer observed; the two agree to within timer granularity.
    ``n_events`` counts heap events popped, so ``events_per_sec`` is
    directly comparable with the BENCH kernel-throughput metrics.
    """

    phases: dict[str, PhaseStat] = field(default_factory=dict)
    n_events: int = 0
    wall_seconds: float = 0.0
    n_runs: int = 1

    def stat(self, phase: str) -> PhaseStat:
        found = self.phases.get(phase)
        if found is None:
            found = self.phases[phase] = PhaseStat()
        return found

    @property
    def total_phase_seconds(self) -> float:
        return sum(stat.seconds for stat in self.phases.values())

    @property
    def events_per_sec(self) -> float:
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.n_events / self.wall_seconds

    def merge(self, other: "KernelProfile") -> None:
        for name, stat in other.phases.items():
            self.stat(name).merge(stat)
        self.n_events += other.n_events
        self.wall_seconds += other.wall_seconds
        self.n_runs += other.n_runs

    def sorted_phases(self) -> list[tuple[str, PhaseStat]]:
        rank = {name: i for i, name in enumerate(PHASE_ORDER)}
        fallback = len(PHASE_ORDER)
        return sorted(
            self.phases.items(),
            key=lambda item: (rank.get(item[0], fallback), item[0]),
        )

    def to_dict(self) -> dict:
        return profile_to_dict(self)

    def render_rows(self) -> list[dict]:
        """Table rows for CLI display: phase, calls, seconds, % of wall."""
        wall = self.wall_seconds
        rows = []
        for name, stat in self.sorted_phases():
            share = stat.seconds / wall if wall > 0.0 else 0.0
            rows.append(
                {
                    "phase": name,
                    "calls": stat.calls,
                    "seconds": stat.seconds,
                    "share": share,
                }
            )
        return rows


def profile_to_dict(profile: KernelProfile) -> dict:
    """Serialize a profile for ``--json`` output and CI assertions."""
    return {
        "phases": {
            name: {"calls": stat.calls, "seconds": stat.seconds}
            for name, stat in profile.sorted_phases()
        },
        "n_events": profile.n_events,
        "n_runs": profile.n_runs,
        "wall_seconds": profile.wall_seconds,
        "phase_seconds": profile.total_phase_seconds,
        "events_per_sec": profile.events_per_sec,
    }


class PhaseTimer:
    """Lap-based interval timer writing into a :class:`KernelProfile`.

    ``lap(phase)`` charges the interval since the previous ``start()``
    or ``lap()`` to ``phase``.  Consecutive laps therefore tile the
    instrumented region with no gaps or double counting.
    """

    __slots__ = ("profile", "_clock", "_last", "_run_started")

    def __init__(self, profile: KernelProfile, clock=time.perf_counter):
        self.profile = profile
        self._clock = clock
        self._last: float | None = None
        self._run_started: float | None = None

    def start(self) -> None:
        """Begin (or resume) an instrumented region."""
        now = self._clock()
        self._last = now
        if self._run_started is None:
            self._run_started = now

    def lap(self, phase: str) -> None:
        """Charge time since the previous lap to ``phase``."""
        now = self._clock()
        last = self._last
        self._last = now
        stat = self.profile.stat(phase)
        stat.calls += 1
        if last is not None:
            stat.seconds += now - last

    def stop(self) -> None:
        """End the instrumented region, folding it into ``wall_seconds``."""
        now = self._clock()
        if self._run_started is not None:
            self.profile.wall_seconds += now - self._run_started
        self._run_started = None
        self._last = None

    def __getstate__(self):
        # In-flight lap origins are wall-clock instants from a previous
        # process; a resumed run must start a fresh lap instead of
        # charging the downtime to a phase.
        return {"profile": self.profile}

    def __setstate__(self, state):
        self.profile = state["profile"]
        self._clock = time.perf_counter
        self._last = None
        self._run_started = None
