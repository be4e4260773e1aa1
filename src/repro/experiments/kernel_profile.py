"""Kernel phase profiles across engine modes: where does the time go?

The event kernel executes the same size→place→run→kill cycle whether it
is draining a flat FCFS queue, walking a workflow DAG, or re-queueing
preempted tasks around a node drain — but the *cost distribution* over
those phases shifts with the mode.  This cell runs one workload through
a small grid of kernel configurations with the phase profiler enabled
(:class:`~repro.obs.profile.KernelProfile`) and reports, per
configuration, the per-phase wall-time shares and the events/sec
throughput — the numbers that tell future optimization work which
phase to attack first.

The grid deliberately spans the three structurally different loops:

- ``flat-batch`` — every task submitted at t=0, pure queue drain;
- ``flat-poisson`` — timed arrivals interleave ARRIVAL and COMPLETION
  events, exercising the heap phase;
- ``flat-outage`` — a scheduled node drain adds preemption/re-queue
  traffic (kill + outage phases);
- ``dag-trace`` — DAG-aware scheduling pays extra sizing waves as
  dependencies resolve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.factories import method_factories
from repro.experiments.report import render_table
from repro.sim.backends import EventDrivenBackend
from repro.sim.engine import OnlineSimulator
from repro.workload import parse_workload

__all__ = ["ProfileCell", "CELLS", "collect", "run"]


@dataclass(frozen=True)
class ProfileCell:
    """One profiled kernel configuration."""

    name: str
    arrival: str | None = None
    dag: str | None = None
    node_outage: tuple[str, ...] = ()
    backend_kwargs: dict = field(default_factory=dict)

    def backend(self, seed: int) -> EventDrivenBackend:
        kwargs: dict = dict(self.backend_kwargs)
        if self.arrival is not None:
            kwargs["arrival"] = self.arrival
        if self.dag is not None:
            kwargs["dag"] = self.dag
        if self.node_outage:
            kwargs["node_outage"] = self.node_outage
        return EventDrivenBackend(seed=seed, **kwargs)


CELLS: tuple[ProfileCell, ...] = (
    ProfileCell(name="flat-batch"),
    ProfileCell(name="flat-poisson", arrival="poisson:40"),
    ProfileCell(
        name="flat-outage",
        arrival="poisson:40",
        node_outage=("0.05:0.2:0",),
    ),
    ProfileCell(name="dag-trace", dag="trace"),
)


def collect(
    workflow: str = "iwd",
    method: str = "Sizey",
    scale: float = 0.2,
    seed: int = 0,
    cells: tuple[ProfileCell, ...] = CELLS,
) -> dict[str, dict]:
    """Profile every cell; returns ``{cell_name: profile_to_dict(...)}``."""
    factory = method_factories()[method]
    out: dict[str, dict] = {}
    for cell in cells:
        source = parse_workload(
            f"synthetic:{workflow}", seed=seed, scale=scale
        )
        sim = OnlineSimulator(
            source, backend=cell.backend(seed), profile=True
        )
        result = sim.run(factory())
        assert result is not None and result.profile is not None
        out[cell.name] = result.profile.to_dict()
    return out


def run(
    workflow: str = "iwd",
    method: str = "Sizey",
    scale: float = 0.2,
    seed: int = 0,
) -> dict[str, dict]:
    """Print the phase-share table per cell; returns the collected dicts."""
    profiles = collect(
        workflow=workflow, method=method, scale=scale, seed=seed
    )
    from repro.obs.profile import PHASE_ORDER

    rank = {name: i for i, name in enumerate(PHASE_ORDER)}
    phases = sorted(
        {name for prof in profiles.values() for name in prof["phases"]},
        key=lambda name: (rank.get(name, len(PHASE_ORDER)), name),
    )
    rows = []
    for cell_name, prof in profiles.items():
        wall = prof["wall_seconds"] or 1.0
        row = [cell_name, prof["n_events"], f"{prof['events_per_sec']:,.0f}"]
        row += [
            f"{prof['phases'][p]['seconds'] / wall * 100:.1f}%"
            if p in prof["phases"]
            else "-"
            for p in phases
        ]
        rows.append(row)
    print(
        render_table(
            ["cell", "events", "events/s", *phases],
            rows,
            title=(
                f"kernel phase shares: {workflow} x {method} "
                f"(scale={scale}, seed={seed})"
            ),
        )
    )
    return profiles


if __name__ == "__main__":  # pragma: no cover
    run()
