"""The serialized replay backend — the paper's original semantics.

Replays a workflow trace in submission order against one predictor, one
task at a time (§III-A/§IV of the paper): a task is sized, run under
strict limits (assumption A3) with the configured time-to-failure,
re-sized and re-run after each kill, and its success is observed for
online learning before the next task is sized.

:class:`SerialDriver` plugs that order into the simulation kernel
(:mod:`repro.sim.kernel`) by keeping exactly one task in flight, so
replay and the event backend share every lifecycle step — sizing
through ``predict_batch``, the clamp, the kill and the doubling-factor
escalation floor, the wastage accounting.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.cluster.manager import ResourceManager
from repro.sim.interface import MemoryPredictor
from repro.sim.kernel.core import SimulationKernel, TaskState
from repro.sim.kernel.events import ARRIVAL
from repro.sim.results import SimulationResult
from repro.workflow.task import TaskInstance, WorkflowTrace
from repro.workload.base import WorkloadSource

__all__ = ["ReplayBackend", "SerialDriver"]


class SerialDriver:
    """Kernel driver with one task in flight: the paper's serial replay.

    :meth:`seed` pushes task 0's arrival at t = 0, and each success
    returns the next task's state, read lazily from
    ``source.iter_tasks()`` — a streaming source is never materialized,
    and reports ``n_tasks`` as -1 when it cannot know its length.  The
    cluster is empty whenever a task is dispatched, so every clamped
    allocation finds a node.
    """

    def __init__(self) -> None:
        self.n_tasks = 0
        self._tasks: Iterator[TaskInstance] | None = None
        self._submitted = 0

    def seed(self, kernel: SimulationKernel) -> None:
        source = kernel.source
        self.n_tasks = -1 if source.n_tasks is None else source.n_tasks
        self._tasks = iter(source.iter_tasks())
        for state in self._next(0.0):
            kernel.events.push(0.0, ARRIVAL, state)

    def _next(self, now: float) -> tuple[TaskState, ...]:
        """The next task's state, submitted at ``now``; ``()`` at the end."""
        inst = next(self._tasks, None)
        if inst is None:
            return ()
        index = self._submitted
        self._submitted = index + 1
        return (TaskState(inst, inst.instance_id, index, arrival=now),)

    def on_arrival(self, payload: object, now: float) -> Iterable[TaskState]:
        return (payload,)

    def on_success(self, state: TaskState, now: float) -> Iterable[TaskState]:
        return self._next(now)

    def finish(self, kernel: SimulationKernel) -> None:
        pass


class ReplayBackend:
    """One-task-at-a-time replay (paper fidelity; no concurrency).

    Runs the kernel with a :class:`SerialDriver` and only the wastage
    collector, so the result carries no cluster metrics.
    """

    name = "replay"

    def run(
        self,
        workload: "WorkloadSource | WorkflowTrace | str",
        predictor: MemoryPredictor,
        manager: ResourceManager,
        time_to_failure: float,
    ) -> SimulationResult:
        result = SimulationKernel(
            workload,
            predictor,
            manager,
            time_to_failure,
            driver=SerialDriver(),
        ).run()
        assert result is not None
        return result
