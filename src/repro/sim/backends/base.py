"""The simulation-backend seam: protocol, shared constants and helpers.

A backend owns the execution semantics of one trace replay — how tasks
move through time and occupy the cluster — while the predictor contract,
wastage accounting, and result schema stay identical across backends.
Two implementations ship, addressable by name through
:data:`repro.sim.backends.BACKENDS`, and both run the one simulation
kernel (:mod:`repro.sim.kernel`):

- :class:`~repro.sim.backends.replay.ReplayBackend` (``"replay"``): the
  paper's serialized evaluation, one task in flight at a time.
- :class:`~repro.sim.backends.event.EventDrivenBackend` (``"event"``): a
  discrete-event engine where tasks concurrently occupy nodes, exposing
  queueing wait, makespan, and per-node utilization.

Any other object satisfying :class:`SimulatorBackend` can be passed to
:class:`~repro.sim.engine.OnlineSimulator` as an instance.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.cluster.manager import ResourceManager
from repro.sim.errors import UnschedulableTaskError
from repro.sim.interface import MemoryPredictor
from repro.sim.results import ClusterMetrics, SimulationResult
from repro.workflow.task import TaskInstance, WorkflowTrace

__all__ = [
    "SimulatorBackend",
    "clamp_allocation_checked",
    "build_cluster_metrics",
    "MAX_ATTEMPTS",
    "DOUBLING_FACTOR",
    "PREDICTION_CHUNK",
]

#: Hard cap on attempts per task; doubling from 1 MB exceeds any node
#: capacity well before this, so hitting it indicates a predictor bug
#: (genuinely impossible tasks are caught earlier and raise the typed
#: :class:`UnschedulableTaskError` instead).
MAX_ATTEMPTS = 30

#: Escalation floor after a kill: when the predictor's retry proposal
#: does not grow, the next allocation is the failed one times this
#: factor (paper §II-E: "continuously doubled").
DOUBLING_FACTOR = 2.0

#: How many queued tasks the kernel sizes per ``predict_batch`` call.
#: It requests predictions only as its dispatch window reaches unsized
#: tasks, so tasks deep in the queue are sized *after* earlier
#: completions were observed — online learning survives the batching.
PREDICTION_CHUNK = 32


@runtime_checkable
class SimulatorBackend(Protocol):
    """What :class:`~repro.sim.engine.OnlineSimulator` delegates to.

    A backend replays a workload against ``predictor`` on ``manager``
    under the given ``time_to_failure`` and returns a fully populated
    :class:`~repro.sim.results.SimulationResult`.  ``workload`` is
    anything :func:`~repro.workload.base.as_source` accepts — a
    :class:`~repro.workload.base.WorkloadSource`, a materialized
    :class:`~repro.workflow.task.WorkflowTrace`, or a workload spec
    string — and implementations pull tasks from it lazily.
    Implementations must call the predictor's
    ``begin_trace``/``end_trace`` lifecycle hooks and reset the
    manager's bookkeeping at the start of each run.
    """

    #: Name of the backend (its key in ``BACKENDS``, the CLI choice).
    name: str

    def run(
        self,
        workload: "object | WorkflowTrace",
        predictor: MemoryPredictor,
        manager: ResourceManager,
        time_to_failure: float,
    ) -> SimulationResult:
        ...


def clamp_allocation_checked(
    manager: ResourceManager,
    inst: TaskInstance,
    request_mb: float,
    instance_id: int,
) -> float:
    """Clamp a request to the largest node's capacity, rejecting
    impossible tasks and NaN requests.

    The one allocation clamp: the kernel's sizing wave and its re-size
    after a kill both call it.
    ``instance_id`` is the id the run reports for ``inst`` (a DAG copy
    shifts its trace's ids).

    A task whose *true* peak exceeds the capacity of the largest node
    that could ever host it can never succeed no matter how the retry
    policy grows the allocation; detecting that at clamp time turns a
    futile doubling loop into an immediate, typed
    :class:`UnschedulableTaskError`.  On a heterogeneous cluster the
    bound is the *largest* node — a task too big for the small nodes but
    fitting the big ones is schedulable.  A NaN request passes every
    bound unclamped and would never fit a node, so it raises
    ``ValueError``: a predictor bug, not bad user input.
    """
    cap = manager.max_allocation_mb
    if inst.peak_memory_mb > cap:
        raise UnschedulableTaskError(
            task_type=inst.task_type.key,
            instance_id=instance_id,
            peak_memory_mb=inst.peak_memory_mb,
            capacity_mb=cap,
        )
    request_mb = float(request_mb)
    if request_mb != request_mb:
        raise ValueError(
            f"predictor sized task instance {instance_id} of type "
            f"{inst.task_type.key!r} at {request_mb} MB; an allocation "
            f"must be a number"
        )
    return manager.clamp_allocation(request_mb)


def build_cluster_metrics(
    manager: ResourceManager,
    makespan: float,
    queue_waits: list[float],
    busy_mbh: dict[int, float],
    timelines: dict[int, list[tuple[float, float]]],
) -> ClusterMetrics:
    """Assemble :class:`ClusterMetrics` from an event engine's ledgers.

    Used by the kernel's
    :class:`~repro.sim.kernel.collectors.ClusterMetricsCollector`, so
    every mode reports utilization with the same convention: each
    node's busy memory-hours divided by *that node's* capacity times the
    makespan — on a heterogeneous cluster a shared denominator would let
    a small node report < 100% while fully busy (or a big node > 100%).
    """
    mb_per_gb = 1024.0
    busy_gbh = {n: v / mb_per_gb for n, v in busy_mbh.items()}
    capacity_gb = {
        n: mb / mb_per_gb for n, mb in manager.node_capacities_mb().items()
    }
    utilization = {
        n: (v / (capacity_gb[n] * makespan) if makespan > 0 else 0.0)
        for n, v in busy_gbh.items()
    }
    return ClusterMetrics(
        makespan_hours=makespan,
        total_queue_wait_hours=float(sum(queue_waits)),
        mean_queue_wait_hours=(
            float(sum(queue_waits) / len(queue_waits)) if queue_waits else 0.0
        ),
        max_queue_wait_hours=(
            float(max(queue_waits)) if queue_waits else 0.0
        ),
        node_busy_memory_gbh=busy_gbh,
        node_utilization=utilization,
        node_timelines=timelines,
        node_capacity_gb=capacity_gb,
    )
