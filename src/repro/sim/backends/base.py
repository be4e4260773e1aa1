"""Shared constants and helpers of the simulation backend.

The kernel (:mod:`repro.sim.kernel`) and
:class:`~repro.sim.backends.event.EventDrivenBackend` read the attempt
cap, the doubling factor and the prediction chunk from here, clamp
every allocation through :func:`clamp_allocation_checked`, and build
:class:`~repro.sim.results.ClusterMetrics` with
:func:`build_cluster_metrics`.
"""

from __future__ import annotations

from repro.cluster.manager import ResourceManager
from repro.sim.errors import UnschedulableTaskError
from repro.sim.results import ClusterMetrics
from repro.workflow.task import TaskInstance

__all__ = [
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
