"""The unified discrete-event simulation kernel.

One event loop for every execution mode.  The backend
(:class:`~repro.sim.backends.event.EventDrivenBackend`) builds every
kernel, plugging in its serial replay driver, its flat-stream driver or
the DAG scheduling driver (:mod:`repro.sched.engine`):

- :mod:`repro.sim.kernel.events` — the kernel's one typed event heap
  with deterministic three-level tie-breaking (time, kind, push
  sequence);
- :mod:`repro.sim.kernel.core` — :class:`SimulationKernel` (clock,
  dispatch/placement pass, the size → place → run → kill/re-queue
  lifecycle with batched ``predict_batch`` sizing), the kernel-owned
  FCFS :class:`ReadyQueue`, and the :class:`KernelDriver` seam drivers
  implement: they push arrival events and return the states that
  become ready, and the kernel queues them;
- :mod:`repro.sim.kernel.collectors` — the pluggable
  :class:`MetricsCollector` protocol (six callbacks; every attempt end
  is one ``on_attempt_end`` call with outcome :data:`SUCCESS`,
  :data:`KILL` or :data:`PREEMPT`) and the stock collectors (wastage
  ledger, cluster metrics, per-workflow metrics), which fold buffered
  rows in completion order;
- :mod:`repro.sim.kernel.outage` — scheduled node drain windows, a
  kernel-level scenario available identically in every mode.
"""

from repro.sim.kernel.collectors import (
    KILL,
    PREEMPT,
    SUCCESS,
    BaseCollector,
    ClusterMetricsCollector,
    MetricsCollector,
    WastageCollector,
    WorkflowMetricsCollector,
)
from repro.sim.kernel.core import (
    KernelDriver,
    ReadyQueue,
    SimulationKernel,
    TaskState,
)
from repro.sim.kernel.events import (
    ARRIVAL,
    COMPLETION,
    OUTAGE_END,
    OUTAGE_START,
    EventHeap,
)
from repro.sim.kernel.outage import (
    NodeOutage,
    parse_node_outage,
    parse_node_outages,
)

__all__ = [
    "SimulationKernel",
    "TaskState",
    "KernelDriver",
    "ReadyQueue",
    "EventHeap",
    "COMPLETION",
    "OUTAGE_END",
    "ARRIVAL",
    "OUTAGE_START",
    "MetricsCollector",
    "BaseCollector",
    "SUCCESS",
    "KILL",
    "PREEMPT",
    "WastageCollector",
    "ClusterMetricsCollector",
    "WorkflowMetricsCollector",
    "NodeOutage",
    "parse_node_outage",
    "parse_node_outages",
]
