"""Online replay simulator.

The paper evaluates all methods by "simulat[ing] an online environment
where our measured real-world metrics from completed task executions can
be incorporated into the learning process" (§III-A).  This package is
that environment:

- :mod:`repro.sim.interface` -- the predictor contract every method
  (Sizey and all baselines) implements — including the API v2 batch
  prediction and trace-lifecycle hooks — and the task-submission view
  that hides ground truth from predictors.
- :mod:`repro.sim.backends` -- execution semantics behind the
  :class:`SimulatorBackend` protocol, named in :data:`BACKENDS`.  Both
  run the one simulation kernel: ``"replay"`` with one task in flight
  (the paper's serialized evaluation loop), and the discrete-``"event"``
  engine, where tasks overlap on nodes, that measures queueing wait,
  makespan, and node utilization.  :class:`EventDrivenBackend` is a
  frozen dataclass holding every event option.
- :mod:`repro.sim.kernel` -- the unified discrete-event simulation
  kernel: one clock, typed event heap, and sizing lifecycle shared by
  the serial replay, the flat event backend and the DAG engine, with
  pluggable :class:`~repro.sim.kernel.collectors.MetricsCollector`
  objects and kernel-level node-drain scenarios (:class:`NodeOutage`).
- :mod:`repro.sim.engine` -- the :class:`OnlineSimulator` facade that
  pairs a trace with a cluster and a backend.
- :mod:`repro.sim.results` -- per-run results (plus
  :class:`ClusterMetrics` from the event backend), aggregation, and the
  canonical :func:`result_to_dict` export the golden regression tests
  pin.
- :mod:`repro.sim.runner` -- the (workflow x method) experiment grid with
  optional process parallelism and backend selection.
- :mod:`repro.sim.arrivals` -- every arrival model: per-task (fixed
  interval, Poisson, bursty) and whole-workflow
  (:class:`WorkflowArrivals`), all deterministic under a fixed seed.
- :mod:`repro.sim.errors` -- typed simulator errors such as
  :class:`UnschedulableTaskError`.

The event backend additionally supports DAG-aware multi-workflow
scheduling (``dag=`` / ``workflow_arrival=``): :mod:`repro.sched`
supplies the driver it plugs into the same kernel, which populates
:class:`WorkflowMetrics` (per-workflow makespan, critical-path lower
bound, stretch) on the result.
"""

from repro.sim.arrivals import (
    ArrivalModel,
    BurstyArrivals,
    FixedArrivals,
    PoissonArrivals,
    WorkflowArrivals,
    parse_arrival,
    parse_workflow_arrival,
)
from repro.sim.backends import (
    BACKENDS,
    EventDrivenBackend,
    ReplayBackend,
    SimulatorBackend,
)
from repro.sim.engine import OnlineSimulator
from repro.sim.errors import UnschedulableTaskError
from repro.sim.kernel import (
    BaseCollector,
    ClusterMetricsCollector,
    MetricsCollector,
    NodeOutage,
    SimulationKernel,
    WastageCollector,
    WorkflowMetricsCollector,
    parse_node_outage,
)
from repro.sim.interface import MemoryPredictor, TaskSubmission, TraceContext
from repro.sim.results import (
    ClusterMetrics,
    SimulationResult,
    WorkflowInstanceMetrics,
    WorkflowMetrics,
    aggregate_results,
    result_to_dict,
)
from repro.sim.runner import run_cell, run_grid

__all__ = [
    "MemoryPredictor",
    "TaskSubmission",
    "TraceContext",
    "OnlineSimulator",
    "SimulatorBackend",
    "BACKENDS",
    "ReplayBackend",
    "EventDrivenBackend",
    "SimulationResult",
    "ClusterMetrics",
    "WorkflowInstanceMetrics",
    "WorkflowMetrics",
    "UnschedulableTaskError",
    "aggregate_results",
    "run_cell",
    "run_grid",
    "ArrivalModel",
    "FixedArrivals",
    "PoissonArrivals",
    "BurstyArrivals",
    "parse_arrival",
    "WorkflowArrivals",
    "parse_workflow_arrival",
    "SimulationKernel",
    "MetricsCollector",
    "BaseCollector",
    "WastageCollector",
    "ClusterMetricsCollector",
    "WorkflowMetricsCollector",
    "NodeOutage",
    "parse_node_outage",
    "result_to_dict",
]
