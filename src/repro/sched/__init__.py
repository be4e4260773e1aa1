"""DAG-aware workflow scheduling: from task simulator to SWMS simulator.

The paper's framing (§I) is a scientific workflow management system that
walks a DAG and "releases ready tasks"; related work (Ponder, Lehmann et
al. 2024) embeds online memory prediction inside exactly such an engine.
This package is that engine for the reproduction — whole workflows,
dependency-driven, multi-tenant:

- :mod:`repro.sched.instance` — :class:`WorkflowInstance`: one submitted
  execution of a workflow (DAG + task instances + live dependency
  state + per-instance accounting); a task type is released only when
  all DAG predecessor types' instances have succeeded, so a
  killed-and-requeued task holds its successors back.
- :class:`~repro.sim.arrivals.WorkflowArrivals` (canonically defined in
  :mod:`repro.sim.arrivals`, re-exported here) — injects whole
  workflow instances (fixed / Poisson / bursty, seeded) owned by
  round-robin tenants.
- :mod:`repro.sched.engine` — :class:`DagWorkflowDriver`, the kernel
  driver gluing the above to the shared simulation kernel
  (:mod:`repro.sim.kernel`): it hands each released task to the
  kernel's one FCFS ready queue, global across all tenants' instances
  in release order.  Its runs produce
  :class:`~repro.sim.results.WorkflowMetrics` (per-workflow makespan,
  critical-path lower bound, stretch) alongside the usual cluster and
  wastage metrics.

Reached through ``EventDrivenBackend(dag=..., workflow_arrival=...)``
(the one builder of its kernel), which ``OnlineSimulator``,
``run_cell`` / ``run_grid`` and ``run_sharded`` take as their backend
(``OnlineSimulator`` also takes the two as keywords), and the CLI's
``--dag`` / ``--workflow-arrival``.
"""

from repro.sim.arrivals import WorkflowArrivals, parse_workflow_arrival
from repro.sched.engine import DagWorkflowDriver, resolve_dag
from repro.sched.instance import WorkflowInstance

__all__ = [
    "WorkflowInstance",
    "WorkflowArrivals",
    "parse_workflow_arrival",
    "resolve_dag",
    "DagWorkflowDriver",
]
