"""Workflow instances: a DAG, its task instances, and execution state.

The paper models a workflow as a DAG whose SWMS "releases ready tasks"
(§I).  A :class:`WorkflowInstance` is one *execution* of a workflow — the
unit a multi-tenant scheduler admits: the :class:`~repro.workflow.dag.WorkflowDAG`
over task types, the concrete :class:`~repro.workflow.task.TaskInstance`
list of this run, and the per-instance dependency state that decides
which tasks are ready.

Dependency semantics (matching how an SWMS gates stage barriers):

- a task-type node is **released** once every DAG predecessor type is
  satisfied — its instances may then be dispatched;
- a task-type node is **satisfied** once *all* of its instances have
  succeeded — a killed-and-requeued instance therefore holds every
  downstream type back until its retry lands;
- a type with no instances in this run is trivially satisfied the moment
  it is released, so partial traces don't deadlock their successors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.workflow.dag import WorkflowDAG
from repro.workflow.task import TaskInstance

__all__ = ["WorkflowInstance"]


@dataclass
class WorkflowInstance:
    """One submitted execution of a workflow, with live dependency state.

    Attributes
    ----------
    key:
        Unique label of this execution, e.g. ``"rnaseq#2"``.
    workflow:
        Name of the workflow this is an instance of.
    dag:
        Task-type dependency graph; every task's type must be a node.
    tasks:
        The physical task instances of this execution.
    submit_time:
        Simulation time (hours) the whole workflow was submitted.
    tenant:
        Owning user — many tenants' instances contend for one cluster.
    id_offset:
        Added to each task's ``instance_id`` to give the id this
        execution reports.  Copies of one trace share its task
        instances; copy ``k`` of a run is offset past all earlier
        copies' id ranges, so reported ids stay unique.
    """

    key: str
    workflow: str
    dag: WorkflowDAG
    tasks: list[TaskInstance]
    submit_time: float = 0.0
    tenant: str = "default"
    id_offset: int = 0

    # -- live dependency state (managed via release/complete below) -----
    _tasks_by_type: dict[str, list[TaskInstance]] = field(
        init=False, repr=False, default_factory=dict
    )
    _unsatisfied_preds: dict[str, int] = field(init=False, repr=False)
    _remaining: dict[str, int] = field(init=False, repr=False)
    _released: set[str] = field(init=False, repr=False, default_factory=set)
    _n_pending: int = field(init=False, repr=False)

    # -- metric accumulators filled in by the scheduling engine ---------
    first_dispatch: float | None = field(init=False, default=None)
    finish_time: float | None = field(init=False, default=None)
    queue_wait_hours: float = field(init=False, default=0.0)
    wastage_gbh: float = field(init=False, default=0.0)
    n_failures: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        nodes = set(self.dag.nodes)
        for inst in self.tasks:
            if inst.task_type.name not in nodes:
                raise ValueError(
                    f"task instance {inst.instance_id} has type "
                    f"{inst.task_type.name!r} which is not a node of the "
                    f"DAG of workflow instance {self.key!r}"
                )
            self._tasks_by_type.setdefault(inst.task_type.name, []).append(inst)
        self._unsatisfied_preds = {
            n: len(self.dag.predecessors(n)) for n in self.dag.nodes
        }
        self._remaining = {
            n: len(self._tasks_by_type.get(n, [])) for n in self.dag.nodes
        }
        self._n_pending = len(self.tasks)

    # ------------------------------------------------------------------
    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @property
    def done(self) -> bool:
        """True once every task instance has succeeded."""
        return self._n_pending == 0

    def is_released(self, task_type: str) -> bool:
        return task_type in self._released

    # ------------------------------------------------------------------
    def release_roots(self) -> list[TaskInstance]:
        """Release every root type; returns the initially ready tasks.

        Types without predecessors release immediately; released types
        that happen to have zero instances are trivially satisfied, so
        the release cascades through empty nodes.
        """
        ready: list[TaskInstance] = []
        for node in self.dag.topological_order():
            if self._unsatisfied_preds[node] == 0:
                ready.extend(self._release(node))
        return ready

    def complete(self, task_type: str) -> list[TaskInstance]:
        """Record one successful instance of ``task_type``.

        Returns the task instances that became ready because this
        success satisfied their last outstanding predecessor type.
        """
        if task_type not in self._remaining:
            raise KeyError(task_type)
        if self._remaining[task_type] <= 0:
            raise ValueError(
                f"all instances of {task_type!r} in {self.key!r} already "
                f"completed"
            )
        self._remaining[task_type] -= 1
        self._n_pending -= 1
        if self._remaining[task_type] > 0:
            return []
        return self._satisfy(task_type)

    # ------------------------------------------------------------------
    def _release(self, node: str) -> list[TaskInstance]:
        if node in self._released:
            return []
        self._released.add(node)
        ready = list(self._tasks_by_type.get(node, []))
        if not ready and self._remaining[node] == 0:
            # Empty type: satisfied the moment it is released.
            ready.extend(self._satisfy(node))
        return ready

    def _satisfy(self, node: str) -> list[TaskInstance]:
        newly_ready: list[TaskInstance] = []
        for succ in self.dag.successors(node):
            self._unsatisfied_preds[succ] -= 1
            if self._unsatisfied_preds[succ] == 0:
                newly_ready.extend(self._release(succ))
        return newly_ready

    # ------------------------------------------------------------------
    def critical_path_hours(self) -> float:
        """Zero-contention lower bound on this instance's makespan.

        Under the release semantics above, a type's instances can all run
        in parallel on an infinite cluster but the type completes only
        when its *slowest* instance does — so each DAG node weighs its
        maximum instance runtime and the bound is the heaviest path
        through the DAG.
        """
        weight = {
            n: max(
                (t.runtime_hours for t in self._tasks_by_type.get(n, [])),
                default=0.0,
            )
            for n in self.dag.nodes
        }
        longest: dict[str, float] = {}
        for node in self.dag.topological_order():
            upstream = max(
                (longest[p] for p in self.dag.predecessors(node)), default=0.0
            )
            longest[node] = weight[node] + upstream
        return max(longest.values(), default=0.0)
