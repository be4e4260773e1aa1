"""Task-type and task-instance data model.

Terminology follows the paper: a workflow consists of black-box task
types ``B`` (templates wrapping analysis tools) and physical task
instances ``T`` with concrete inputs.  A :class:`WorkflowTrace` is the
recorded execution of all instances of one workflow — the unit the
online simulator replays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (dag -> task)
    from repro.workflow.dag import WorkflowDAG

__all__ = ["TaskType", "TaskInstance", "WorkflowTrace"]


@dataclass(frozen=True)
class TaskType:
    """A workflow task template (paper: black-box task type ``b``).

    Attributes
    ----------
    name:
        Tool name, e.g. ``"MarkDuplicates"``.
    workflow:
        Name of the owning workflow, e.g. ``"rnaseq"``.
    preset_memory_mb:
        The user/developer-provided memory estimate for this task type —
        the "usually conservative" default the Workflow-Presets baseline
        allocates and Sizey falls back to for unknown task types.
    """

    name: str
    workflow: str
    preset_memory_mb: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("task type name must be non-empty")
        if self.preset_memory_mb <= 0:
            raise ValueError(
                f"preset_memory_mb must be positive, got {self.preset_memory_mb}"
            )

    @property
    def key(self) -> str:
        """Globally unique identifier ``workflow/name``."""
        return f"{self.workflow}/{self.name}"


@dataclass(frozen=True)
class TaskInstance:
    """A physical task execution with ground-truth resource usage.

    The trace generator fills in the *true* peak memory and runtime;
    predictors never see those fields before completion — the simulator
    only reveals them via provenance records after each (attempted)
    execution.

    Attributes
    ----------
    task_type:
        The template this instance was created from.
    instance_id:
        Unique per-trace index.
    input_size_mb:
        Total size of the input files — the primary prediction feature
        (paper Fig. 2 relates memory to "input read").
    peak_memory_mb:
        Ground-truth peak memory consumption.
    runtime_hours:
        Ground-truth runtime on an unloaded machine.
    cpu_percent:
        Mean CPU utilisation (can exceed 100 on multi-threaded tools),
        used for the Fig. 7 utilisation plots.
    io_read_mb / io_write_mb:
        I/O volumes, also for Fig. 7.
    machine:
        Name of the machine configuration the task runs on — Sizey keys
        its model pools by (task type, machine) pairs.
    """

    task_type: TaskType
    instance_id: int
    input_size_mb: float
    peak_memory_mb: float
    runtime_hours: float
    cpu_percent: float = 100.0
    io_read_mb: float = 0.0
    io_write_mb: float = 0.0
    machine: str = "default"

    def __post_init__(self) -> None:
        if self.input_size_mb < 0:
            raise ValueError(f"input_size_mb must be >= 0, got {self.input_size_mb}")
        if self.peak_memory_mb <= 0:
            raise ValueError(
                f"peak_memory_mb must be positive, got {self.peak_memory_mb}"
            )
        if self.runtime_hours <= 0:
            raise ValueError(
                f"runtime_hours must be positive, got {self.runtime_hours}"
            )

    @property
    def features(self) -> np.ndarray:
        """Feature vector used by memory predictors (shape ``(1, d)``)."""
        return np.array([[self.input_size_mb]], dtype=np.float64)


@dataclass
class WorkflowTrace:
    """All task instances of one workflow execution, in submission order.

    ``dag`` is the task-type dependency graph the trace was generated
    under (exported by :func:`repro.workflow.generator.generate_trace`),
    making generator and scheduler agree on one dependency source of
    truth.  ``None`` for hand-built or legacy traces — the DAG-aware
    engine then needs an explicit ``dag=`` option.

    ``instance_edges`` optionally records *per-instance* dependencies as
    ``(parent_instance_id, child_instance_id)`` pairs — finer-grained
    than the type-level ``dag``.  Real provenance formats (WfCommons)
    declare dependencies per instance; trace schema v2
    (:mod:`repro.workflow.io`) round-trips them losslessly.
    """

    workflow: str
    instances: list[TaskInstance] = field(default_factory=list)
    dag: "WorkflowDAG | None" = None
    instance_edges: list[tuple[int, int]] | None = None

    def __post_init__(self) -> None:
        dag_nodes = set(self.dag.nodes) if self.dag is not None else None
        for inst in self.instances:
            if inst.task_type.workflow != self.workflow:
                raise ValueError(
                    f"instance {inst.instance_id} belongs to workflow "
                    f"{inst.task_type.workflow!r}, trace is {self.workflow!r}"
                )
            if dag_nodes is not None and inst.task_type.name not in dag_nodes:
                raise ValueError(
                    f"instance {inst.instance_id} has task type "
                    f"{inst.task_type.name!r} which is not a node of the "
                    f"trace's DAG"
                )
        if self.instance_edges is not None:
            ids = {inst.instance_id for inst in self.instances}
            for up, down in self.instance_edges:
                if up not in ids or down not in ids:
                    raise ValueError(
                        f"instance edge ({up}, {down}) references an "
                        f"instance id not present in the trace"
                    )

    def __len__(self) -> int:
        return len(self.instances)

    def __iter__(self) -> Iterator[TaskInstance]:
        return iter(self.instances)

    @property
    def task_types(self) -> list[TaskType]:
        """Distinct task types in first-appearance order."""
        seen: dict[str, TaskType] = {}
        for inst in self.instances:
            seen.setdefault(inst.task_type.key, inst.task_type)
        return list(seen.values())

    def instances_of(self, task_type_name: str) -> list[TaskInstance]:
        """All instances whose task-type name equals ``task_type_name``."""
        return [i for i in self.instances if i.task_type.name == task_type_name]

    def stats(self) -> dict[str, float]:
        """Summary statistics used by the Table I regenerator."""
        types = self.task_types
        n_types = len(types)
        per_type = [len(self.instances_of(t.name)) for t in types]
        return {
            "n_task_types": n_types,
            "n_instances": len(self.instances),
            "avg_instances_per_type": (
                float(np.mean(per_type)) if per_type else 0.0
            ),
        }

    def subsample(self, fraction: float, seed: int = 0) -> "WorkflowTrace":
        """Deterministically keep ``fraction`` of each task type's instances.

        Used by the benchmark harness to run scaled-down experiments while
        preserving each task type's input distribution and relative size.
        Order of the surviving instances is preserved.
        """
        if not 0.0 < fraction <= 1.0:
            raise ConfigError(f"fraction must be in (0, 1], got {fraction}")
        if fraction == 1.0:
            return self
        rng = np.random.default_rng(seed)
        keep: set[int] = set()
        for t in self.task_types:
            ids = [i.instance_id for i in self.instances_of(t.name)]
            # Never drop a type entirely: keep at least 2 so online models
            # always get at least one training point before the last query.
            n_keep = max(2, int(round(len(ids) * fraction)))
            n_keep = min(n_keep, len(ids))
            chosen = rng.choice(len(ids), size=n_keep, replace=False)
            keep.update(ids[c] for c in chosen)
        kept = [i for i in self.instances if i.instance_id in keep]
        edges = None
        if self.instance_edges is not None:
            edges = [
                (u, v) for u, v in self.instance_edges
                if u in keep and v in keep
            ]
        return WorkflowTrace(
            self.workflow, kept, dag=self.dag, instance_edges=edges
        )
