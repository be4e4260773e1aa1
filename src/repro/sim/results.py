"""Simulation results and cross-workflow aggregation."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from operator import itemgetter

import numpy as np

from repro.cluster.accounting import WastageLedger
from repro.sim.sketches import QuantileSketch, RunningStat

__all__ = [
    "PredictionLog",
    "LOG_FIELDS",
    "ClusterMetrics",
    "WorkflowInstanceMetrics",
    "WorkflowMetrics",
    "RunSummary",
    "SimulationResult",
    "aggregate_results",
    "merge_summaries",
    "result_to_dict",
    "summary_to_dict",
]


@dataclass(frozen=True)
class PredictionLog:
    """Per-task-instance summary emitted by the simulator."""

    instance_id: int
    task_type: str
    workflow: str
    timestamp: int
    input_size_mb: float
    true_peak_mb: float
    true_runtime_hours: float
    first_allocation_mb: float
    final_allocation_mb: float
    n_attempts: int

    @property
    def failed_attempts(self) -> int:
        return self.n_attempts - 1

    @property
    def first_attempt_over_mb(self) -> float:
        """Over-allocation of the first attempt (negative = underprediction)."""
        return self.first_allocation_mb - self.true_peak_mb


#: :class:`PredictionLog` field names in declaration order — the schema
#: of the compact row tuples collectors buffer during a run (and of the
#: JSONL spill lines) before the dataclass view materializes.
LOG_FIELDS = (
    "instance_id",
    "task_type",
    "workflow",
    "timestamp",
    "input_size_mb",
    "true_peak_mb",
    "true_runtime_hours",
    "first_allocation_mb",
    "final_allocation_mb",
    "n_attempts",
)

_ROW_TIMESTAMP = itemgetter(LOG_FIELDS.index("timestamp"))


@dataclass(frozen=True)
class ClusterMetrics:
    """Cluster-level observables of an event-driven simulation.

    Only the event-driven backend can measure these — they require tasks
    to actually overlap on nodes.  The replay backend leaves
    :attr:`SimulationResult.cluster` as ``None``.

    Attributes
    ----------
    makespan_hours:
        Wall-clock span from the first submission to the last completion.
    total_queue_wait_hours / mean_queue_wait_hours / max_queue_wait_hours:
        Time tasks spent waiting in the ready queue, summed over *every*
        dispatch — a task re-queued after a kill is charged for its
        second wait too, so a busy cluster's retry delays show up here.
    node_busy_memory_gbh:
        Per node, the integral of allocated memory over time (GB·h).
    node_capacity_gb:
        Per node, its own memory capacity in GB — the denominator of the
        utilization below; heterogeneous clusters differ per node.
    node_utilization:
        Per node, busy memory-GBh divided by *that node's*
        capacity * makespan (in [0, 1]; 0 when the makespan is zero).
    node_timelines:
        Per node, the step function of allocated MB over time as
        ``(time_hours, allocated_mb_after_change)`` points.
    """

    makespan_hours: float
    total_queue_wait_hours: float
    mean_queue_wait_hours: float
    max_queue_wait_hours: float
    node_busy_memory_gbh: dict[int, float]
    node_utilization: dict[int, float]
    node_timelines: dict[int, list[tuple[float, float]]]
    node_capacity_gb: dict[int, float] = field(default_factory=dict)

    @property
    def mean_utilization(self) -> float:
        """Cluster-wide mean of the per-node utilization fractions."""
        if not self.node_utilization:
            return 0.0
        return float(np.mean(list(self.node_utilization.values())))


@dataclass(frozen=True)
class WorkflowInstanceMetrics:
    """Workflow-level observables of one submitted workflow instance.

    Only the DAG-aware scheduling engine can measure these — they
    require whole workflows to move through the cluster as units.

    Attributes
    ----------
    key:
        Unique label of the instance, e.g. ``"rnaseq#2"``.
    workflow / tenant:
        Workflow name and owning user.
    submit_time_hours:
        When the whole instance was handed to the scheduler.
    first_dispatch_hours / finish_time_hours:
        First task dispatch and last task completion (absolute times).
    makespan_hours:
        ``finish - submit`` — what the submitting user experiences.
    critical_path_hours:
        Zero-contention, infinite-cluster lower bound on the makespan
        (heaviest DAG path weighing each type by its slowest instance).
    stretch:
        ``makespan / critical_path`` — the user-facing slowdown factor
        from contention, queueing, and sizing failures (>= 1 up to
        floating noise; 1 means the run was as fast as the DAG allows).
    queue_wait_hours:
        Ready-queue wait summed over every dispatch of this instance.
    wastage_gbh:
        Memory wastage attributed to this instance's attempts.
    n_tasks / n_failures:
        Task-instance count and failed-attempt count.
    """

    key: str
    workflow: str
    tenant: str
    submit_time_hours: float
    first_dispatch_hours: float
    finish_time_hours: float
    makespan_hours: float
    critical_path_hours: float
    stretch: float
    queue_wait_hours: float
    wastage_gbh: float
    n_tasks: int
    n_failures: int


@dataclass(frozen=True)
class WorkflowMetrics:
    """Per-workflow-instance metrics of a DAG-aware simulation."""

    instances: list[WorkflowInstanceMetrics]

    @property
    def n_instances(self) -> int:
        return len(self.instances)

    @property
    def mean_makespan_hours(self) -> float:
        if not self.instances:
            return 0.0
        return float(np.mean([w.makespan_hours for w in self.instances]))

    @property
    def max_makespan_hours(self) -> float:
        if not self.instances:
            return 0.0
        return float(max(w.makespan_hours for w in self.instances))

    @property
    def mean_stretch(self) -> float:
        if not self.instances:
            return 0.0
        return float(np.mean([w.stretch for w in self.instances]))

    @property
    def max_stretch(self) -> float:
        if not self.instances:
            return 0.0
        return float(max(w.stretch for w in self.instances))

    @property
    def total_queue_wait_hours(self) -> float:
        return float(sum(w.queue_wait_hours for w in self.instances))

    def by_tenant(self) -> dict[str, list[WorkflowInstanceMetrics]]:
        """Instances grouped by owning tenant, insertion-ordered."""
        out: dict[str, list[WorkflowInstanceMetrics]] = {}
        for w in self.instances:
            out.setdefault(w.tenant, []).append(w)
        return out


@dataclass
class RunSummary:
    """Compact, mergeable summary of one run — no per-task lists.

    Built online by the kernel's collectors (streaming or not, the same
    update sequence) so the numbers are identical whether raw logs were
    kept, spilled to JSONL, or dropped.  Distributions are carried as
    :class:`~repro.sim.sketches.QuantileSketch` /
    :class:`~repro.sim.sketches.RunningStat` objects, which is what
    makes summaries *mergeable* across shards
    (:func:`merge_summaries`) and serializable in checkpoints.  The
    JSON-able view is :func:`summary_to_dict`; two runs are
    summary-identical iff their dicts are equal.
    """

    workflow: str = ""
    method: str = ""
    time_to_failure: float = 1.0
    # -- task/attempt accounting (mirrors the ledger's aggregates) ------
    n_tasks: int = 0
    n_attempts: int = 0
    n_failures: int = 0
    total_wastage_gbh: float = 0.0
    total_runtime_hours: float = 0.0
    wastage_by_task_type: dict[str, float] = field(default_factory=dict)
    failures_by_task_type: dict[str, int] = field(default_factory=dict)
    #: Sum/count of first-attempt allocated/peak ratios over successful
    #: first predictions — the exact over-allocation-ratio mean, online.
    first_ratio_sum: float = 0.0
    first_ratio_n: int = 0
    #: Per-attempt wastage (GBh) distribution.
    wastage_sketch: QuantileSketch = field(default_factory=QuantileSketch)
    #: Arrival-to-success latency (hours) distribution.
    turnaround_sketch: QuantileSketch = field(default_factory=QuantileSketch)
    # -- cluster section (event backend only; n_nodes marks presence) ---
    n_nodes: int | None = None
    #: Set by the kernel before its collectors contribute.
    makespan_hours: float = 0.0
    queue_wait: RunningStat = field(default_factory=RunningStat)
    queue_wait_sketch: QuantileSketch = field(default_factory=QuantileSketch)
    #: Sum of per-node utilization fractions (divide by n_nodes).
    utilization_sum: float = 0.0
    # -- workflow section (DAG engine only; None marks absence) ---------
    n_workflow_instances: int | None = None
    workflow_makespan: RunningStat = field(default_factory=RunningStat)
    workflow_stretch: RunningStat = field(default_factory=RunningStat)
    workflow_queue_wait_hours: float = 0.0

    @property
    def over_allocation_ratio(self) -> float:
        """Mean allocated/used ratio of successful first attempts."""
        if self.first_ratio_n == 0:
            return float("nan")
        return self.first_ratio_sum / self.first_ratio_n

    @property
    def mean_utilization(self) -> float:
        if not self.n_nodes:
            return 0.0
        return self.utilization_sum / self.n_nodes

    def merge(self, other: "RunSummary") -> "RunSummary":
        """Fold another shard's summary into this one."""
        self.n_tasks += other.n_tasks
        self.n_attempts += other.n_attempts
        self.n_failures += other.n_failures
        self.total_wastage_gbh += other.total_wastage_gbh
        self.total_runtime_hours += other.total_runtime_hours
        for t, w in other.wastage_by_task_type.items():
            self.wastage_by_task_type[t] = (
                self.wastage_by_task_type.get(t, 0.0) + w
            )
        for t, n in other.failures_by_task_type.items():
            self.failures_by_task_type[t] = (
                self.failures_by_task_type.get(t, 0) + n
            )
        self.first_ratio_sum += other.first_ratio_sum
        self.first_ratio_n += other.first_ratio_n
        self.wastage_sketch.merge(other.wastage_sketch)
        self.turnaround_sketch.merge(other.turnaround_sketch)
        if other.n_nodes is not None:
            self.n_nodes = (self.n_nodes or 0) + other.n_nodes
            self.makespan_hours = max(
                self.makespan_hours, other.makespan_hours
            )
            self.queue_wait.merge(other.queue_wait)
            self.queue_wait_sketch.merge(other.queue_wait_sketch)
            self.utilization_sum += other.utilization_sum
        if other.n_workflow_instances is not None:
            self.n_workflow_instances = (
                self.n_workflow_instances or 0
            ) + other.n_workflow_instances
            self.workflow_makespan.merge(other.workflow_makespan)
            self.workflow_stretch.merge(other.workflow_stretch)
            self.workflow_queue_wait_hours += other.workflow_queue_wait_hours
        return self


def merge_summaries(summaries: "list[RunSummary]") -> RunSummary:
    """Merge per-shard summaries into one (shard order = merge order)."""
    if not summaries:
        raise ValueError("no summaries to merge")
    merged = RunSummary(
        workflow=summaries[0].workflow,
        method=summaries[0].method,
        time_to_failure=summaries[0].time_to_failure,
    )
    for s in summaries:
        merged.merge(s)
    return merged


def summary_to_dict(summary: RunSummary) -> dict[str, object]:
    """Canonical JSON-able view of a :class:`RunSummary`.

    Deterministic ordering, floats untouched — resumed-after-interrupt
    runs must produce a dict *equal* to the uninterrupted run's, which
    the checkpoint tests and the CI scale-smoke step assert.  The
    kernel's makespan is written once, at the top level, for every run;
    ``cluster`` is ``None`` unless a cluster collector ran.
    """
    out: dict[str, object] = {
        "format": "repro-summary",
        "workflow": summary.workflow,
        "method": summary.method,
        "time_to_failure": summary.time_to_failure,
        "makespan_hours": summary.makespan_hours,
        "tasks": {
            "n_tasks": summary.n_tasks,
            "n_attempts": summary.n_attempts,
            "n_failures": summary.n_failures,
            "total_wastage_gbh": summary.total_wastage_gbh,
            "total_runtime_hours": summary.total_runtime_hours,
            "over_allocation_ratio": (
                None
                if summary.first_ratio_n == 0
                else summary.over_allocation_ratio
            ),
            "wastage_by_task_type": dict(
                sorted(summary.wastage_by_task_type.items())
            ),
            "failures_by_task_type": dict(
                sorted(summary.failures_by_task_type.items())
            ),
            "wastage_quantiles": summary.wastage_sketch.quantiles(),
            "turnaround_quantiles": summary.turnaround_sketch.quantiles(),
        },
        "cluster": None,
        "workflows": None,
    }
    if summary.n_nodes is not None:
        out["cluster"] = {
            "n_nodes": summary.n_nodes,
            "n_dispatches": summary.queue_wait.n,
            "total_queue_wait_hours": summary.queue_wait.total,
            "mean_queue_wait_hours": summary.queue_wait.mean,
            "max_queue_wait_hours": (
                summary.queue_wait.max if summary.queue_wait.n else 0.0
            ),
            "queue_wait_quantiles": summary.queue_wait_sketch.quantiles(),
            "mean_utilization": summary.mean_utilization,
        }
    if summary.n_workflow_instances is not None:
        out["workflows"] = {
            "n_instances": summary.n_workflow_instances,
            "mean_makespan_hours": summary.workflow_makespan.mean,
            "max_makespan_hours": (
                summary.workflow_makespan.max
                if summary.workflow_makespan.n
                else 0.0
            ),
            "mean_stretch": summary.workflow_stretch.mean,
            "max_stretch": (
                summary.workflow_stretch.max
                if summary.workflow_stretch.n
                else 0.0
            ),
            "total_queue_wait_hours": summary.workflow_queue_wait_hours,
        }
    return out


class SimulationResult:
    """Everything measured while one method ran one workflow trace.

    Attributes
    ----------
    cluster:
        Cluster-level metrics; filled in by the event-driven backend only.
    workflows:
        Per-workflow-instance metrics; filled in by the DAG-aware
        scheduling engine only (``dag=`` / ``workflow_arrival=``).
    summary:
        Compact mergeable summary; filled in by every kernel run
        (streaming or not).  The only per-task-complete view a
        ``stream_collectors=True`` run carries.
    profile:
        Kernel phase profile (:class:`~repro.obs.profile.KernelProfile`);
        filled in only when the kernel ran with ``profile=True``.  Typed
        loosely to keep the result module free of obs imports.

    ``predictions`` is lazy: the kernel's wastage collector hands over
    compact :data:`LOG_FIELDS`-ordered row tuples, and the sorted
    :class:`PredictionLog` list is built (and cached) on first access —
    so result assembly stays off the simulation's timed path.
    ``num_tasks`` counts the pending rows without building it, and
    ``failure_distribution()`` reads only the ledger.  Assigning a list
    directly works as before and discards any pending rows.
    """

    def __init__(
        self,
        workflow: str,
        method: str,
        time_to_failure: float,
        ledger: WastageLedger,
        predictions: list[PredictionLog] | None = None,
        cluster: ClusterMetrics | None = None,
        workflows: WorkflowMetrics | None = None,
        summary: RunSummary | None = None,
        profile: "object | None" = None,
    ) -> None:
        self.workflow = workflow
        self.method = method
        self.time_to_failure = time_to_failure
        self.ledger = ledger
        self.cluster = cluster
        self.workflows = workflows
        self.summary = summary
        self.profile = profile
        self._prediction_rows: list[tuple] | None = None
        self._predictions: list[PredictionLog] = (
            list(predictions) if predictions is not None else []
        )

    @property
    def predictions(self) -> list[PredictionLog]:
        rows = self._prediction_rows
        if rows is not None:
            self._prediction_rows = None
            # Stable sort by timestamp — rows arrive in completion
            # order, exactly as the eager path sorted its log objects.
            rows = sorted(rows, key=_ROW_TIMESTAMP)
            new = object.__new__
            logs = self._predictions
            append = logs.append
            for row in rows:
                log = new(PredictionLog)
                # ``__dict__`` fill skips the frozen dataclass's
                # per-field ``object.__setattr__``.
                log.__dict__.update(zip(LOG_FIELDS, row))
                append(log)
        return self._predictions

    @predictions.setter
    def predictions(self, value: list[PredictionLog]) -> None:
        self._prediction_rows = None
        self._predictions = value

    @property
    def total_wastage_gbh(self) -> float:
        return self.ledger.total_wastage_gbh

    @property
    def total_runtime_hours(self) -> float:
        return self.ledger.total_runtime_hours

    @property
    def num_failures(self) -> int:
        return self.ledger.num_failures

    @property
    def num_tasks(self) -> int:
        # Counted from the pending rows too, without materializing them.
        n = len(self._predictions) + len(self._prediction_rows or ())
        if not n and self.summary is not None:
            # Streaming collectors drop the prediction logs; the online
            # summary still knows how many tasks succeeded.
            return self.summary.n_tasks
        return n

    def failures_by_task_type(self) -> dict[str, int]:
        return self.ledger.failures_by_task_type()

    def wastage_by_task_type(self) -> dict[str, float]:
        return self.ledger.wastage_by_task_type()

    def failure_distribution(self) -> np.ndarray:
        """Failures aggregated by task type (the Fig. 8c box-plot data).

        Includes zero entries for task types that never failed, so the
        distribution is over *all* task types of the workflow.  The
        types are the keys of the ledger's per-type wastage, which holds
        every type with an attempt — for a finished run the same types
        as the prediction logs, which streaming and sharded runs drop.
        """
        per_type = self.ledger.failures_by_task_type()
        return np.array(
            [
                per_type.get(t, 0)
                for t in sorted(self.ledger.wastage_by_task_type())
            ],
            dtype=np.int64,
        )

    def over_allocation_ratio(self) -> float:
        """Mean allocated/used ratio of successful first attempts."""
        if not self.predictions and self.summary is not None:
            return self.summary.over_allocation_ratio
        ratios = [
            p.first_allocation_mb / p.true_peak_mb
            for p in self.predictions
            if p.first_allocation_mb >= p.true_peak_mb
        ]
        return float(np.mean(ratios)) if ratios else float("nan")


def result_to_dict(result: SimulationResult) -> dict[str, object]:
    """Canonical JSON-able view of a :class:`SimulationResult`.

    Every measured quantity appears, in deterministic order, with floats
    untouched (JSON round-trips Python floats exactly), so two results
    are bit-for-bit identical iff their dicts are equal.  This is what
    the golden regression tests pin across refactors of the simulation
    engines, and a convenient export format generally.
    """
    out: dict[str, object] = {
        "workflow": result.workflow,
        "method": result.method,
        "time_to_failure": result.time_to_failure,
        "attempts": [asdict(o) for o in result.ledger.outcomes],
        "predictions": [asdict(p) for p in result.predictions],
        "cluster": None,
        "workflows": None,
    }
    if result.cluster is not None:
        c = result.cluster
        out["cluster"] = {
            "makespan_hours": c.makespan_hours,
            "total_queue_wait_hours": c.total_queue_wait_hours,
            "mean_queue_wait_hours": c.mean_queue_wait_hours,
            "max_queue_wait_hours": c.max_queue_wait_hours,
            "node_busy_memory_gbh": {
                str(n): v for n, v in sorted(c.node_busy_memory_gbh.items())
            },
            "node_utilization": {
                str(n): v for n, v in sorted(c.node_utilization.items())
            },
            "node_capacity_gb": {
                str(n): v for n, v in sorted(c.node_capacity_gb.items())
            },
            "node_timelines": {
                str(n): [list(point) for point in timeline]
                for n, timeline in sorted(c.node_timelines.items())
            },
        }
    if result.workflows is not None:
        out["workflows"] = [asdict(w) for w in result.workflows.instances]
    return out


def aggregate_results(results: list[SimulationResult]) -> dict[str, object]:
    """Aggregate one method's results over multiple workflows (Fig. 8).

    Returns totals plus the pooled per-task-type failure distribution.
    """
    if not results:
        raise ValueError("no results to aggregate")
    methods = {r.method for r in results}
    if len(methods) != 1:
        raise ValueError(f"cannot aggregate across methods: {sorted(methods)}")
    failure_counts: list[int] = []
    for r in results:
        failure_counts.extend(r.failure_distribution().tolist())
    return {
        "method": results[0].method,
        "total_wastage_gbh": sum(r.total_wastage_gbh for r in results),
        "total_runtime_hours": sum(r.total_runtime_hours for r in results),
        "num_failures": sum(r.num_failures for r in results),
        "num_tasks": sum(r.num_tasks for r in results),
        "per_workflow_wastage": {r.workflow: r.total_wastage_gbh for r in results},
        "failure_distribution": np.asarray(failure_counts, dtype=np.int64),
    }
