"""The online simulator facade.

:class:`OnlineSimulator` pairs a workload with a cluster model and
delegates the actual execution semantics to a
:class:`~repro.sim.backends.base.SimulatorBackend`:

- ``backend="replay"`` (default) — the paper's serialized per-task
  replay: the simulation kernel with one task in flight.
- ``backend="event"`` — the same kernel with tasks genuinely
  overlapping on nodes, adding queueing wait, makespan, and per-node
  utilization to the result; DAG-aware scheduling runs through it too.

The two names come from :data:`repro.sim.backends.BACKENDS`; any other
object satisfying the backend protocol can be passed as an instance.
"""

from __future__ import annotations

import dataclasses

from repro.cluster.manager import ResourceManager
from repro.cluster.policies import PlacementPolicy
from repro.errors import ConfigError
from repro.sim.backends import BACKENDS, EventDrivenBackend, SimulatorBackend
from repro.sim.interface import MemoryPredictor
from repro.sim.results import SimulationResult
from repro.workflow.task import WorkflowTrace
from repro.workload.base import WorkloadSource, as_source

__all__ = ["OnlineSimulator"]


class OnlineSimulator:
    """Replay one workload against one memory predictor.

    Parameters
    ----------
    workload:
        The workload to replay: a materialized
        :class:`~repro.workflow.task.WorkflowTrace` (instances in
        submission order), a :class:`~repro.workload.base.WorkloadSource`,
        or a workload spec string such as ``"synthetic:iwd"`` /
        ``"wfcommons:traces/blast.json"``.
    manager:
        Cluster model; defaults to the paper's 8-node 128 GB cluster.
        Mutually exclusive with ``cluster``.
    time_to_failure:
        Fraction of a task's runtime after which an under-allocated task
        is killed (paper parameter; 1.0 in Fig. 8a, 0.5 in Fig. 8b).
    backend:
        Execution semantics: a backend name (``"replay"`` or
        ``"event"``) or a ready-made backend instance.
    cluster:
        Convenience shorthand for ``manager``: a cluster spec string
        such as ``"128g:4,256g:4"`` (see
        :func:`repro.cluster.machine.parse_cluster_spec`).
    placement:
        Node-placement policy for the built manager (``"first-fit"``,
        ``"best-fit"``, ``"worst-fit"``, or a policy instance).  Only
        used when the manager is built here — an explicit ``manager``
        carries its own policy.
    dag:
        Switch to DAG-aware scheduling (event backend only): ``"trace"``
        (the DAG exported on the trace), ``"linear"``, or a
        :class:`~repro.workflow.dag.WorkflowDAG`.  See
        :class:`~repro.sim.backends.event.EventDrivenBackend`.
    workflow_arrival:
        Multi-workflow injection spec (event backend only), e.g.
        ``"4@poisson:2"`` — implies DAG-aware scheduling.
    node_outage:
        Scheduled node drain windows (event backend only, flat or DAG):
        one ``"start:duration:node"`` spec or a list of them — the named
        node stops accepting placements for the window and its running
        tasks are preempted and re-queued.
    stream_collectors:
        Streaming-collector mode (event backend only): bounded-memory
        online aggregates and sketches instead of per-task logs; the
        result carries a ``summary`` but no raw logs.
    spill:
        Optional JSONL path (event backend only): prediction logs are
        appended there in completion order.
    profile:
        Enable the kernel phase profiler (event backend only): the
        result's ``profile`` attribute carries a
        :class:`~repro.obs.profile.KernelProfile` with per-phase
        wall-time/call counters.  Measurement only.
    trace_path / trace_limit:
        Write a Chrome ``trace_event`` JSON timeline of the run to
        ``trace_path`` (event backend only); ``trace_limit`` bounds the
        retained events with a ring buffer.

    The event-backend options override the backend's own fields of the
    same name (``trace_path`` is its ``trace``) when given; ``None`` and
    ``False`` keep what the backend already says.
    """

    def __init__(
        self,
        workload: WorkloadSource | WorkflowTrace | str,
        manager: ResourceManager | None = None,
        time_to_failure: float = 1.0,
        backend: str | SimulatorBackend = "replay",
        cluster: str | None = None,
        placement: str | PlacementPolicy = "first-fit",
        dag: object | None = None,
        workflow_arrival: object | None = None,
        node_outage: object | None = None,
        stream_collectors: bool = False,
        spill: str | None = None,
        profile: bool = False,
        trace_path: str | None = None,
        trace_limit: int | None = None,
    ) -> None:
        if not 0.0 < time_to_failure <= 1.0:
            raise ConfigError(
                f"time_to_failure must be in (0, 1], got {time_to_failure}"
            )
        if manager is not None and cluster is not None:
            raise ConfigError("pass either manager or cluster, not both")
        self.source = as_source(workload)
        if manager is not None:
            self.manager = manager
        elif cluster is not None:
            self.manager = ResourceManager.from_spec(
                cluster, placement=placement
            )
        else:
            self.manager = ResourceManager(placement=placement)
        self.time_to_failure = time_to_failure
        if isinstance(backend, str):
            try:
                backend = BACKENDS[backend]()
            except KeyError:
                raise ConfigError(
                    f"unknown backend {backend!r}; choose from "
                    f"{sorted(BACKENDS)}"
                ) from None
        elif not isinstance(backend, SimulatorBackend):
            raise TypeError(
                f"backend must be a name or SimulatorBackend, got "
                f"{type(backend)!r}"
            )
        options = {
            name: value
            for name, value in (
                ("dag", dag),
                ("workflow_arrival", workflow_arrival),
                ("node_outage", node_outage),
                ("stream_collectors", stream_collectors or None),
                ("spill", spill),
                ("profile", profile or None),
                ("trace", trace_path),
                ("trace_limit", trace_limit),
            )
            if value is not None
        }
        if options:
            if not isinstance(backend, EventDrivenBackend):
                raise ConfigError(
                    f"options {', '.join(options)} need the event "
                    f"backend; got {backend.name!r}"
                )
            backend = dataclasses.replace(backend, **options)
        self.backend = backend

    def run(
        self,
        predictor: MemoryPredictor,
        *,
        checkpoint: str | None = None,
        checkpoint_every: float | None = None,
        stop_after: float | None = None,
    ) -> SimulationResult | None:
        """Replay the whole workload; returns the filled-in result object.

        The checkpoint keywords (event backend only) drive the run in
        pausable slices via
        :func:`repro.sim.kernel.checkpoint.drive_kernel`: ``checkpoint``
        names the file overwritten at each pause (the other two need
        it), ``checkpoint_every`` the slice length in simulation hours,
        and ``stop_after`` stops the run for good at that simulation
        time — returning ``None`` with the checkpoint holding the paused
        state.  Resume with :meth:`resume`.
        """
        if checkpoint is None and checkpoint_every is None and stop_after is None:
            return self.backend.run(
                self.source, predictor, self.manager, self.time_to_failure
            )
        if not isinstance(self.backend, EventDrivenBackend):
            raise ConfigError(
                f"checkpoint/stop_after require the event backend; got "
                f"{self.backend.name!r}"
            )
        from repro.sim.kernel.checkpoint import drive_kernel

        kernel = self.backend.build_kernel(
            self.source, predictor, self.manager, self.time_to_failure
        )
        return drive_kernel(
            kernel,
            checkpoint=checkpoint,
            checkpoint_every=checkpoint_every,
            stop_after=stop_after,
        )

    @staticmethod
    def resume(
        path: str,
        *,
        checkpoint: str | None = None,
        checkpoint_every: float | None = None,
        stop_after: float | None = None,
    ) -> SimulationResult | None:
        """Continue a checkpointed run; bit-for-bit equal to uninterrupted.

        A further pause (``checkpoint_every`` or ``stop_after``)
        overwrites ``checkpoint``, by default the file being resumed.
        """
        from repro.sim.kernel.checkpoint import drive_kernel, load_checkpoint

        return drive_kernel(
            load_checkpoint(path),
            checkpoint=path if checkpoint is None else checkpoint,
            checkpoint_every=checkpoint_every,
            stop_after=stop_after,
        )
