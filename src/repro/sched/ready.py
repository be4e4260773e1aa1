"""The ready-set scheduler: dependency-gated FCFS release across tenants.

A real SWMS keeps a *ready set* — tasks whose DAG predecessors have all
succeeded — and dispatches from it as cluster resources free up.
:class:`ReadySetScheduler` is that component for the DAG-aware event
engine: it admits whole :class:`~repro.sched.instance.WorkflowInstance`\\ s
(possibly from many tenants), releases a task only when every
predecessor type's instances have succeeded, and orders the global ready
queue FCFS by release time.  A killed-and-requeued task re-enters at its
*original* priority (mirroring the flat event backend's requeue rule)
and — because its type stays unsatisfied — continues to hold all of its
DAG successors back until the retry lands.

The scheduler is generic over the engine's per-task state objects, so
the engine keeps ownership of allocation/attempt bookkeeping: it never
inspects a state beyond its identity, except that a sizing wave
(:meth:`ReadySetScheduler.take_unsized`) skips states whose
``allocation`` is already set.
"""

from __future__ import annotations

import heapq
from typing import Generic, TypeVar

from repro.sched.instance import WorkflowInstance
from repro.sim.kernel.core import consume_unsized
from repro.workflow.task import TaskInstance

__all__ = ["ReadySetScheduler"]

S = TypeVar("S")


class ReadySetScheduler(Generic[S]):
    """Dependency-driven release + FCFS ready queue over many workflows.

    The engine registers each workflow instance's per-task states via
    :meth:`admit`, then drives the queue through :meth:`pop` /
    :meth:`head` during scheduling passes and reports outcomes through
    :meth:`on_success` / :meth:`requeue`.

    Per admitted copy the scheduler keeps two maps keyed by the copy's
    :attr:`~repro.sched.instance.WorkflowInstance.key`: the engine's own
    ``{instance_id: state}`` dict (held by reference, never copied) and
    ``{instance_id: release priority}``.  The ready heap holds
    ``(priority, state)`` entries, where the priority is the release
    sequence.  A state has at most one queued entry, and a requeue
    reuses the priority of the entry that was popped, so priorities are
    unique while queued and the heap never compares two states.  Fresh
    releases are also appended to a plain list read through a cursor
    (:meth:`take_unsized`): the release sequence only grows, so that
    list is already in heap order.
    """

    def __init__(self) -> None:
        #: (priority, state) heap; priority is the release sequence.
        self._ready: list[tuple[int, S]] = []
        #: Every state once, at its release, in release order; read from
        #: ``_upos`` on and compacted by :meth:`take_unsized`.
        self._unsized: list[S] = []
        self._upos = 0
        #: copy key -> the engine's {instance_id: state} dict.
        self._states: dict[str, dict[int, S]] = {}
        #: copy key -> {instance_id: release priority}.
        self._priority: dict[str, dict[int, int]] = {}
        self._seq = 0

    # ------------------------------------------------------------------
    def admit(
        self, wi: WorkflowInstance, states: dict[int, S]
    ) -> list[S]:
        """Register a workflow instance's task states and release roots.

        ``states`` maps each task's ``instance_id`` to the engine's state
        object; the scheduler keeps the dict itself, not a copy.
        Returns the states made ready immediately (root types), which
        are also pushed onto the queue.
        """
        missing = {t.instance_id for t in wi.tasks} - set(states)
        if missing:
            raise ValueError(
                f"admit of {wi.key!r} is missing states for instance ids "
                f"{sorted(missing)}"
            )
        self._states[wi.key] = states
        self._priority[wi.key] = {}
        return self._push_all(wi, wi.release_roots())

    def on_success(self, wi: WorkflowInstance, task: TaskInstance) -> list[S]:
        """Record a success; returns (and enqueues) newly released states."""
        return self._push_all(wi, wi.complete(task.task_type.name))

    def requeue(self, wi: WorkflowInstance, task: TaskInstance) -> S:
        """Re-enqueue a killed task at its original release priority."""
        instance_id = task.instance_id
        state = self._states[wi.key][instance_id]
        priority = self._priority[wi.key][instance_id]
        heapq.heappush(self._ready, (priority, state))
        return state

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ready)

    def __bool__(self) -> bool:
        return bool(self._ready)

    def head(self) -> S:
        """The state that must dispatch next (strict FCFS)."""
        return self._ready[0][1]

    def pop(self) -> S:
        return heapq.heappop(self._ready)[1]

    def queued(self) -> list[S]:
        """All queued states, FCFS order (non-destructive)."""
        return [s for _, s in sorted(self._ready)]

    def take_unsized(self, limit: int) -> list[S]:
        """The next ``limit`` fresh releases still unsized, FCFS order.

        Entries are *consumed*: a state returned here is never returned
        again, and one skipped because its ``allocation`` is set is
        dropped.  The kernel sizes every returned state immediately and
        a sized state never loses its allocation, so nothing unsized is
        lost.  Requeued states are always sized and never enter here.
        """
        wave, self._upos = consume_unsized(self._unsized, self._upos, limit)
        return wave

    # ------------------------------------------------------------------
    def _push_all(
        self, wi: WorkflowInstance, released: list[TaskInstance]
    ) -> list[S]:
        if not released:
            return []
        states = self._states[wi.key]
        priority = self._priority[wi.key]
        ready = self._ready
        fresh = self._unsized.append
        seq = self._seq
        out: list[S] = []
        for task in released:
            instance_id = task.instance_id
            state = states[instance_id]
            priority[instance_id] = seq
            heapq.heappush(ready, (seq, state))
            fresh(state)
            out.append(state)
            seq += 1
        self._seq = seq
        return out
