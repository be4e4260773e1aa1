"""The workload seam: where task streams come from.

Every consumer in the stack — the replay backend, the event kernel, the
DAG scheduling engine, the grid runner, the CLI — used to require a
fully materialized :class:`~repro.workflow.task.WorkflowTrace` before
anything could run.  The :class:`WorkloadSource` protocol inverts that:
a source *produces* task instances and whole trace+DAG instances on
demand, lazily and deterministically under its construction-time seed,
and the consumers pull.

Four adapters ship (registered under CLI-addressable schemes):

========================  ==============================================
``synthetic:<name>``      :class:`~repro.workload.synthetic.NfCoreSource`
                          — the six paper workflows through the seeded
                          generator (``nfcore:`` is an alias)
``trace:<path>``          :class:`~repro.workload.tracefile.TraceFileSource`
                          — repro-trace JSON v1/v2, or a ``.jsonl`` file
                          streamed instance by instance
``wfcommons:<path>``      :class:`~repro.workload.wfcommons.WfCommonsSource`
                          — community-standard WfCommons instance JSON
========================  ==============================================

plus :class:`~repro.workload.synthetic.SyntheticSource` for programmatic
:class:`~repro.workflow.generator.WorkflowSpec` objects.  Third-party
sources register via :func:`register_workload` and become addressable
from ``run_cell(workload=...)`` and the CLI's ``--workload``.
"""

from __future__ import annotations

from typing import Callable, Iterator, Protocol, runtime_checkable

from repro.errors import ConfigError
from repro.workflow.task import TaskInstance, WorkflowTrace

__all__ = [
    "WorkloadSource",
    "TraceSource",
    "as_source",
    "register_workload",
    "workload_schemes",
    "parse_workload",
    "check_scale",
]


@runtime_checkable
class WorkloadSource(Protocol):
    """Lazy, seeded producer of task instances and workflow traces.

    Implementations are deterministic: two sources constructed with the
    same parameters (including seed) yield identical streams.  ``name``
    identifies the source in results/logs (e.g. ``"synthetic:iwd"``);
    ``workflow`` names the produced workflow.

    ``n_tasks`` is the number of tasks :meth:`iter_tasks` will yield, or
    ``None`` when the source streams and cannot know without exhausting
    itself.  The replay backend then streams it one task at a time; the
    event backend materializes it with :meth:`trace` to draw the run's
    arrival schedule.
    """

    @property
    def name(self) -> str:
        ...

    @property
    def workflow(self) -> str:
        ...

    @property
    def n_tasks(self) -> int | None:
        ...

    def iter_tasks(self) -> Iterator[TaskInstance]:
        """Task instances in submission order, produced lazily."""
        ...

    def iter_traces(self) -> Iterator[WorkflowTrace]:
        """Whole trace+DAG instances (one for single-workflow sources)."""
        ...

    def trace(self) -> WorkflowTrace:
        """The first (often only) trace, materialized and cached."""
        ...


class TraceSource:
    """Adapter presenting an in-memory trace as a :class:`WorkloadSource`.

    Everything that accepts a ``workload`` also still accepts a plain
    :class:`WorkflowTrace`; this wrapper is how the two meet.  It is the
    identity adapter: iteration yields the trace's instances unchanged.
    """

    def __init__(self, trace: WorkflowTrace) -> None:
        self._trace = trace

    @property
    def name(self) -> str:
        return f"trace-object:{self._trace.workflow}"

    @property
    def workflow(self) -> str:
        return self._trace.workflow

    @property
    def n_tasks(self) -> int | None:
        return len(self._trace)

    def iter_tasks(self) -> Iterator[TaskInstance]:
        return iter(self._trace)

    def iter_traces(self) -> Iterator[WorkflowTrace]:
        yield self._trace

    def trace(self) -> WorkflowTrace:
        return self._trace


def as_source(
    workload: "WorkloadSource | WorkflowTrace | str",
    seed: int = 0,
    scale: float = 1.0,
) -> WorkloadSource:
    """Normalize whatever a caller handed us into a :class:`WorkloadSource`.

    Accepts a ready-made source (returned as-is), a materialized
    :class:`WorkflowTrace` (wrapped in :class:`TraceSource`), or a spec
    string (parsed via :func:`parse_workload`, with ``seed``/``scale``
    applied).  This is the single entry point every consumer uses, so
    traces, sources, and picklable spec strings are interchangeable
    across the whole stack.
    """
    if isinstance(workload, WorkflowTrace):
        return TraceSource(workload)
    if isinstance(workload, str):
        return parse_workload(workload, seed=seed, scale=scale)
    if isinstance(workload, WorkloadSource):
        return workload
    raise TypeError(
        f"workload must be a WorkloadSource, WorkflowTrace, or spec "
        f"string, got {type(workload)!r}"
    )


def check_scale(scale: float) -> float:
    """A source's subsampling fraction, which must lie in ``(0, 1]``."""
    if not 0.0 < scale <= 1.0:
        raise ConfigError(f"scale must be in (0, 1], got {scale}")
    return scale


#: scheme -> factory(argument, seed, scale).
_SCHEMES: dict[str, Callable[[str, int, float], WorkloadSource]] = {}


def register_workload(
    scheme: str, factory: Callable[[str, int, float], WorkloadSource]
) -> None:
    """Make ``factory(arg, seed, scale)`` addressable as ``scheme:arg``."""
    if not scheme or ":" in scheme:
        raise ValueError(f"bad workload scheme {scheme!r}")
    _SCHEMES[scheme] = factory


def workload_schemes() -> tuple[str, ...]:
    """Registered scheme names, in registration order."""
    return tuple(_SCHEMES)


def parse_workload(
    spec: str, seed: int = 0, scale: float = 1.0
) -> WorkloadSource:
    """Parse a workload spec string into a source.

    Specs are ``scheme:argument`` — ``synthetic:iwd``,
    ``wfcommons:traces/blast.json``, ``trace:runs/mag.jsonl``.  A bare
    name with no scheme is shorthand for ``synthetic:<name>`` so the
    CLI's historical ``--workflow iwd`` keeps meaning the same thing.
    ``seed`` and ``scale`` parameterize the source (generation seed and
    subsampling fraction).
    """
    if not isinstance(spec, str) or not spec.strip():
        raise ConfigError(f"workload spec must be a non-empty string, got {spec!r}")
    scheme, sep, arg = spec.strip().partition(":")
    if not sep:
        scheme, arg = "synthetic", spec.strip()
    if scheme not in _SCHEMES:
        raise ConfigError(
            f"unknown workload scheme {scheme!r} in {spec!r}; "
            f"registered: {sorted(_SCHEMES)}"
        )
    if not arg:
        raise ConfigError(f"workload spec {spec!r} is missing its argument")
    return _SCHEMES[scheme](arg, seed, scale)
