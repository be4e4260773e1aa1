"""Synthetic workload sources: the seeded generator behind a source.

:class:`SyntheticSource` wraps
:func:`repro.workflow.generator.generate_trace` — any programmatic
:class:`~repro.workflow.generator.WorkflowSpec` becomes a workload
source.  :class:`NfCoreSource` narrows it to the six paper workflows
from :mod:`repro.workflow.nfcore` by name.

Both yield *bit-for-bit* the traces the direct helpers yield today:
``NfCoreSource("iwd", seed=3, scale=0.05).trace()`` is the exact same
sequence of instances as ``build_workflow_trace("iwd", seed=3,
scale=0.05)`` — pinned by the golden regression tests, which now run
through the source layer.
"""

from __future__ import annotations

from typing import Iterator

from repro.workflow.generator import WorkflowSpec, generate_trace
from repro.workflow.task import TaskInstance, WorkflowTrace
from repro.workload.base import check_scale

__all__ = ["SyntheticSource", "NfCoreSource"]


class SyntheticSource:
    """Seeded synthetic generation of one workflow spec.

    Parameters
    ----------
    spec:
        The workflow specification to generate from.
    seed:
        Generator seed; the same (spec, seed, scale) triple always
        produces an identical trace.
    scale:
        Subsampling fraction in ``(0, 1]`` applied after generation
        (seeded with ``seed + 1``, matching
        :func:`~repro.workflow.nfcore.build_workflow_trace`).
    """

    scheme = "synthetic"

    def __init__(
        self, spec: WorkflowSpec, seed: int = 0, scale: float = 1.0
    ) -> None:
        self.spec = spec
        self.seed = seed
        self.scale = check_scale(scale)
        self._trace: WorkflowTrace | None = None

    @property
    def name(self) -> str:
        return f"{self.scheme}:{self.spec.name}"

    @property
    def workflow(self) -> str:
        return self.spec.name

    @property
    def n_tasks(self) -> int | None:
        return len(self.trace())

    def trace(self) -> WorkflowTrace:
        if self._trace is None:
            trace = generate_trace(self.spec, seed=self.seed)
            if self.scale != 1.0:
                trace = trace.subsample(self.scale, seed=self.seed + 1)
            self._trace = trace
        return self._trace

    def iter_tasks(self) -> Iterator[TaskInstance]:
        return iter(self.trace())

    def iter_traces(self) -> Iterator[WorkflowTrace]:
        yield self.trace()

    def __getstate__(self) -> dict:
        # Drop the cached trace so pickled cells (process-pool grids)
        # ship the small spec, not thousands of instances; workers
        # regenerate deterministically from (spec, seed, scale).
        state = self.__dict__.copy()
        state["_trace"] = None
        return state


class NfCoreSource(SyntheticSource):
    """One of the six paper workflows (eager, methylseq, chipseq,
    rnaseq, mag, iwd) by name — the registry target behind
    ``synthetic:<name>`` / ``nfcore:<name>`` specs.  ``name`` reports
    the canonical ``synthetic:`` scheme regardless of which alias the
    spec used, matching how the docs and the CLI label sources."""

    def __init__(self, name: str, seed: int = 0, scale: float = 1.0) -> None:
        from repro.workflow.nfcore import build_workflow_spec

        super().__init__(build_workflow_spec(name), seed=seed, scale=scale)
