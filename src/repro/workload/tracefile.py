"""Recorded-trace files as workload sources (repro-trace JSON/JSONL).

:class:`TraceFileSource` reads the versioned ``repro-trace`` schema
(:mod:`repro.workflow.io`): v1 documents, v2 documents carrying
per-instance DAG edges, and the JSONL streaming layout.  For ``.jsonl``
files :meth:`TraceFileSource.iter_tasks` parses one instance per line —
consumers that pull lazily (the replay backend, ingestion benchmarks)
never materialize the whole trace.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

from repro.workflow.io import (
    TraceFormatError,
    iter_trace_jsonl,
    load_trace,
    load_trace_jsonl,
)
from repro.workflow.task import TaskInstance, WorkflowTrace
from repro.workload.base import check_scale

__all__ = ["TraceFileSource"]


class TraceFileSource:
    """A repro-trace JSON (``.json``) or JSONL (``.jsonl``) file.

    Parameters
    ----------
    path:
        File to read.  ``.jsonl`` selects the streaming layout; anything
        else is parsed as a single JSON document.
    seed:
        Subsampling seed (only consulted when ``scale < 1``).
    scale:
        Subsampling fraction in ``(0, 1]``; applied on the materialized
        trace, so a scaled source is no longer streaming.
    """

    def __init__(
        self, path: str | Path, seed: int = 0, scale: float = 1.0
    ) -> None:
        self.path = Path(path)
        if not self.path.exists():
            raise TraceFormatError(
                f"trace file does not exist: {self.path}", path=str(self.path)
            )
        self.seed = seed
        self.scale = check_scale(scale)
        self._trace: WorkflowTrace | None = None
        self._workflow: str | None = None

    @property
    def streaming(self) -> bool:
        """True when iteration parses lazily (JSONL at full scale)."""
        return self.path.suffix == ".jsonl" and self.scale == 1.0

    @property
    def name(self) -> str:
        return f"trace:{self.path}"

    @property
    def workflow(self) -> str:
        if self._workflow is None:
            if self._trace is not None:
                self._workflow = self._trace.workflow
            elif self.path.suffix == ".jsonl":
                # Header-only read; cached so repeated accesses (the
                # kernel reads it for the trace context and again for
                # the result) don't re-parse the file.
                header, _ = iter_trace_jsonl(self.path)
                self._workflow = header["workflow"]
            else:
                self._workflow = self.trace().workflow
        return self._workflow

    @property
    def n_tasks(self) -> int | None:
        # A streaming file's length is unknown until exhausted; anything
        # materialized (plain JSON, or a scaled source) knows its size.
        if self.streaming and self._trace is None:
            return None
        return len(self.trace())

    def trace(self) -> WorkflowTrace:
        if self._trace is None:
            if self.path.suffix == ".jsonl":
                trace = load_trace_jsonl(self.path)
            else:
                trace = load_trace(self.path)
            if self.scale != 1.0:
                trace = trace.subsample(self.scale, seed=self.seed + 1)
            self._trace = trace
        return self._trace

    def iter_tasks(self) -> Iterator[TaskInstance]:
        if self.streaming and self._trace is None:
            _, instances = iter_trace_jsonl(self.path)
            return instances
        return iter(self.trace())

    def iter_traces(self) -> Iterator[WorkflowTrace]:
        yield self.trace()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_trace"] = None  # workers re-read the file
        return state
