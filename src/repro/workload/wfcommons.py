"""WfCommons instance JSON as a workload source.

WfCommons (wfcommons.org) is the community-standard format for real
workflow execution traces — the kind of provenance the paper's
evaluation replays from six nf-core pipelines.  This module ingests a
WfCommons *instance* file into the substrate's native
:class:`~repro.workflow.task.WorkflowTrace` +
:class:`~repro.workflow.dag.WorkflowDAG`, so every recorded workflow in
the public WfCommons collections becomes a runnable workload for the
replay backend, the event kernel, and the DAG scheduling engine.

Two schema generations are understood:

- **modern** (schemaVersion >= 1.4): ``workflow.specification.tasks``
  (structure: parents/children/input files) joined with
  ``workflow.execution.tasks`` (measurements: ``runtimeInSeconds``,
  ``memoryInBytes``, ``avgCPU``, ``readBytes``, ``writtenBytes``) and
  ``specification.files`` (``sizeInBytes``);
- **legacy** (<= 1.3): flat ``workflow.tasks`` (or ``jobs``) rows with
  ``runtime`` in seconds, ``memory`` in KB, and per-task ``files``
  entries with ``size`` in bytes.

Unit normalization targets the substrate's conventions: memory and file
sizes in MB (binary, 1 MB = 2**20 bytes; 1 MB = 1024 KB), runtimes in
hours.

Missing or zero measurements (real traces are full of them — failed
probes, un-instrumented tools) fall back to *seeded* draws: a task with
no usable memory sample gets the median of its task type's known peaks
jittered log-normally, or a generic prior when the whole type is
unmeasured.  The same seed always fills the same values, so a partially
measured file is still a deterministic workload.

Dependencies are recorded per *instance* in WfCommons.  The instance
edges are kept on :attr:`WorkflowTrace.instance_edges` (round-tripped by
trace schema v2) and additionally collapsed to the type-level
:class:`WorkflowDAG` the scheduling engine consumes: each task type
takes the minimum topological depth of its instances, and an edge
``u -> v`` survives iff ``depth(type(u)) < depth(type(v))`` — acyclic by
construction even when a naive type collapse would cycle.  Cyclic
*instance* links are a format error and raise
:class:`~repro.workflow.io.TraceFormatError`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.workflow.dag import WorkflowDAG
from repro.workflow.io import TraceFormatError
from repro.workflow.task import TaskInstance, TaskType, WorkflowTrace
from repro.workload.base import check_scale

__all__ = [
    "WfCommonsSource",
    "load_wfcommons",
    "wfcommons_to_trace",
    "trace_to_wfcommons",
]

_BYTES_PER_MB = 1024.0 * 1024.0
_KB_PER_MB = 1024.0
_SECONDS_PER_HOUR = 3600.0

#: Seeded-fallback priors for wholly unmeasured task types.
_FALLBACK_MEMORY_MB = 1024.0
_FALLBACK_RUNTIME_HOURS = 0.01
_FALLBACK_INPUT_MB = 100.0


@dataclass
class _Row:
    """One task, normalized across schema generations (MB / hours)."""

    uid: str
    type_name: str
    order: int  # position in the file, the deterministic tie-breaker
    parents: list[str] = field(default_factory=list)
    children: list[str] = field(default_factory=list)
    memory_mb: float | None = None
    runtime_hours: float | None = None
    input_mb: float | None = None
    cpu_percent: float = 100.0
    io_read_mb: float = 0.0
    io_write_mb: float = 0.0
    machine: str = "default"


def _number(value: object, path: str, what: str) -> float:
    """Convert a raw field to float or raise the typed error with path."""
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise TraceFormatError(
            f"{what} must be a number, got {value!r}", path=path
        ) from None


def _positive_or_none(
    value: object, path: str, what: str
) -> float | None:
    """Normalize a raw measurement: None/0 -> missing, negative -> error."""
    if value is None:
        return None
    number = _number(value, path, what)
    if number < 0:
        raise TraceFormatError(
            f"{what} must be >= 0, got {number}", path=path
        )
    return number if number > 0 else None


def _type_of(task: dict, uid: str) -> str:
    """Task-type name: ``category`` when present, else the id stem.

    WfCommons instance ids conventionally look like
    ``blast_ID0000042``; stripping the ``_ID...`` suffix recovers the
    tool name when no explicit category is given.
    """
    category = task.get("category")
    if isinstance(category, str) and category:
        return category
    stem, sep, tail = uid.rpartition("_ID")
    if sep and stem and tail.isdigit():
        return stem
    return uid


def _rows_modern(wf: dict) -> list[_Row]:
    spec = wf["specification"]
    tasks = spec.get("tasks")
    if not isinstance(tasks, list):
        raise TraceFormatError(
            "missing required key 'tasks'", path="workflow.specification"
        )
    file_sizes: dict[str, float] = {}
    for i, f in enumerate(spec.get("files", []) or []):
        fid = f.get("id")
        if fid is None:
            raise TraceFormatError(
                "missing required key 'id'",
                path=f"workflow.specification.files[{i}]",
            )
        size = _positive_or_none(
            f.get("sizeInBytes"),
            f"workflow.specification.files[{i}].sizeInBytes",
            "sizeInBytes",
        )
        file_sizes[str(fid)] = (size or 0.0) / _BYTES_PER_MB

    execution: dict[str, dict] = {}
    for i, t in enumerate((wf.get("execution") or {}).get("tasks", []) or []):
        tid = t.get("id")
        if tid is None:
            raise TraceFormatError(
                "missing required key 'id'",
                path=f"workflow.execution.tasks[{i}]",
            )
        execution[str(tid)] = t

    rows: list[_Row] = []
    for i, task in enumerate(tasks):
        path = f"workflow.specification.tasks[{i}]"
        if not isinstance(task, dict):
            raise TraceFormatError("task must be an object", path=path)
        uid = task.get("id") or task.get("name")
        if not uid:
            raise TraceFormatError(
                "task has neither 'id' nor 'name'", path=path
            )
        uid = str(uid)
        row = _Row(uid=uid, type_name=_type_of(task, uid), order=i)
        row.parents = [str(p) for p in task.get("parents", []) or []]
        input_files = task.get("inputFiles")
        if input_files is not None:
            row.input_mb = float(
                sum(file_sizes.get(str(f), 0.0) for f in input_files)
            )
        measured = execution.get(uid, {})
        row.memory_mb = _positive_or_none(
            measured.get("memoryInBytes"),
            f"workflow.execution.tasks[{uid}].memoryInBytes",
            "memoryInBytes",
        )
        if row.memory_mb is not None:
            row.memory_mb /= _BYTES_PER_MB
        row.runtime_hours = _positive_or_none(
            measured.get("runtimeInSeconds"),
            f"workflow.execution.tasks[{uid}].runtimeInSeconds",
            "runtimeInSeconds",
        )
        if row.runtime_hours is not None:
            row.runtime_hours /= _SECONDS_PER_HOUR
        exec_path = f"workflow.execution.tasks[{uid}]"
        if measured.get("avgCPU") is not None:
            row.cpu_percent = _number(
                measured["avgCPU"], f"{exec_path}.avgCPU", "avgCPU"
            )
        if measured.get("readBytes") is not None:
            row.io_read_mb = _number(
                measured["readBytes"], f"{exec_path}.readBytes", "readBytes"
            ) / _BYTES_PER_MB
        if measured.get("writtenBytes") is not None:
            row.io_write_mb = _number(
                measured["writtenBytes"],
                f"{exec_path}.writtenBytes",
                "writtenBytes",
            ) / _BYTES_PER_MB
        machines = measured.get("machines") or []
        if machines:
            row.machine = str(machines[0])
        row.children = [str(c) for c in task.get("children", []) or []]
        rows.append(row)
    return rows


def _rows_legacy(wf: dict) -> list[_Row]:
    tasks = wf.get("tasks", wf.get("jobs"))
    if not isinstance(tasks, list):
        raise TraceFormatError(
            "workflow has neither 'specification' nor 'tasks'/'jobs'",
            path="workflow",
        )
    rows: list[_Row] = []
    for i, task in enumerate(tasks):
        path = f"workflow.tasks[{i}]"
        if not isinstance(task, dict):
            raise TraceFormatError("task must be an object", path=path)
        uid = task.get("id") or task.get("name")
        if not uid:
            raise TraceFormatError(
                "task has neither 'id' nor 'name'", path=path
            )
        uid = str(uid)
        row = _Row(uid=uid, type_name=_type_of(task, uid), order=i)
        row.parents = [str(p) for p in task.get("parents", []) or []]
        row.children = [str(c) for c in task.get("children", []) or []]
        memory_kb = _positive_or_none(
            task.get("memory"), f"{path}.memory", "memory"
        )
        if memory_kb is not None:
            row.memory_mb = memory_kb / _KB_PER_MB
        runtime_s = _positive_or_none(
            task.get("runtime"), f"{path}.runtime", "runtime"
        )
        if runtime_s is not None:
            row.runtime_hours = runtime_s / _SECONDS_PER_HOUR
        files = task.get("files")
        if files is not None:
            total = 0.0
            for j, f in enumerate(files):
                if not isinstance(f, dict):
                    raise TraceFormatError(
                        "file entry must be an object",
                        path=f"{path}.files[{j}]",
                    )
                if f.get("link") != "input":
                    continue
                size = _positive_or_none(
                    f.get("size"), f"{path}.files[{j}].size", "size"
                )
                total += (size or 0.0) / _BYTES_PER_MB
            row.input_mb = total
        if task.get("avgCPU") is not None:
            row.cpu_percent = _number(
                task["avgCPU"], f"{path}.avgCPU", "avgCPU"
            )
        if task.get("bytesRead") is not None:
            row.io_read_mb = _number(
                task["bytesRead"], f"{path}.bytesRead", "bytesRead"
            ) / _BYTES_PER_MB
        if task.get("bytesWritten") is not None:
            row.io_write_mb = _number(
                task["bytesWritten"], f"{path}.bytesWritten", "bytesWritten"
            ) / _BYTES_PER_MB
        machine = task.get("machine")
        if machine:
            row.machine = str(machine)
        rows.append(row)
    return rows


def _link_and_sort(rows: list[_Row]) -> tuple[list[_Row], dict[str, int]]:
    """Merge parents/children, topo-sort, return (ordered rows, depths).

    Depth is the longest-path distance from any source, computed with
    Kahn's algorithm; cyclic links raise :class:`TraceFormatError`
    naming the cycle members.  Rows come back in submission order:
    (depth, file position).
    """
    by_id: dict[str, _Row] = {}
    for row in rows:
        if row.uid in by_id:
            raise TraceFormatError(
                f"duplicate task id {row.uid!r}",
                path=f"workflow.tasks[{row.order}].id",
            )
        by_id[row.uid] = row
    # Union the two redundant link directions into parents-only form.
    for row in rows:
        for parent in row.parents:
            if parent not in by_id:
                raise TraceFormatError(
                    f"parent {parent!r} references an unknown task",
                    path=f"workflow.tasks[{row.order}].parents",
                )
        for child in row.children:
            if child not in by_id:
                raise TraceFormatError(
                    f"child {child!r} references an unknown task",
                    path=f"workflow.tasks[{row.order}].children",
                )
            if row.uid not in by_id[child].parents:
                by_id[child].parents.append(row.uid)
    for row in rows:
        if row.uid in row.parents:
            raise TraceFormatError(
                f"task {row.uid!r} lists itself as a parent",
                path=f"workflow.tasks[{row.order}].parents",
            )

    children: dict[str, list[str]] = {row.uid: [] for row in rows}
    indegree: dict[str, int] = {row.uid: 0 for row in rows}
    for row in rows:
        unique_parents = sorted(set(row.parents))
        row.parents = unique_parents
        indegree[row.uid] = len(unique_parents)
        for parent in unique_parents:
            children[parent].append(row.uid)
    depth: dict[str, int] = {}
    frontier = [row.uid for row in rows if indegree[row.uid] == 0]
    for uid in frontier:
        depth[uid] = 0
    processed = 0
    while frontier:
        nxt: list[str] = []
        for uid in frontier:
            processed += 1
            for child in children[uid]:
                indegree[child] -= 1
                depth[child] = max(depth.get(child, 0), depth[uid] + 1)
                if indegree[child] == 0:
                    nxt.append(child)
        frontier = nxt
    if processed != len(rows):
        # Kahn leaves every node downstream of a cycle unprocessed;
        # blame only actual cycle members — a node that can reach
        # itself — so the error points at the links to fix rather than
        # at innocent descendants (same convention as WorkflowDAG).
        remaining = {uid for uid, deg in indegree.items() if deg > 0}

        def reaches_itself(start: str) -> bool:
            seen: set[str] = set()
            stack = [c for c in children[start] if c in remaining]
            while stack:
                current = stack.pop()
                if current == start:
                    return True
                if current in seen:
                    continue
                seen.add(current)
                stack.extend(c for c in children[current] if c in remaining)
            return False

        members = sorted(uid for uid in remaining if reaches_itself(uid))
        raise TraceFormatError(
            f"cyclic parent/child links involving {members}",
            path="workflow.tasks",
        )
    ordered = sorted(rows, key=lambda r: (depth[r.uid], r.order))
    return ordered, depth


def _fill_missing(rows: list[_Row], rng: np.random.Generator) -> None:
    """Seeded fallback for missing memory/runtime/input measurements.

    Draws happen in submission order, only for missing fields, so the
    same (file, seed) pair always fills the same values.  The per-type
    pools (and hence every fill's center) are fixed before any fill
    happens, so all draws can be planned first and taken in one
    vectorized ``lognormal`` call — the ``Generator`` bit stream is
    consumed identically to per-draw scalar calls, keeping values
    bit-for-bit stable while making million-task files import fast.
    """
    known_memory: dict[str, list[float]] = {}
    known_runtime: dict[str, list[float]] = {}
    known_input: dict[str, list[float]] = {}
    for row in rows:
        if row.memory_mb is not None:
            known_memory.setdefault(row.type_name, []).append(row.memory_mb)
        if row.runtime_hours is not None:
            known_runtime.setdefault(row.type_name, []).append(
                row.runtime_hours
            )
        if row.input_mb is not None:
            known_input.setdefault(row.type_name, []).append(row.input_mb)

    medians: dict[int, float] = {}

    def center_of(pool: list[float] | None, prior: float) -> float:
        if not pool:
            return prior
        key = id(pool)
        if key not in medians:
            medians[key] = float(np.median(pool))
        return medians[key]

    #: (row, field, center) per missing value, in draw (submission) order.
    plan: list[tuple[_Row, str, float]] = []
    sigmas: list[float] = []

    for row in rows:
        if row.memory_mb is None:
            plan.append((row, "memory_mb", center_of(
                known_memory.get(row.type_name), _FALLBACK_MEMORY_MB)))
            sigmas.append(0.1)
        if row.runtime_hours is None:
            plan.append((row, "runtime_hours", center_of(
                known_runtime.get(row.type_name), _FALLBACK_RUNTIME_HOURS)))
            sigmas.append(0.1)
        if row.input_mb is None:
            plan.append((row, "input_mb", center_of(
                known_input.get(row.type_name), _FALLBACK_INPUT_MB)))
            sigmas.append(0.5)
    if not plan:
        return
    factors = rng.lognormal(0.0, np.asarray(sigmas, dtype=np.float64))
    for (row, field, center), factor in zip(plan, factors):
        setattr(row, field, center * float(factor))


def _ceil_to_gb(mb: float) -> float:
    return float(np.ceil(mb / 1024.0) * 1024.0)


def _collapse_type_dag(
    rows: list[_Row], depth: dict[str, int]
) -> WorkflowDAG:
    """Type-level DAG from instance links via minimum-depth staging."""
    type_order: list[str] = []
    type_depth: dict[str, int] = {}
    for row in rows:  # rows are in (depth, order) submission order
        if row.type_name not in type_depth:
            type_order.append(row.type_name)
            type_depth[row.type_name] = depth[row.uid]
        else:
            type_depth[row.type_name] = min(
                type_depth[row.type_name], depth[row.uid]
            )
    by_id = {row.uid: row for row in rows}
    edges: set[tuple[str, str]] = set()
    for row in rows:
        for parent in row.parents:
            up, down = by_id[parent].type_name, row.type_name
            if up != down and type_depth[up] < type_depth[down]:
                edges.add((up, down))
    return WorkflowDAG(type_order, sorted(edges))


def wfcommons_to_trace(
    data: dict, seed: int = 0, workflow: str | None = None
) -> WorkflowTrace:
    """Convert a parsed WfCommons instance document into a trace.

    Returns a :class:`WorkflowTrace` whose ``dag`` is the collapsed
    type-level dependency graph and whose ``instance_edges`` preserve
    the original per-instance links (new ids are submission positions).
    ``workflow`` overrides the document's ``name``.
    """
    if not isinstance(data, dict):
        raise TraceFormatError(
            f"WfCommons document must be a JSON object, got "
            f"{type(data).__name__}",
            path="$",
        )
    wf = data.get("workflow")
    if not isinstance(wf, dict):
        raise TraceFormatError("missing required key 'workflow'", path="$")
    name = workflow or str(data.get("name") or "wfcommons")
    if "specification" in wf:
        rows = _rows_modern(wf)
    else:
        rows = _rows_legacy(wf)
    if not rows:
        raise TraceFormatError(
            "WfCommons instance declares no tasks", path="workflow.tasks"
        )
    ordered, depth = _link_and_sort(rows)
    _fill_missing(ordered, np.random.default_rng(seed))
    dag = _collapse_type_dag(ordered, depth)

    peaks: dict[str, float] = {}
    for row in ordered:
        assert row.memory_mb is not None
        peaks[row.type_name] = max(
            peaks.get(row.type_name, 0.0), row.memory_mb
        )
    # Preset convention mirrors the synthetic generator: conservative
    # round-number defaults with a 4 GB floor, derived from the peaks.
    types = {
        t: TaskType(
            name=t,
            workflow=name,
            preset_memory_mb=max(_ceil_to_gb(peak * 2.0), 4096.0),
        )
        for t, peak in peaks.items()
    }
    new_id = {row.uid: i for i, row in enumerate(ordered)}
    instances = [
        TaskInstance(
            task_type=types[row.type_name],
            instance_id=new_id[row.uid],
            input_size_mb=float(row.input_mb or 0.0),
            peak_memory_mb=float(row.memory_mb),  # type: ignore[arg-type]
            runtime_hours=float(row.runtime_hours),  # type: ignore[arg-type]
            cpu_percent=float(row.cpu_percent),
            io_read_mb=float(row.io_read_mb),
            io_write_mb=float(row.io_write_mb),
            machine=row.machine,
        )
        for row in ordered
    ]
    instance_edges = sorted(
        (new_id[parent], new_id[row.uid])
        for row in ordered
        for parent in row.parents
    )
    return WorkflowTrace(
        name, instances, dag=dag, instance_edges=instance_edges
    )


def load_wfcommons(
    path: str | Path, seed: int = 0, workflow: str | None = None
) -> WorkflowTrace:
    """Read a WfCommons instance JSON file into a trace."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise TraceFormatError(
            f"not valid JSON: {exc}", path=str(path)
        ) from None
    return wfcommons_to_trace(data, seed=seed, workflow=workflow)


def trace_to_wfcommons(trace: WorkflowTrace) -> dict:
    """Export a trace as a modern-schema WfCommons instance document.

    The inverse (lossy only in float runtime seconds) of
    :func:`wfcommons_to_trace` — used to fabricate WfCommons files from
    synthetic traces for demos, benchmarks, and round-trip tests.
    Instance-level links come from ``trace.instance_edges`` when
    present; otherwise each type-level DAG edge ``u -> v`` is thinned to
    instance links ``v_i -> u_(i mod n_u)`` deterministically.
    """
    uid = {
        inst.instance_id: f"{inst.task_type.name}_ID{inst.instance_id:07d}"
        for inst in trace
    }
    parents: dict[int, list[int]] = {inst.instance_id: [] for inst in trace}
    children: dict[int, list[int]] = {inst.instance_id: [] for inst in trace}
    if trace.instance_edges is not None:
        links = list(trace.instance_edges)
    elif trace.dag is not None:
        by_type: dict[str, list[int]] = {}
        for inst in trace:
            by_type.setdefault(inst.task_type.name, []).append(
                inst.instance_id
            )
        links = []
        for up, down in trace.dag.edges:
            ups, downs = by_type.get(up, []), by_type.get(down, [])
            if not ups:
                continue
            links.extend(
                (ups[i % len(ups)], child) for i, child in enumerate(downs)
            )
    else:
        links = []
    for up, down in links:
        parents[down].append(up)
        children[up].append(down)

    spec_tasks, exec_tasks, files = [], [], []
    for inst in trace:
        iid = inst.instance_id
        file_id = f"in_{iid:07d}"
        files.append(
            {
                "id": file_id,
                "sizeInBytes": inst.input_size_mb * _BYTES_PER_MB,
            }
        )
        spec_tasks.append(
            {
                "name": inst.task_type.name,
                "id": uid[iid],
                "category": inst.task_type.name,
                "parents": [uid[p] for p in sorted(parents[iid])],
                "children": [uid[c] for c in sorted(children[iid])],
                "inputFiles": [file_id],
                "outputFiles": [],
            }
        )
        exec_tasks.append(
            {
                "id": uid[iid],
                "runtimeInSeconds": inst.runtime_hours * _SECONDS_PER_HOUR,
                "memoryInBytes": inst.peak_memory_mb * _BYTES_PER_MB,
                "avgCPU": inst.cpu_percent,
                "readBytes": inst.io_read_mb * _BYTES_PER_MB,
                "writtenBytes": inst.io_write_mb * _BYTES_PER_MB,
                "machines": [inst.machine],
            }
        )
    return {
        "name": trace.workflow,
        "schemaVersion": "1.5",
        "workflow": {
            "specification": {"tasks": spec_tasks, "files": files},
            "execution": {"tasks": exec_tasks},
        },
    }


class WfCommonsSource:
    """A WfCommons instance file as a :class:`WorkloadSource`.

    Parameters
    ----------
    path:
        WfCommons instance JSON file.
    seed:
        Seed of the missing-field fallback draws (and of subsampling
        when ``scale < 1``); the same (file, seed) always yields the
        same trace.
    scale:
        Subsampling fraction in ``(0, 1]``.
    """

    def __init__(
        self, path: str | Path, seed: int = 0, scale: float = 1.0
    ) -> None:
        self.path = Path(path)
        if not self.path.exists():
            raise TraceFormatError(
                f"WfCommons file does not exist: {self.path}",
                path=str(self.path),
            )
        self.seed = seed
        self.scale = check_scale(scale)
        self._trace: WorkflowTrace | None = None

    @property
    def name(self) -> str:
        return f"wfcommons:{self.path}"

    @property
    def workflow(self) -> str:
        return self.trace().workflow

    @property
    def n_tasks(self) -> int | None:
        return len(self.trace())

    def trace(self) -> WorkflowTrace:
        if self._trace is None:
            trace = load_wfcommons(self.path, seed=self.seed)
            if self.scale != 1.0:
                trace = trace.subsample(self.scale, seed=self.seed + 1)
            self._trace = trace
        return self._trace

    def iter_tasks(self) -> Iterator[TaskInstance]:
        return iter(self.trace())

    def iter_traces(self) -> Iterator[WorkflowTrace]:
        yield self.trace()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_trace"] = None  # workers re-read the file
        return state
