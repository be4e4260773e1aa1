"""Trace serialisation: JSON round-trips, JSONL streaming, CSV export.

Lets users persist generated traces, load externally recorded traces
(e.g. converted from Nextflow trace files or WfCommons JSON — see
:mod:`repro.workload.wfcommons` for the native WfCommons reader), and
feed them to the simulator — the substrate-level equivalent of the
paper's provenance import.

The JSON schema is deliberately flat and versioned::

    {"format": "repro-trace", "version": 1, "workflow": "rnaseq",
     "task_types": [{"name": ..., "preset_memory_mb": ...}, ...],
     "instances": [{"task_type": ..., "instance_id": ..., ...}, ...]}

Version 2 is identical plus an optional ``instance_edges`` key — a list
of ``[parent_instance_id, child_instance_id]`` pairs that round-trips
per-instance DAG edges (finer-grained than the type-level ``dag`` key,
which both versions carry).  :func:`trace_to_dict` emits version 1
unless the trace actually carries instance edges, so files stay readable
by older loaders whenever possible.

For large traces the JSONL layout (:func:`save_trace_jsonl` /
:func:`iter_trace_jsonl`) streams one instance per line, letting
consumers iterate tasks without materializing the whole trace — the
streaming substrate behind
:class:`repro.workload.tracefile.TraceFileSource`.

All loaders raise the typed :class:`TraceFormatError` (a ``ValueError``)
naming the offending key/path instead of surfacing bare ``KeyError``\\ s.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterator

from repro.errors import ConfigError
from repro.workflow.dag import WorkflowDAG
from repro.workflow.task import TaskInstance, TaskType, WorkflowTrace

__all__ = [
    "TraceFormatError",
    "trace_to_dict",
    "trace_from_dict",
    "save_trace",
    "load_trace",
    "save_trace_jsonl",
    "iter_trace_jsonl",
    "load_trace_jsonl",
    "export_csv",
    "import_csv",
]

_FORMAT = "repro-trace"
_VERSION = 1
#: Versions the loader accepts: v2 = v1 + optional ``instance_edges``.
_SUPPORTED_VERSIONS = (1, 2)

_INSTANCE_FIELDS = (
    "instance_id",
    "input_size_mb",
    "peak_memory_mb",
    "runtime_hours",
    "cpu_percent",
    "io_read_mb",
    "io_write_mb",
    "machine",
)


class TraceFormatError(ConfigError):
    """A trace document violates the schema.

    ``path`` names the offending key (e.g. ``instances[3].peak_memory_mb``)
    so a malformed multi-thousand-row file points at the exact row to
    fix rather than dying with a bare ``KeyError``.
    """

    def __init__(self, message: str, path: str | None = None) -> None:
        self.path = path
        if path:
            message = f"{message} (at {path})"
        super().__init__(message)


def _require(mapping: dict, key: str, path: str):
    """Fetch ``mapping[key]`` or raise a :class:`TraceFormatError`."""
    if not isinstance(mapping, dict):
        raise TraceFormatError(
            f"expected an object, got {type(mapping).__name__}", path=path
        )
    if key not in mapping:
        raise TraceFormatError(f"missing required key {key!r}", path=path)
    return mapping[key]


def trace_to_dict(trace: WorkflowTrace) -> dict:
    """Serialise a trace to a JSON-compatible dict.

    The trace's DAG (when present) round-trips as an optional ``dag``
    key — ``{"nodes": [...], "edges": [[up, down], ...]}`` — so a saved
    trace keeps working with the DAG-aware scheduler after reload.  A
    trace carrying per-instance edges is emitted as version 2 with an
    ``instance_edges`` key; everything else stays version 1.
    """
    version = _VERSION if trace.instance_edges is None else 2
    data = {
        "format": _FORMAT,
        "version": version,
        "workflow": trace.workflow,
        "task_types": [
            {"name": t.name, "preset_memory_mb": t.preset_memory_mb}
            for t in trace.task_types
        ],
        "instances": [
            {
                "task_type": inst.task_type.name,
                **{f: getattr(inst, f) for f in _INSTANCE_FIELDS},
            }
            for inst in trace
        ],
    }
    if trace.dag is not None:
        data["dag"] = {
            "nodes": trace.dag.nodes,
            "edges": [list(e) for e in trace.dag.edges],
        }
    if trace.instance_edges is not None:
        data["instance_edges"] = [list(e) for e in trace.instance_edges]
    return data


def _check_header(data: dict, path: str = "") -> int:
    """Validate the format/version header; returns the version."""
    prefix = f"{path}." if path else ""
    if not isinstance(data, dict):
        raise TraceFormatError(
            f"expected a JSON object, got {type(data).__name__}",
            path=path or "$",
        )
    if data.get("format") != _FORMAT:
        raise TraceFormatError(
            f"not a {_FORMAT} document: format={data.get('format')!r}",
            path=f"{prefix}format",
        )
    version = data.get("version")
    if version not in _SUPPORTED_VERSIONS:
        raise TraceFormatError(
            f"unsupported trace version {version!r} "
            f"(supported: {', '.join(map(str, _SUPPORTED_VERSIONS))})",
            path=f"{prefix}version",
        )
    return version


def _types_from_rows(rows: list, workflow: str) -> dict[str, TaskType]:
    types: dict[str, TaskType] = {}
    for i, t in enumerate(rows):
        name = _require(t, "name", f"task_types[{i}]")
        try:
            preset = float(_require(t, "preset_memory_mb", f"task_types[{i}]"))
        except (TypeError, ValueError):
            raise TraceFormatError(
                f"preset_memory_mb must be a number, got "
                f"{t.get('preset_memory_mb')!r}",
                path=f"task_types[{i}].preset_memory_mb",
            ) from None
        types[name] = TaskType(
            name=name, workflow=workflow, preset_memory_mb=preset
        )
    return types


def _instance_from_row(
    row: dict, types: dict[str, TaskType], path: str
) -> TaskInstance:
    name = _require(row, "task_type", path)
    if name not in types:
        raise TraceFormatError(
            f"instance references unknown task type {name!r}",
            path=f"{path}.task_type",
        )
    kwargs = {}
    for f in _INSTANCE_FIELDS:
        value = _require(row, f, path)
        if f in ("instance_id", "machine"):
            kwargs[f] = value
        else:
            try:
                kwargs[f] = float(value)
            except (TypeError, ValueError):
                raise TraceFormatError(
                    f"{f} must be a number, got {value!r}",
                    path=f"{path}.{f}",
                ) from None
    try:
        return TaskInstance(task_type=types[name], **kwargs)
    except ValueError as exc:
        raise TraceFormatError(str(exc), path=path) from None


def _dag_from_dict(data: dict) -> WorkflowDAG | None:
    if "dag" not in data:
        return None
    dag = data["dag"]
    nodes = _require(dag, "nodes", "dag")
    edges = _require(dag, "edges", "dag")
    try:
        return WorkflowDAG(list(nodes), [(u, v) for u, v in edges])
    except (TypeError, ValueError) as exc:
        raise TraceFormatError(f"invalid dag: {exc}", path="dag") from None


def _instance_edges_from_dict(data: dict) -> list[tuple[int, int]] | None:
    if "instance_edges" not in data:
        return None
    edges = data["instance_edges"]
    if not isinstance(edges, list):
        raise TraceFormatError(
            "instance_edges must be a list of [parent, child] pairs",
            path="instance_edges",
        )
    out: list[tuple[int, int]] = []
    for i, pair in enumerate(edges):
        try:
            up, down = pair
            out.append((int(up), int(down)))
        except (TypeError, ValueError):
            raise TraceFormatError(
                f"expected an [parent_id, child_id] integer pair, "
                f"got {pair!r}",
                path=f"instance_edges[{i}]",
            ) from None
    return out


def trace_from_dict(data: dict) -> WorkflowTrace:
    """Deserialise a trace; validates format, version, and references."""
    _check_header(data)
    workflow = _require(data, "workflow", "")
    types = _types_from_rows(_require(data, "task_types", ""), workflow)
    instances = [
        _instance_from_row(row, types, f"instances[{i}]")
        for i, row in enumerate(_require(data, "instances", ""))
    ]
    try:
        return WorkflowTrace(
            workflow,
            instances,
            dag=_dag_from_dict(data),
            instance_edges=_instance_edges_from_dict(data),
        )
    except ValueError as exc:
        if isinstance(exc, TraceFormatError):
            raise
        raise TraceFormatError(str(exc)) from None


def save_trace(trace: WorkflowTrace, path: str | Path) -> None:
    """Write a trace as JSON."""
    Path(path).write_text(json.dumps(trace_to_dict(trace)))


def load_trace(path: str | Path) -> WorkflowTrace:
    """Read a trace from JSON."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"not valid JSON: {exc}", path=str(path)) from None
    return trace_from_dict(data)


# ----------------------------------------------------------------------
# JSONL streaming layout
# ----------------------------------------------------------------------

def save_trace_jsonl(trace: WorkflowTrace, path: str | Path) -> None:
    """Write a trace as JSONL: a header line, then one instance per line.

    The header is the v1/v2 document *without* its ``instances`` key;
    every following line is one instance row.  Consumers can stream the
    instances without holding the whole trace in memory
    (:func:`iter_trace_jsonl`).
    """
    header = trace_to_dict(trace)
    instances = header.pop("instances")
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for row in instances:
            fh.write(json.dumps(row) + "\n")


def _jsonl_line(line: str, lineno: int, path: str | Path) -> dict:
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(
            f"line {lineno} is not valid JSON: {exc}", path=str(path)
        ) from None


def iter_trace_jsonl(
    path: str | Path,
) -> tuple[dict, Iterator[TaskInstance]]:
    """Open a JSONL trace: ``(header, lazy instance iterator)``.

    The header (format/version/workflow/task_types, plus optional
    ``dag``/``instance_edges``) is read and validated eagerly; the
    instances are parsed one line at a time as the iterator advances —
    the file is never fully materialized.
    """
    path = Path(path)
    with open(path) as fh:
        first = fh.readline()
        if not first.strip():
            raise TraceFormatError("empty JSONL trace file", path=str(path))
        header = _jsonl_line(first, 1, path)
    _check_header(header)
    workflow = _require(header, "workflow", "")
    types = _types_from_rows(_require(header, "task_types", ""), workflow)

    def _instances() -> Iterator[TaskInstance]:
        with open(path) as fh:
            fh.readline()  # header
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                row = _jsonl_line(line, lineno, path)
                yield _instance_from_row(
                    row, types, f"line {lineno}"
                )

    return header, _instances()


def load_trace_jsonl(path: str | Path) -> WorkflowTrace:
    """Read a JSONL trace fully into a :class:`WorkflowTrace`."""
    header, instances = iter_trace_jsonl(path)
    try:
        return WorkflowTrace(
            _require(header, "workflow", ""),
            list(instances),
            dag=_dag_from_dict(header),
            instance_edges=_instance_edges_from_dict(header),
        )
    except ValueError as exc:
        if isinstance(exc, TraceFormatError):
            raise
        raise TraceFormatError(str(exc)) from None


# ----------------------------------------------------------------------
# CSV export / import
# ----------------------------------------------------------------------

def export_csv(trace: WorkflowTrace, path: str | Path) -> None:
    """Write the per-instance table as CSV (for external analysis)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("workflow", "task_type", *_INSTANCE_FIELDS))
        for inst in trace:
            writer.writerow(
                (
                    trace.workflow,
                    inst.task_type.name,
                    *(getattr(inst, f) for f in _INSTANCE_FIELDS),
                )
            )


def import_csv(
    path: str | Path, preset_memory_mb: float | None = None
) -> WorkflowTrace:
    """Load a CSV written by :func:`export_csv` back into a trace.

    CSV carries no task-type presets (it is the flat per-instance
    table), so each type's preset is reconstructed as the maximum
    observed peak of its instances rounded up to the next GB — unless an
    explicit ``preset_memory_mb`` overrides it for every type.  DAG and
    instance-edge structure is likewise not part of the CSV layout; use
    the JSON/JSONL formats to round-trip those.
    """
    rows: list[dict] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [
            f
            for f in ("workflow", "task_type", *_INSTANCE_FIELDS)
            if f not in (reader.fieldnames or ())
        ]
        if missing:
            raise TraceFormatError(
                f"CSV is missing required columns {missing}", path=str(path)
            )
        rows.extend(reader)
    if not rows:
        raise TraceFormatError("CSV contains no instance rows", path=str(path))
    workflow = rows[0]["workflow"]
    peaks: dict[str, float] = {}
    for i, row in enumerate(rows):
        if row["workflow"] != workflow:
            raise TraceFormatError(
                f"mixed workflows in one CSV: {workflow!r} vs "
                f"{row['workflow']!r}",
                path=f"row {i + 2}",
            )
        try:
            peak = float(row["peak_memory_mb"])
        except ValueError:
            raise TraceFormatError(
                f"peak_memory_mb must be a number, got "
                f"{row['peak_memory_mb']!r}",
                path=f"row {i + 2}.peak_memory_mb",
            ) from None
        peaks[row["task_type"]] = max(peaks.get(row["task_type"], 0.0), peak)
    types = {
        name: TaskType(
            name=name,
            workflow=workflow,
            preset_memory_mb=(
                preset_memory_mb
                if preset_memory_mb is not None
                else float(-(-peak // 1024.0) * 1024.0) or 1024.0
            ),
        )
        for name, peak in peaks.items()
    }
    instances = [
        _instance_from_row(
            {
                "task_type": row["task_type"],
                **{f: row[f] for f in _INSTANCE_FIELDS},
            },
            types,
            f"row {i + 2}",
        )
        for i, row in enumerate(rows)
    ]
    # CSV stringifies everything; instance ids come back as ints.
    instances = [
        TaskInstance(
            task_type=inst.task_type,
            instance_id=int(inst.instance_id),
            input_size_mb=inst.input_size_mb,
            peak_memory_mb=inst.peak_memory_mb,
            runtime_hours=inst.runtime_hours,
            cpu_percent=inst.cpu_percent,
            io_read_mb=inst.io_read_mb,
            io_write_mb=inst.io_write_mb,
            machine=inst.machine,
        )
        for inst in instances
    ]
    return WorkflowTrace(workflow, instances)
