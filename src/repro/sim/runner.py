"""Experiment grid runner: (workload x method) cells, optionally parallel.

Each cell is independent — a fresh predictor instance replays one
workload — so the grid fans out over a process pool when asked.
Predictors are supplied as zero-argument factories (not instances) so
every cell starts untrained and the work ships to workers as picklable
callables.  Workloads are equally flexible: a materialized
:class:`~repro.workflow.task.WorkflowTrace`, a
:class:`~repro.workload.base.WorkloadSource`, or a workload spec string
(``"synthetic:iwd"``, ``"wfcommons:traces/blast.json"``,
``"trace:runs/mag.jsonl"``) — spec strings are the cheapest to pickle
across the pool; workers construct the source locally.
"""

from __future__ import annotations

import dataclasses
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Mapping

from repro.cluster.accounting import WastageLedger
from repro.cluster.machine import parse_cluster_spec
from repro.errors import ConfigError
from repro.obs.log import get_logger, log_context
from repro.sim.backends import EventDrivenBackend, SimulatorBackend
from repro.sim.engine import OnlineSimulator
from repro.sim.interface import MemoryPredictor
from repro.sim.results import (
    RunSummary,
    SimulationResult,
    merge_summaries,
)
from repro.workflow.task import WorkflowTrace
from repro.workload.base import WorkloadSource

__all__ = [
    "run_cell",
    "run_grid",
    "run_sharded",
    "partition_cluster",
    "peak_rss_mb",
]

PredictorFactory = Callable[[], MemoryPredictor]

_log = get_logger("sim.runner")

#: The paper's default cluster (8 nodes x 128 GB) as a spec string —
#: what :class:`~repro.cluster.manager.ResourceManager` builds with no
#: arguments; the sharded runner needs the spec form to partition it.
DEFAULT_CLUSTER_SPEC = "128g:8"


def peak_rss_mb() -> float:
    """Peak resident set size of this process tree so far, in MB.

    ``ru_maxrss`` is a process-lifetime high-watermark (it never
    decreases), taken as the max over this process and its reaped
    children — so a sharded run's workers are included once they exit.
    Linux reports KB, macOS bytes.
    """
    import resource

    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    divisor = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return peak / divisor


def partition_cluster(cluster: str, shards: int) -> list[str]:
    """Split a cluster spec into one per-shard spec per shard.

    Nodes are dealt round-robin in spec order (node ``j`` goes to shard
    ``j % shards``), so shard sizes differ by at most one node and every
    shard gets at least one when there are enough nodes — fewer nodes
    than shards is an error, not a silent empty shard.
    """
    if shards < 1:
        raise ConfigError(f"shards must be >= 1, got {shards}")
    pools = parse_cluster_spec(cluster)  # validates the spec
    sizes = [entry.strip().partition(":")[0] for entry in cluster.split(",")]
    counts = [count for _, count in pools]
    total = sum(counts)
    if total < shards:
        raise ConfigError(
            f"cannot split {total} node(s) ({cluster!r}) across "
            f"{shards} shards; every shard needs at least one node"
        )
    per_shard = [[0] * len(pools) for _ in range(shards)]
    j = 0
    for g, count in enumerate(counts):
        for _ in range(count):
            per_shard[j % shards][g] += 1
            j += 1
    return [
        ",".join(
            f"{sizes[g]}:{n}" for g, n in enumerate(row) if n > 0
        )
        for row in per_shard
    ]


def run_cell(
    workload: WorkloadSource | WorkflowTrace | str,
    factory: PredictorFactory,
    time_to_failure: float = 1.0,
    backend: str | SimulatorBackend = "replay",
    cluster: str | None = None,
    placement: str = "first-fit",
    shards: int = 1,
) -> SimulationResult:
    """Run one (workload, method) cell with a fresh predictor and cluster.

    ``workload`` is a trace object, a source, or a spec string.
    ``cluster`` is a spec string (``"128g:4,256g:4"``; ``None``
    = the paper's 8-node 128 GB cluster) and ``placement`` the
    node-placement policy name — both are plain strings so cells stay
    picklable for the process pool.  Event options (arrivals, DAG
    scheduling, node drains, streaming collectors, the profiler) are
    fields of an :class:`~repro.sim.backends.event.EventDrivenBackend`
    passed as ``backend``.  Any ``shards`` but 1 runs the cell as a
    sharded fan-out via :func:`run_sharded`.
    """
    if shards != 1:
        return run_sharded(
            workload,
            factory,
            shards=shards,
            time_to_failure=time_to_failure,
            backend=backend,
            cluster=cluster,
            placement=placement,
        )
    sim = OnlineSimulator(
        workload,
        time_to_failure=time_to_failure,
        backend=backend,
        cluster=cluster,
        placement=placement,
    )
    result = sim.run(factory())
    assert result is not None
    return result


def _run_cell_star(args: tuple) -> SimulationResult:
    return run_cell(*args)


def _run_shard(
    workload: "WorkloadSource | WorkflowTrace | str",
    factory: PredictorFactory,
    time_to_failure: float,
    backend: EventDrivenBackend,
    cluster: str,
    placement: str,
    shard: int,
    shards: int,
    spill: str | None,
) -> "tuple[RunSummary, object | None]":
    """Worker body of :func:`run_sharded`: one shard, summary (+ profile) out.

    Only the compact :class:`~repro.sim.results.RunSummary` — and, when
    profiling, the shard's :class:`~repro.obs.profile.KernelProfile` —
    crosses the process boundary; sketches and counters, never per-task
    lists.
    """
    sim = OnlineSimulator(
        workload,
        time_to_failure=time_to_failure,
        backend=dataclasses.replace(
            backend,
            stream_collectors=True,
            spill=spill,
            shard=shard,
            shards=shards,
        ),
        cluster=cluster,
        placement=placement,
    )
    with log_context(shard=shard):
        _log.info(
            "shard starting",
            extra={"shards": shards, "shard_cluster": cluster},
        )
        result = sim.run(factory())
        assert result is not None and result.summary is not None
        _log.info(
            "shard finished",
            extra={
                "n_tasks": result.summary.n_tasks,
                "n_failures": result.summary.n_failures,
            },
        )
    return result.summary, result.profile


def _run_shard_star(args: tuple) -> "tuple[RunSummary, object | None]":
    return _run_shard(*args)


def _ledger_from_summary(summary: RunSummary) -> WastageLedger:
    """A streaming ledger carrying a merged summary's aggregates, so the
    merged :class:`SimulationResult`'s ledger-backed properties work."""
    ledger = WastageLedger(keep_outcomes=False)
    ledger._total_wastage = summary.total_wastage_gbh
    ledger._runtime_hours = summary.total_runtime_hours
    ledger._n_attempts = summary.n_attempts
    for t, w in summary.wastage_by_task_type.items():
        ledger._wastage_by_type[t] = w
    for t, n in summary.failures_by_task_type.items():
        ledger._failures_by_type[t] = n
    return ledger


def run_sharded(
    workload: "WorkloadSource | WorkflowTrace | str",
    factory: PredictorFactory,
    *,
    shards: int,
    time_to_failure: float = 1.0,
    backend: str | SimulatorBackend = "event",
    cluster: str | None = None,
    placement: str = "first-fit",
    n_workers: int | None = None,
    spill_dir: str | None = None,
) -> SimulationResult:
    """Fan one cell out over ``shards`` worker processes and merge.

    The workload is partitioned deterministically — flat tasks by global
    submission index, DAG workflow instances by copy number — and the
    cluster spec is dealt round-robin so each shard simulates its slice
    on its fraction of the nodes.  Arrival schedules and task ids in
    each shard match the unsharded run exactly (same base seed, then
    filtered); workers run with streaming collectors and return only
    their :class:`~repro.sim.results.RunSummary`, which are merged into
    one summary-only :class:`SimulationResult` (``cluster`` /
    ``workflows`` / ``predictions`` stay empty — totals, counts, and
    quantile sketches survive the merge).

    ``backend`` is the event backend every shard runs (``"event"`` =
    its defaults); its arrival, DAG and profiler fields apply per
    shard.  Fields that name one node or one file cannot be split and
    are refused before any shard starts: ``node_outage`` (node ids are
    renumbered per shard), ``spill`` and ``trace``.  ``spill_dir``
    gives each shard its own ``shard-<i>.jsonl`` spill file there.

    Caveats: online-learning predictors learn from their own shard's
    completions only, and cross-shard queueing contention is not
    modeled — sharding trades those for memory and wall-clock; use
    ``shards=1`` when they matter.
    """
    if backend == "event":
        backend = EventDrivenBackend()
    if not isinstance(backend, EventDrivenBackend):
        raise ConfigError(
            f"sharded runs require the event backend; got {backend!r}"
        )
    for field, why in (
        ("node_outage", "node ids are renumbered within each shard's "
                        "sub-cluster"),
        ("spill", "it names one file; pass spill_dir for one per shard"),
        ("trace", "it names one file that each shard would overwrite"),
    ):
        if getattr(backend, field):
            raise ConfigError(
                f"{field} cannot be combined with sharding: {why}"
            )
    spec = cluster if cluster is not None else DEFAULT_CLUSTER_SPEC
    shard_specs = partition_cluster(spec, shards)
    _log.info(
        "sharded run starting",
        extra={"shards": shards, "cluster": spec, "workload": str(workload)},
    )
    if spill_dir is not None:
        os.makedirs(spill_dir, exist_ok=True)
    cells = [
        (
            workload,
            factory,
            time_to_failure,
            backend,
            shard_specs[i],
            placement,
            i,
            shards,
            (
                os.path.join(spill_dir, f"shard-{i}.jsonl")
                if spill_dir is not None
                else None
            ),
        )
        for i in range(shards)
    ]
    if shards == 1 or (n_workers is not None and n_workers <= 1):
        shard_results = [_run_shard_star(c) for c in cells]
    else:
        workers = min(shards, n_workers or os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            shard_results = list(pool.map(_run_shard_star, cells))
    summaries = [summary for summary, _ in shard_results]
    merged = merge_summaries(summaries)
    _log.info(
        "shards merged",
        extra={"shards": shards, "n_tasks": merged.n_tasks},
    )
    merged_profile = None
    for _, shard_profile in shard_results:
        if shard_profile is None:
            continue
        if merged_profile is None:
            merged_profile = shard_profile
        else:
            merged_profile.merge(shard_profile)
    return SimulationResult(
        workflow=merged.workflow,
        method=merged.method,
        time_to_failure=merged.time_to_failure,
        ledger=_ledger_from_summary(merged),
        summary=merged,
        profile=merged_profile,
    )


def run_grid(
    workloads: Mapping[str, WorkloadSource | WorkflowTrace | str],
    factories: Mapping[str, PredictorFactory],
    time_to_failure: float = 1.0,
    n_workers: int = 1,
    backend: str | SimulatorBackend = "replay",
    cluster: str | None = None,
    placement: str = "first-fit",
    shards: int = 1,
) -> dict[str, dict[str, SimulationResult]]:
    """Run every method on every workload.

    Returns ``results[method][workload_name]``.  ``workloads`` maps each
    name to a trace object, source, or spec string.  With
    ``n_workers > 1`` the cells run in separate processes; workloads and
    factories must then be picklable (spec strings always are; the
    built-in sources drop their caches on pickling).  ``backend``
    selects the simulation backend for every cell — a backend name, or
    a backend instance (picklable when fanning out over processes)
    whose fields carry the event options.  ``cluster``, ``placement``
    and ``shards`` apply per cell exactly as in :func:`run_cell`;
    prefer ``n_workers=1`` when sharding cells, so the shard fan-out is
    the only process-level parallelism.
    """
    cells = [
        (
            method,
            wf,
            (
                cell_workload,
                factory,
                time_to_failure,
                backend,
                cluster,
                placement,
                shards,
            ),
        )
        for method, factory in factories.items()
        for wf, cell_workload in workloads.items()
    ]
    results: dict[str, dict[str, SimulationResult]] = {
        m: {} for m in factories
    }
    if n_workers <= 1:
        for method, wf, args in cells:
            results[method][wf] = _run_cell_star(args)
        return results

    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        for (method, wf, _), res in zip(
            cells, pool.map(_run_cell_star, [c[2] for c in cells])
        ):
            results[method][wf] = res
    return results
