"""Million-task scale-out: the flagship sharded WfCommons-derived run.

The paper's evaluation tops out at thousands of tasks per workflow; real
scientific clusters schedule *millions*.  This cell demonstrates that
the streaming-collector + sharded-runner stack holds at that scale: a
WfCommons-derived workflow instance (~1000 tasks) is replayed as 100
tenants' worth of competing DAG instances — one million tasks total —
on a 1000-node cluster, partitioned across worker processes by
:func:`~repro.sim.runner.run_sharded`.  Each shard simulates its slice
with streaming collectors (quantile sketches + running sums, no
per-task lists), so the merged result is a compact
:class:`~repro.sim.results.RunSummary` and peak RSS stays bounded
regardless of task count.

The two numbers this cell exists to produce — wall-clock seconds and
peak resident set size — land in ``BENCH_7.json`` via
``benchmarks/test_bench_scaleout.py``; ``examples/million_task.py``
runs a reduced configuration of the same pipeline (CI smokes it with an
RSS budget assertion).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path
from tempfile import TemporaryDirectory

from repro.experiments.factories import method_factories
from repro.experiments.wfcommons_replay import fabricate_instance
from repro.sim.backends import EventDrivenBackend
from repro.sim.results import SimulationResult
from repro.sim.runner import peak_rss_mb, run_sharded
from repro.workload import WfCommonsSource

__all__ = ["ScaleConfig", "FLAGSHIP", "collect", "run", "main"]


@dataclass(frozen=True)
class ScaleConfig:
    """One scale-out cell: workload size, cluster shape, and sharding."""

    #: Synthetic workflow fabricated into the WfCommons instance document.
    workflow: str = "rnaseq"
    #: Trace subsample factor; rnaseq at 0.86 yields ~1000 tasks/instance.
    scale: float = 0.86
    seed: int = 0
    #: Total task floor — instances are added until it is met.
    tasks_target: int = 1_000_000
    nodes: int = 1000
    node_memory_gb: int = 128
    tenants: int = 100
    shards: int = 8
    #: Worker processes (None = one per shard, capped at cpu_count).
    n_workers: int | None = None
    method: str = "Workflow-Presets"
    placement: str = "first-fit"
    time_to_failure: float = 1.0
    #: Workflow-instance arrivals per hour (Poisson).
    arrival_rate: float = 200.0
    #: Existing WfCommons instance document (None = fabricate one).
    path: str | Path | None = None


#: The headline configuration: 1M tasks, 1000 nodes, 100 tenants.
FLAGSHIP = ScaleConfig()


def _collect_from(instance: Path, cfg: ScaleConfig) -> dict[str, object]:
    source = WfCommonsSource(instance, seed=cfg.seed)
    per_instance = source.n_tasks
    assert per_instance is not None and per_instance > 0
    n_instances = max(1, math.ceil(cfg.tasks_target / per_instance))
    arrival = (
        f"{n_instances}@poisson:{cfg.arrival_rate:g}@tenants:{cfg.tenants}"
    )
    cluster = f"{cfg.node_memory_gb}g:{cfg.nodes}"
    factory = method_factories()[cfg.method]

    t0 = time.perf_counter()
    result = run_sharded(
        source,
        factory,
        shards=cfg.shards,
        time_to_failure=cfg.time_to_failure,
        backend=EventDrivenBackend(dag="trace", workflow_arrival=arrival),
        cluster=cluster,
        placement=cfg.placement,
        n_workers=cfg.n_workers,
    )
    wall_clock = time.perf_counter() - t0
    return _report(result, cfg, per_instance, n_instances, wall_clock)


def _report(
    result: SimulationResult,
    cfg: ScaleConfig,
    per_instance: int,
    n_instances: int,
    wall_clock: float,
) -> dict[str, object]:
    s = result.summary
    assert s is not None
    return {
        "workflow": cfg.workflow,
        "method": cfg.method,
        "tasks_per_instance": per_instance,
        "n_instances": n_instances,
        "n_tasks": s.n_tasks,
        "n_attempts": s.n_attempts,
        "n_failures": s.n_failures,
        "nodes": cfg.nodes,
        "tenants": cfg.tenants,
        "shards": cfg.shards,
        "wall_clock_seconds": wall_clock,
        "peak_rss_mb": peak_rss_mb(),
        "tasks_per_second": s.n_tasks / wall_clock if wall_clock else 0.0,
        "total_wastage_gbh": s.total_wastage_gbh,
        "makespan_hours": s.makespan_hours,
        "mean_queue_wait_hours": s.queue_wait.mean,
        "p99_queue_wait_hours": s.queue_wait_sketch.quantile(0.99),
        "mean_utilization": s.mean_utilization,
        "mean_wf_makespan_hours": s.workflow_makespan.mean,
        "mean_stretch": s.workflow_stretch.mean,
    }


def collect(cfg: ScaleConfig = FLAGSHIP) -> dict[str, object]:
    """Run one scale-out cell; returns the metrics row.

    ``peak_rss_mb`` is the process-lifetime high watermark of this
    process and its reaped shard workers — run the cell in a fresh
    interpreter when the absolute number matters.
    """
    if cfg.path is not None:
        return _collect_from(Path(cfg.path), cfg)
    with TemporaryDirectory() as tmp:
        instance = fabricate_instance(
            Path(tmp) / f"{cfg.workflow}_wfcommons.json",
            workflow=cfg.workflow,
            seed=cfg.seed,
            scale=cfg.scale,
        )
        return _collect_from(instance, cfg)


def run(cfg: ScaleConfig = FLAGSHIP, verbose: bool = True) -> dict[str, object]:
    """Regenerate the scale-out cell; returns (and prints) the metrics."""
    row = collect(cfg)
    if verbose:
        print(json.dumps(row, indent=1, sort_keys=True))
    return row


def main(argv: "list[str] | None" = None) -> int:
    """CLI: ``python -m repro.experiments.million_task [--tasks N ...]``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="million_task",
        description=(
            "Sharded million-task scale-out run (streaming collectors); "
            "prints a JSON metrics row with wall-clock and peak RSS."
        ),
    )
    parser.add_argument("--tasks", type=int, default=FLAGSHIP.tasks_target,
                        help="total task floor (default: %(default)s)")
    parser.add_argument("--nodes", type=int, default=FLAGSHIP.nodes,
                        help="cluster nodes (default: %(default)s)")
    parser.add_argument("--tenants", type=int, default=FLAGSHIP.tenants,
                        help="distinct users (default: %(default)s)")
    parser.add_argument("--shards", type=int, default=FLAGSHIP.shards,
                        help="worker shards (default: %(default)s)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: one per shard)")
    parser.add_argument("--method", default=FLAGSHIP.method,
                        help="sizing method (default: %(default)s)")
    parser.add_argument("--workflow", default=FLAGSHIP.workflow,
                        help="fabricated workflow (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=FLAGSHIP.seed)
    parser.add_argument("--rss-budget-mb", type=float, default=None,
                        help="fail (exit 1) if peak RSS exceeds this")
    args = parser.parse_args(argv)

    cfg = replace(
        FLAGSHIP,
        tasks_target=args.tasks,
        nodes=args.nodes,
        tenants=args.tenants,
        shards=args.shards,
        n_workers=args.workers,
        method=args.method,
        workflow=args.workflow,
        seed=args.seed,
    )
    row = run(cfg)
    if args.rss_budget_mb is not None and row["peak_rss_mb"] > args.rss_budget_mb:
        print(
            f"FAIL: peak RSS {row['peak_rss_mb']:.0f} MB exceeds budget "
            f"{args.rss_budget_mb:.0f} MB"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
