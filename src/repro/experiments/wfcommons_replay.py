"""WfCommons replay: the method grid over an ingested WfCommons instance.

The paper's evaluation replays recorded provenance; the public WfCommons
collections are the community's standard source of exactly such records.
This cell closes the loop end-to-end: a WfCommons instance document is
ingested through :class:`~repro.workload.wfcommons.WfCommonsSource`
(unit normalization, instance-edge DAG collapse, seeded fallback) and
replayed under every selected sizing method in both kernel modes — the
flat event stream and DAG-aware scheduling with multiple competing
workflow instances.

By default the instance document is *fabricated* from a synthetic trace
via :func:`~repro.workload.wfcommons.trace_to_wfcommons` (the traces the
paper used are not public), so the cell is hermetic; point ``path`` at
any real WfCommons file to replay it instead, e.g. one downloaded from
the wfcommons/WfInstances collection.
"""

from __future__ import annotations

import json
from pathlib import Path
from tempfile import TemporaryDirectory

from repro.experiments.factories import method_factories
from repro.experiments.report import render_table
from repro.sim.backends import EventDrivenBackend
from repro.sim.runner import run_cell
from repro.workload import WfCommonsSource, trace_to_wfcommons
from repro.workflow.nfcore import build_workflow_trace

__all__ = ["DEFAULT_METHODS", "fabricate_instance", "collect", "run"]

#: Sizey plus the two extremes of the baseline spectrum.
DEFAULT_METHODS = ("Sizey", "Witt-Percentile", "Workflow-Presets")


def fabricate_instance(
    path: str | Path, workflow: str = "iwd", seed: int = 0, scale: float = 0.1
) -> Path:
    """Write a WfCommons instance document fabricated from a synthetic trace."""
    trace = build_workflow_trace(workflow, seed=seed, scale=scale)
    path = Path(path)
    path.write_text(json.dumps(trace_to_wfcommons(trace)))
    return path


def collect(
    seed: int = 0,
    scale: float = 0.1,
    methods: tuple[str, ...] = DEFAULT_METHODS,
    path: str | Path | None = None,
    workflow: str = "iwd",
    cluster: str = "64g:2,128g:2",
    workflow_arrival: str = "3@poisson:8",
) -> dict[str, dict[str, dict[str, object]]]:
    """``{mode: {method: summary}}`` for flat and DAG replay of the file.

    ``path=None`` fabricates a hermetic instance document from the named
    synthetic ``workflow``; an explicit path replays a real WfCommons
    file.  Both kernel modes consume the *same* ingested source, so the
    two summaries differ only by scheduling semantics.
    """
    factories = method_factories()

    def _collect_from(instance_path: Path) -> dict:
        out: dict[str, dict[str, dict[str, object]]] = {
            "flat": {},
            "dag": {},
        }
        for method in methods:
            # A Poisson trickle (not a t=0 batch) so completions feed
            # back into later predictions — otherwise every online
            # method sizes the whole file untrained and degenerates to
            # the presets.
            flat = run_cell(
                workload=WfCommonsSource(instance_path, seed=seed),
                factory=factories[method],
                backend=EventDrivenBackend(arrival="poisson:600", seed=seed),
                cluster=cluster,
            )
            out["flat"][method] = {
                "wastage_gbh": flat.total_wastage_gbh,
                "failures": flat.num_failures,
                "makespan_hours": flat.cluster.makespan_hours,
                "mean_queue_wait_hours": flat.cluster.mean_queue_wait_hours,
            }
            dag = run_cell(
                workload=WfCommonsSource(instance_path, seed=seed),
                factory=factories[method],
                backend=EventDrivenBackend(
                    dag="trace", workflow_arrival=workflow_arrival
                ),
                cluster=cluster,
            )
            wm = dag.workflows
            out["dag"][method] = {
                "wastage_gbh": dag.total_wastage_gbh,
                "failures": dag.num_failures,
                "makespan_hours": dag.cluster.makespan_hours,
                "mean_wf_makespan_hours": wm.mean_makespan_hours,
                "mean_stretch": wm.mean_stretch,
            }
        return out

    if path is not None:
        return _collect_from(Path(path))
    with TemporaryDirectory() as tmp:
        instance = fabricate_instance(
            Path(tmp) / f"{workflow}_wfcommons.json",
            workflow=workflow,
            seed=seed,
            scale=scale,
        )
        return _collect_from(instance)


def run(
    seed: int = 0,
    scale: float = 0.1,
    methods: tuple[str, ...] = DEFAULT_METHODS,
    path: str | Path | None = None,
    verbose: bool = True,
) -> dict[str, dict[str, dict[str, object]]]:
    """Regenerate the WfCommons-replay cell; returns the summaries."""
    data = collect(seed=seed, scale=scale, methods=methods, path=path)
    if verbose:
        origin = str(path) if path is not None else "fabricated iwd instance"
        flat_rows = [
            [m, s["wastage_gbh"], s["failures"], s["makespan_hours"],
             s["mean_queue_wait_hours"]]
            for m, s in data["flat"].items()
        ]
        print(
            render_table(
                ["method", "wastage GBh", "failures", "makespan h",
                 "mean wait h"],
                flat_rows,
                title=f"wfcommons replay (flat event): {origin}",
            )
        )
        print()
        dag_rows = [
            [m, s["wastage_gbh"], s["failures"], s["makespan_hours"],
             s["mean_wf_makespan_hours"], s["mean_stretch"]]
            for m, s in data["dag"].items()
        ]
        print(
            render_table(
                ["method", "wastage GBh", "failures", "makespan h",
                 "mean wf makespan h", "mean stretch"],
                dag_rows,
                title="wfcommons replay (DAG, 3@poisson:8)",
            )
        )
        print()
    return data
