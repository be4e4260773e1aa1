"""Fig. 8: the paper's main results.

One grid run — every method on every workflow at a given time-to-failure
— feeds all four panels:

- **8a/8b** total memory wastage (GBh) aggregated over the six
  workflows, at ttf = 1.0 and ttf = 0.5;
- **8c** the distribution of task failures aggregated by task type;
- **8d** the aggregated task runtimes per method.

``run_main_grid`` is also reused by the Table II regenerator (the
per-workflow breakdown of the same run).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.experiments.factories import METHOD_ORDER, method_factories
from repro.experiments.report import render_distribution, render_table
from repro.sim.results import SimulationResult, aggregate_results
from repro.sim.runner import run_grid
from repro.workflow.nfcore import build_all_traces

__all__ = [
    "MainGrid",
    "reduction_vs_best_baseline",
    "run_main_grid",
    "run",
    "PAPER_FIG8A",
    "PAPER_FIG8B",
]

#: The paper's aggregated wastage numbers, for side-by-side reporting.
PAPER_FIG8A = {
    "Sizey": 1684.21,
    "Witt-Wastage": 5437.08,
    "Witt-LR": 4754.85,
    "Tovar-PPM": 5072.26,
    "Witt-Percentile": 5767.20,
    "Workflow-Presets": 28370.77,
}
PAPER_FIG8B = {
    "Sizey": 1429.28,
    "Witt-Wastage": 4963.40,
    "Witt-LR": 3628.02,
    "Tovar-PPM": 4106.45,
    "Witt-Percentile": 4576.27,
    "Workflow-Presets": 28370.77,
}


def reduction_vs_best_baseline(wastage: dict[str, float]) -> tuple[str, float]:
    """Sizey's relative wastage reduction against the best baseline.

    ``wastage`` maps methods to total wastage.  Returns the non-Sizey
    method with the least wastage and ``1 - Sizey / its wastage``.
    """
    baselines = {m: w for m, w in wastage.items() if m != "Sizey"}
    best = min(baselines, key=baselines.get)
    return best, 1.0 - wastage["Sizey"] / baselines[best]


@dataclass
class MainGrid:
    """Everything the Fig. 8 panels and Table II need from one grid run."""

    time_to_failure: float
    results: dict[str, dict[str, SimulationResult]]
    totals: dict[str, float] = field(default_factory=dict)
    runtimes: dict[str, float] = field(default_factory=dict)
    failures: dict[str, int] = field(default_factory=dict)
    failure_distributions: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for method, per_wf in self.results.items():
            agg = aggregate_results(list(per_wf.values()))
            self.totals[method] = float(agg["total_wastage_gbh"])
            self.runtimes[method] = float(agg["total_runtime_hours"])
            self.failures[method] = int(agg["num_failures"])
            self.failure_distributions[method] = agg["failure_distribution"]

    def per_workflow(self) -> dict[str, dict[str, float]]:
        """``{method: {workflow: wastage}}`` (Table II)."""
        return {
            m: {wf: r.total_wastage_gbh for wf, r in per_wf.items()}
            for m, per_wf in self.results.items()
        }

    def best_baseline(self) -> tuple[str, float]:
        """Best-performing non-Sizey method on total wastage."""
        best, _ = reduction_vs_best_baseline(self.totals)
        return best, self.totals[best]

    def sizey_reduction_vs_best_baseline(self) -> float:
        """Relative wastage reduction of Sizey vs the best baseline."""
        return reduction_vs_best_baseline(self.totals)[1]


def run_main_grid(
    time_to_failure: float = 1.0,
    seed: int = 0,
    scale: float = 1.0,
    n_workers: int = 1,
    workflows: tuple[str, ...] | None = None,
) -> MainGrid:
    """Run all six methods on all (or selected) workflows."""
    traces = build_all_traces(seed=seed, scale=scale)
    if workflows is not None:
        traces = {wf: tr for wf, tr in traces.items() if wf in workflows}
    results = run_grid(
        traces,
        method_factories(),
        time_to_failure=time_to_failure,
        n_workers=n_workers,
    )
    return MainGrid(time_to_failure=time_to_failure, results=results)


def run(
    seed: int = 0,
    scale: float = 1.0,
    n_workers: int = 1,
    verbose: bool = True,
    workflows: tuple[str, ...] | None = None,
) -> dict[str, MainGrid]:
    """Regenerate all Fig. 8 panels; returns grids keyed by ttf."""
    grids = {
        ttf: run_main_grid(
            ttf, seed=seed, scale=scale, n_workers=n_workers, workflows=workflows
        )
        for ttf in (1.0, 0.5)
    }
    if verbose:
        for ttf, paper in ((1.0, PAPER_FIG8A), (0.5, PAPER_FIG8B)):
            g = grids[ttf]
            rows = [
                [m, g.totals[m], paper[m]]
                for m in METHOD_ORDER
                if m in g.totals
            ]
            print(
                render_table(
                    ["method", "wastage GBh (ours)", "wastage GBh (paper)"],
                    rows,
                    title=f"Fig. 8{'a' if ttf == 1.0 else 'b'} — total wastage, ttf={ttf}",
                )
            )
            best, red = reduction_vs_best_baseline(g.totals)
            print(
                f"  Sizey vs best baseline ({best}): "
                f"{red * 100.0:.1f}% lower wastage\n"
            )
        g = grids[1.0]
        print("Fig. 8c — task failures per task type (distribution)")
        for m in METHOD_ORDER:
            if m in g.failure_distributions:
                print(f"  {m:17s} {render_distribution(g.failure_distributions[m])}")
        print("\nFig. 8d — aggregated task runtimes")
        rows = [[m, g.runtimes[m]] for m in METHOD_ORDER if m in g.runtimes]
        print(render_table(["method", "total runtime h"], rows))
    return grids
