"""Compare every memory-sizing method on multiple workflows.

A miniature of the paper's Fig. 8 / Table II: all six methods replay
two workflows; the script prints total wastage, failures, and runtime
per cell.

Run:  python examples/method_comparison.py
"""

from repro.experiments.factories import method_factories
from repro.experiments.report import render_table
from repro.sim.runner import run_grid
from repro.workflow.nfcore import build_workflow_trace

WORKFLOWS = ("chipseq", "iwd")
SCALE = 0.3


def main() -> None:
    traces = {
        wf: build_workflow_trace(wf, seed=5, scale=SCALE) for wf in WORKFLOWS
    }
    factories = method_factories()

    print(f"running {len(factories)} methods x {len(traces)} workflows...\n")
    results = run_grid(traces, factories, time_to_failure=1.0)

    rows = []
    for method, per_wf in results.items():
        total_w = sum(r.total_wastage_gbh for r in per_wf.values())
        total_f = sum(r.num_failures for r in per_wf.values())
        total_rt = sum(r.total_runtime_hours for r in per_wf.values())
        rows.append([method, total_w, total_f, total_rt])
    rows.sort(key=lambda r: r[1])
    print(
        render_table(
            ["method", "wastage GBh", "failures", "runtime h"],
            rows,
            title=f"All methods on {', '.join(WORKFLOWS)} (scale={SCALE})",
        )
    )

    best = rows[0][0]
    print(f"\nlowest wastage: {best}")


if __name__ == "__main__":
    main()
