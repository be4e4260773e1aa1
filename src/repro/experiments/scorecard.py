"""Paper-scale quality scorecard and the gate for learning changes.

Sizey's goldens pin its outputs bit-for-bit, so they can only tell that
a learning change moved an output, not whether it made sizing worse.
The scorecard measures that instead: it runs every declared method on
the six nf-core workflows at paper scale, for several trace seeds and
both times-to-failure, through :func:`~repro.workflow.nfcore.
build_all_traces` and :func:`~repro.sim.runner.run_grid` (as
:func:`~repro.experiments.fig8_main_results.run_main_grid` does).  Each
(method, ttf, seed, workflow) cell records its wastage, failures and
runtime; Sizey's cells also record their wall time.

What to run is declared in ``QUALITY.json`` at the repository root (as
``BENCHMARK.json`` declares the speed benchmark), together with the
numbers of the gate.  :func:`compare` applies the gate to Sizey's rows
of a parent's and a change's scorecard; ``docs/QUALITY.md`` states the
rule.  Per ttf, with seeds paired, each check must hold:

1. the change's median total wastage over seeds is at most
   ``median_wastage_ratio`` x the parent's;
2. the change's median total failures over seeds is at most
   ``median_failures_ratio`` x the parent's;
3. for every workflow, the change's median wastage over seeds is at most
   the parent's ``workflow_quantile`` (upper quartile) over those seeds.

The gate numbers come from the parent's recorded declaration, so a
change cannot loosen the rule it is judged by.

Command line::

    python -m repro scorecard --out change.json --workers 2
    python -m repro scorecard --out change.json --compare parent.json
    python -m repro scorecard --compare parent.json change.json
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import repro
from repro.experiments.factories import method_factories
from repro.experiments.fig8_main_results import (
    PAPER_FIG8A,
    PAPER_FIG8B,
    reduction_vs_best_baseline,
)
from repro.experiments.report import fmt, render_table
from repro.sim.runner import run_grid
from repro.workflow.nfcore import build_all_traces

__all__ = [
    "GATED_METHOD",
    "Check",
    "load_spec",
    "run_scorecard",
    "save_scorecard",
    "load_scorecard",
    "render_scorecard",
    "compare",
    "render_verdict",
]

#: The gate applies to this method's rows only.
GATED_METHOD = "Sizey"
SCORECARD_FORMAT = "repro-scorecard"
SCORECARD_VERSION = 1
#: The paper's aggregated wastage (Fig. 8a, 8b) per time-to-failure.
PAPER_WASTAGE = {1.0: PAPER_FIG8A, 0.5: PAPER_FIG8B}

_SPEC_KEYS = ("scale", "seeds", "time_to_failure", "methods", "gate")
_GATE_KEYS = ("median_wastage_ratio", "median_failures_ratio", "workflow_quantile")


def load_spec(path: str | Path) -> dict:
    """Read and check a scorecard declaration (``QUALITY.json``)."""
    spec = json.loads(Path(path).read_text())
    missing = [k for k in _SPEC_KEYS if k not in spec]
    missing += [f"gate.{k}" for k in _GATE_KEYS if k not in spec.get("gate", {})]
    if missing:
        raise ValueError(f"{path}: missing {', '.join(missing)}")
    unknown = set(spec["methods"]) - set(method_factories())
    if unknown:
        raise ValueError(f"{path}: unknown methods {sorted(unknown)}")
    return spec


def run_scorecard(
    spec: dict,
    n_workers: int = 1,
    progress: Callable[[str], None] | None = None,
) -> dict:
    """Run every cell ``spec`` declares; return the scorecard document.

    Per trace seed the six traces are built once and shared by both
    times-to-failure.  Sizey's cells run in a ``run_grid`` call of their
    own, so its wall time (with ``n_workers`` processes) is recorded.
    """
    factories = method_factories()
    gated = {m: factories[m] for m in spec["methods"] if m == GATED_METHOD}
    others = {m: factories[m] for m in spec["methods"] if m != GATED_METHOD}
    cells: list[dict] = []
    wall: list[dict] = []
    for seed in spec["seeds"]:
        traces = build_all_traces(seed=seed, scale=spec["scale"])
        for ttf in spec["time_to_failure"]:
            results = {}
            for group in (gated, others):
                if not group:
                    continue
                start = time.perf_counter()
                results.update(
                    run_grid(
                        traces,
                        group,
                        time_to_failure=ttf,
                        n_workers=n_workers,
                    )
                )
                seconds = time.perf_counter() - start
                if group is gated:
                    wall.append({"ttf": ttf, "seed": seed, "seconds": seconds})
                if progress is not None:
                    progress(
                        f"seed {seed} ttf {ttf}: {', '.join(group)} in {seconds:.1f} s"
                    )
            for method in spec["methods"]:
                for wf, res in results[method].items():
                    cells.append(
                        {
                            "method": method,
                            "ttf": ttf,
                            "seed": seed,
                            "workflow": wf,
                            "wastage_gbh": res.total_wastage_gbh,
                            "failures": res.num_failures,
                            "runtime_h": res.total_runtime_hours,
                        }
                    )
    return {
        "format": SCORECARD_FORMAT,
        "version": SCORECARD_VERSION,
        "repro_version": repro.__version__,
        "spec": spec,
        "workers": n_workers,
        "cells": cells,
        "sizey_wall_s": wall,
    }


def save_scorecard(card: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(card, indent=1) + "\n")


def load_scorecard(path: str | Path) -> dict:
    card = json.loads(Path(path).read_text())
    if card.get("format") != SCORECARD_FORMAT or card.get("version") != SCORECARD_VERSION:
        raise ValueError(f"{path}: not a version {SCORECARD_VERSION} {SCORECARD_FORMAT}")
    return card


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def _table(card: dict, method: str, ttf: float, field: str) -> dict[int, dict[str, float]]:
    """``{seed: {workflow: value}}`` of one method's cells at one ttf."""
    out: dict[int, dict[str, float]] = {}
    for c in card["cells"]:
        if c["method"] == method and c["ttf"] == ttf:
            out.setdefault(c["seed"], {})[c["workflow"]] = c[field]
    return out


def _totals(card: dict, method: str, ttf: float, field: str) -> dict[int, float]:
    """``{seed: value summed over the workflows}``."""
    return {s: sum(per_wf.values()) for s, per_wf in _table(card, method, ttf, field).items()}


def _quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` with numpy's linear interpolation."""
    q1, med, q3 = np.percentile(np.asarray(list(values), dtype=np.float64), [25, 50, 75])
    return float(q1), float(med), float(q3)


def _spread(values, ndigits: int = 1) -> str:
    q1, med, q3 = _quartiles(values)
    return f"{fmt(med, ndigits)} [{fmt(q1, ndigits)}, {fmt(q3, ndigits)}]"


def render_scorecard(card: dict) -> str:
    """Per-ttf tables: medians [q1, q3] over seeds next to the paper."""
    spec = card["spec"]
    methods = spec["methods"]
    seeds = ", ".join(str(s) for s in spec["seeds"])
    blocks = []
    for ttf in spec["time_to_failure"]:
        paper = PAPER_WASTAGE.get(ttf, {})
        panel = {1.0: "8a", 0.5: "8b"}.get(ttf, "8")
        totals = {m: _totals(card, m, ttf, "wastage_gbh") for m in methods}
        rows = [
            [
                m,
                _spread(totals[m].values()),
                paper.get(m, float("nan")),
                _spread(_totals(card, m, ttf, "failures").values(), 0),
                _spread(_totals(card, m, ttf, "runtime_h").values()),
            ]
            for m in methods
        ]
        blocks.append(
            render_table(
                ["method", "wastage GBh", f"paper Fig. {panel} GBh", "failures", "runtime h"],
                rows,
                ndigits=1,
                title=(
                    f"Quality scorecard, ttf={ttf}: median [q1, q3] over seeds "
                    f"{seeds} (scale={spec['scale']})"
                ),
            )
        )
        medians = {m: _quartiles(totals[m].values())[1] for m in methods}
        line = _reduction_line(medians, paper)
        if line:
            blocks.append(line)
        workflows = list(dict.fromkeys(c["workflow"] for c in card["cells"]))
        per_wf = {m: _table(card, m, ttf, "wastage_gbh") for m in methods}
        rows = [
            [wf] + [
                _quartiles(per_seed[wf] for per_seed in per_wf[m].values())[1]
                for m in methods
            ]
            for wf in workflows
        ]
        blocks.append(
            render_table(
                ["workflow"] + list(methods),
                rows,
                title=f"Median wastage GBh per workflow, ttf={ttf}",
                ndigits=1,
            )
        )
    wall = card.get("sizey_wall_s", [])
    if wall:
        q1, med, q3 = _quartiles(w["seconds"] for w in wall)
        blocks.append(
            f"Sizey wall time per (seed, ttf), {card['workers']} worker(s): "
            f"median {med:.1f} s [{q1:.1f}, {q3:.1f}] over {len(wall)} runs"
        )
    return "\n\n".join(blocks)


def _reduction_line(medians: dict[str, float], paper: dict[str, float]) -> str | None:
    """Sizey's wastage reduction against the best baseline, ours and paper's."""
    if GATED_METHOD not in medians or len(medians) < 2:
        return None
    best, ours = reduction_vs_best_baseline(medians)
    line = f"Sizey vs best baseline ({best}): {ours * 100.0:.1f}% lower median wastage"
    if paper:
        p_best, p_red = reduction_vs_best_baseline(paper)
        line += f"; paper: {p_red * 100.0:.1f}% vs {p_best}"
    return line


# ----------------------------------------------------------------------
# The gate
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Check:
    """One gate check: ``value <= limit`` must hold.

    ``parent`` is the parent's median of the same quantity.
    """

    ttf: float
    name: str
    value: float
    parent: float
    limit: float
    rule: str

    @property
    def passed(self) -> bool:
        return self.value <= self.limit


def compare(parent: dict, change: dict) -> list[Check]:
    """Apply the gate of ``parent``'s declaration to Sizey's rows.

    The change passes if every returned check passed.  Both scorecards
    must hold Sizey cells for the same times-to-failure, seeds and
    workflows at the same scale (the seeds are paired); otherwise
    ``ValueError``.
    """
    gate = parent["spec"]["gate"]
    if parent["spec"]["scale"] != change["spec"]["scale"]:
        raise ValueError(
            f"scorecards differ in scale: {parent['spec']['scale']!r} vs "
            f"{change['spec']['scale']!r}"
        )
    checks: list[Check] = []
    for ttf in parent["spec"]["time_to_failure"]:
        before = _table(parent, GATED_METHOD, ttf, "wastage_gbh")
        after = _table(change, GATED_METHOD, ttf, "wastage_gbh")
        if not before:
            raise ValueError(f"the parent scorecard has no {GATED_METHOD} cells at ttf={ttf}")
        if set(before) != set(after) or any(
            set(before[s]) != set(after[s]) for s in before
        ):
            raise ValueError(
                f"{GATED_METHOD} cells at ttf={ttf} differ in seeds or workflows; "
                "the gate pairs seeds"
            )
        for field, key, label in (
            ("wastage_gbh", "median_wastage_ratio", "median total wastage GBh"),
            ("failures", "median_failures_ratio", "median total failures"),
        ):
            ratio = gate[key]
            base = _quartiles(_totals(parent, GATED_METHOD, ttf, field).values())[1]
            value = _quartiles(_totals(change, GATED_METHOD, ttf, field).values())[1]
            checks.append(Check(ttf, label, value, base, ratio * base, f"{ratio} x parent median"))
        q = gate["workflow_quantile"]
        for wf in next(iter(before.values())):
            values = [before[s][wf] for s in before]
            limit = float(np.percentile(values, 100.0 * q))
            value = _quartiles(after[s][wf] for s in before)[1]
            checks.append(
                Check(
                    ttf, f"{wf} median wastage GBh", value, _quartiles(values)[1],
                    limit, f"parent's {q:g} quantile",
                )
            )
    return checks


def render_verdict(checks: list[Check]) -> str:
    lines = [f"Quality gate on {GATED_METHOD}'s rows (docs/QUALITY.md), seeds paired"]
    for c in checks:
        change = (c.value / c.parent - 1.0) * 100.0 if c.parent else float("nan")
        lines.append(
            f"  {'PASS' if c.passed else 'FAIL'}  ttf={c.ttf}  {c.name}: {c.value:,.1f} "
            f"(parent {c.parent:,.1f}, {change:+.1f}%) <= {c.limit:,.1f} ({c.rule})"
        )
    failed = sum(not c.passed for c in checks)
    lines.append(
        f"verdict: {'FAIL' if failed else 'PASS'} "
        f"({len(checks) - failed}/{len(checks)} checks hold)"
    )
    return "\n".join(lines)
