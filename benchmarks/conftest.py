"""Shared benchmark configuration.

Every benchmark regenerates one paper artifact end-to-end, so a single
round is the meaningful unit of measurement (these are throughput
benchmarks of the full experiment pipeline, not micro-benchmarks).

A session can also record a machine-readable snapshot — wall-clock
seconds per benchmark cell keyed by the pytest node id, plus named
metrics — so the perf trajectory across PRs can be tracked by diffing
the committed ``BENCH_<pr>.json`` files (see ``docs/BENCH.md`` for the
key reference).  The snapshot is written only when the
``REPRO_BENCH_JSON`` environment variable names a path: a plain test
run (which collects ``benchmarks/``) must never rewrite a tracked file.
"""

import json
import os
import sys
import time
from pathlib import Path

import pytest

from _bench_utils import check_headline_sanity, record_peak_rss

#: The committed snapshot fresh headline metrics are sanity-checked
#: against.
_BENCH_FILE = "BENCH_10.json"

_cells: dict[str, float] = {}
#: Extra named measurements (e.g. kernel events/sec), merged alongside
#: the wall-clock cells under a separate "metrics" key.
_metrics: dict[str, float] = {}


@pytest.fixture
def once(benchmark, request):
    """Run the benched callable exactly once and return its result."""

    def _run(fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return benchmark.pedantic(
                fn, args=args, kwargs=kwargs, rounds=1, iterations=1
            )
        finally:
            _cells[request.node.nodeid] = time.perf_counter() - start
            # Memory alongside wall-clock for every cell.  ru_maxrss is
            # the *process-lifetime* high watermark, so within a session
            # the series is non-decreasing — the number pins the cell
            # that first pushed the watermark, later cells inherit it.
            # Skipped under xdist (see record_peak_rss): every worker
            # would re-count the same forked interpreter.
            record_peak_rss(_metrics, request.node.nodeid, request.config)

    return _run


@pytest.fixture
def bench_metric(request):
    """Record a named throughput/ratio metric for the current bench cell.

    Usage: ``bench_metric("events_per_sec", value)`` — lands in the
    snapshot's ``metrics`` section keyed by ``<nodeid>::<name>``.
    """

    def _record(name: str, value: float) -> None:
        _metrics[f"{request.node.nodeid}::{name}"] = float(value)

    return _record


@pytest.fixture
def bench_headline():
    """Record a first-class headline metric under a stable bare key.

    Unlike ``bench_metric``, the key is *not* prefixed with the pytest
    node id — headline numbers (e.g. ``kernel_flat_events_per_sec``)
    keep the same key across refactors that rename or move the bench
    cell, so snapshot diffs track the number, not the test layout.
    """

    def _record(name: str, value: float) -> None:
        _metrics[name] = float(value)

    return _record


def _bench_json_path() -> Path | None:
    """The snapshot path ``REPRO_BENCH_JSON`` names, or None (no write)."""
    target = os.environ.get("REPRO_BENCH_JSON")
    return Path(target) if target else None


def pytest_sessionfinish(session, exitstatus):
    """Persist per-cell wall-clock when any benchmark actually ran.

    Nothing is written unless ``REPRO_BENCH_JSON`` names a path, and
    collection-only runs and failed sessions write nothing either.  A
    green partial run (e.g. a ``-k`` smoke subset) *merges* its cells
    into an existing snapshot at that path instead of replacing it, so
    selecting a subset can refresh measurements but never silently drops
    the other cells of a recording.
    """
    if not _cells or exitstatus != 0:
        return
    if hasattr(session.config, "workerinput"):
        # Under pytest-xdist no snapshot is written at all (workers skip
        # here; the controller runs no tests so has no cells).  That is
        # deliberate: parallel workers contend for cores, so their
        # wall-clock numbers would poison the committed perf trajectory.
        # Run ``pytest benchmarks`` without ``-n`` to refresh it.
        return
    path = _bench_json_path()
    if path is None:
        return
    cells: dict[str, float] = {}
    metrics: dict[str, float] = {}
    try:
        previous = json.loads(path.read_text())
        if previous.get("format") == "repro-bench":
            cells.update(previous.get("cells", {}))
            stored = previous.get("metrics", {})
            if isinstance(stored, dict):
                metrics.update(stored)
    except (OSError, ValueError):
        pass  # no snapshot yet, or an unreadable one: start fresh
    cells.update(
        {nodeid: round(secs, 6) for nodeid, secs in _cells.items()}
    )
    metrics.update(
        {key: round(value, 6) for key, value in _metrics.items()}
    )
    payload = {
        "format": "repro-bench",
        "pr": 10,
        "unit": "seconds",
        "cells": dict(sorted(cells.items())),
        "metrics": dict(sorted(metrics.items())),
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    _warn_suspect_headlines(payload)


def _warn_suspect_headlines(payload) -> None:
    """Sanity-check fresh headline metrics against the committed snapshot.

    A >10% drop in a bare headline key, or the profiled flat cell
    outrunning the unprofiled one, marks the session as measured in a
    bad environment — the snapshot just written should not be committed
    as the perf trajectory (see docs/BENCH.md "Caveats").  Warnings
    only; the session never fails over this.
    """
    prior_path = Path(__file__).resolve().parent.parent / _BENCH_FILE
    try:
        prior = json.loads(prior_path.read_text())
    except (OSError, ValueError):
        return
    if prior.get("format") != "repro-bench":
        return
    warnings = check_headline_sanity(
        payload["metrics"], prior.get("metrics", {})
    )
    for line in warnings:
        print(f"\n[bench-sanity] {line}", file=sys.stderr)
