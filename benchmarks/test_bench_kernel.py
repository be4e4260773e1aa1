"""Bench: raw kernel throughput in events per second.

Unlike the artifact benchmarks, this one isolates the simulation kernel
itself: a cheap non-learning predictor removes model cost, so the
wall-clock is dominated by the event heap, the dispatch/placement pass,
and collector dispatch.  The events/sec figure (2 events per attempt:
arrival-or-release + completion) is the headline number for "runs as
fast as the hardware allows" and lands in the snapshot's ``metrics``
section.  Each cell runs best-of-``ROUNDS``: the minimum wall-clock of
five identical runs drives the metric, which filters scheduler noise
out of the committed perf trajectory.
"""

import os
import time

import pytest

from repro.cluster.machine import MachineConfig
from repro.cluster.manager import ResourceManager
from repro.sim.backends.event import EventDrivenBackend
from repro.sim.interface import MemoryPredictor, TaskSubmission
from repro.workflow.nfcore import build_workflow_trace

SCALE = 0.5
SEED = 0
#: Throughput cells report the best of this many rounds — the minimum
#: is the least-noisy estimator for a deterministic workload (all
#: variance is scheduler/cache interference, always additive).  On a
#: host with an unsteady clock, raise ``REPRO_BENCH_ROUNDS`` so each
#: cell spans enough wall time to catch a fast window; a larger N only
#: tightens the same best-of-N estimate of the noise-free peak.
ROUNDS = int(os.environ.get("REPRO_BENCH_ROUNDS", "5"))


def _make_manager() -> ResourceManager:
    # Fresh manager per round: ResourceManager is mutated by a run.
    return ResourceManager(
        MachineConfig(name="big", memory_mb=512.0 * 1024), n_nodes=8
    )


def _best_of(once, backend, trace):
    """(first-round result, best elapsed) over ``ROUNDS`` runs.

    Round 0 goes through ``once`` so the cell's wall-clock still lands
    in the snapshot; the extra rounds are timed bare, and the minimum
    drives the events/sec metric.
    """
    best = float("inf")
    result = None
    for i in range(ROUNDS):
        manager = _make_manager()
        start = time.perf_counter()
        if i == 0:
            result = once(backend.run, trace, _CheapPredictor(), manager, 1.0)
        else:
            backend.run(trace, _CheapPredictor(), manager, 1.0)
        best = min(best, time.perf_counter() - start)
    return result, best


class _CheapPredictor(MemoryPredictor):
    """Constant over-allocation: zero model cost, zero failures."""

    name = "Cheap"

    def predict(self, task: TaskSubmission) -> float:
        return 64.0 * 1024

    def predict_batch(self, tasks):
        return [64.0 * 1024] * len(tasks)


@pytest.fixture(scope="module")
def trace():
    return build_workflow_trace("rnaseq", seed=SEED, scale=SCALE)


def test_bench_kernel_throughput_flat(trace, once, bench_metric, bench_headline):
    backend = EventDrivenBackend(arrival="poisson:50", seed=SEED)
    res, best = _best_of(once, backend, trace)
    n_events = 2 * len(res.ledger.outcomes)  # arrival/requeue + completion
    assert res.num_tasks == len(trace)
    eps = n_events / best
    bench_metric("events_per_sec", eps)
    bench_headline("kernel_flat_events_per_sec", eps)


def test_bench_kernel_throughput_dag(trace, once, bench_metric, bench_headline):
    backend = EventDrivenBackend(
        dag="trace", workflow_arrival="4@poisson:2", seed=SEED
    )
    res, best = _best_of(once, backend, trace)
    n_events = 2 * len(res.ledger.outcomes) + 4  # + workflow arrivals
    assert res.num_tasks == 4 * len(trace)
    eps = n_events / best
    bench_metric("events_per_sec", eps)
    bench_headline("kernel_dag_events_per_sec", eps)


def test_bench_kernel_profiler_overhead(trace, once, bench_metric, bench_headline):
    """The profiled loop's throughput, alongside the profiler's own view.

    The headline pair (``kernel_flat_events_per_sec`` vs
    ``kernel_flat_profiled_events_per_sec``) bounds the cost of the
    laps, which run in the kernel's one event loop only when a timer
    is passed; the phase totals must still tile the instrumented wall
    time.
    """
    backend = EventDrivenBackend(
        arrival="poisson:50", seed=SEED, profile=True
    )
    res, best = _best_of(once, backend, trace)
    n_events = 2 * len(res.ledger.outcomes)
    assert res.num_tasks == len(trace)
    profile = res.profile
    assert profile is not None
    assert profile.total_phase_seconds >= 0.95 * profile.wall_seconds
    eps = n_events / best
    bench_metric("events_per_sec", eps)
    bench_headline("kernel_flat_profiled_events_per_sec", eps)
