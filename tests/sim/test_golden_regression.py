"""Golden bit-for-bit regression tests for the simulation engines and Sizey.

The JSON files under ``tests/golden/`` pin the exact
:class:`~repro.sim.results.SimulationResult` outputs of the pre-kernel
engines — the PR 2 flat event backend and the PR 3 DAG scheduling
engine — on small but non-trivial scenarios (contention, kills,
re-queues, heterogeneous nodes, stochastic arrivals).  Any refactor of
the simulation layer must keep these outputs *identical to the last
bit*: the ledger's attempt sequence, every prediction log, the cluster
metrics including per-node timelines, and the per-workflow metrics.

Sizey itself is pinned three times: incremental Sizey on the event
backend and on the paper's serial replay (the path the scorecard runs)
— its allocations depend on every model output, offset and gating
weight — and, because a full-retrain simulation is too slow for the suite, one
:class:`~repro.core.pool.ModelPool` per training mode driven over a
fixed update stream with every :class:`~repro.core.pool.PoolPrediction`
field recorded after each update.  Learning goldens pin float results
of numpy's linear algebra, so they hold for one numpy/BLAS build.

Regenerate (only when an intentional semantic change is being made,
never to paper over a refactor diff)::

    REPRO_REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/sim/test_golden_regression.py
"""

import json
import os
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import SizeyConfig
from repro.core.pool import ModelPool
from repro.experiments.factories import method_factories
from repro.sim.backends.event import EventDrivenBackend
from repro.sim.engine import OnlineSimulator
from repro.sim.results import result_to_dict
from repro.workflow.nfcore import build_workflow_trace

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"

#: name -> (method, backend kwargs, simulator kwargs).  Scenarios are
#: chosen to exercise kills/re-queues under contention on heterogeneous
#: nodes; the engine pins use cheap non-learning predictors so they stay
#: fast and failure-prone, the last two pin the paper's method.
SCENARIOS = {
    "flat_event_pr2": dict(
        workflow="iwd",
        scale=0.05,
        trace_seed=3,
        method="Witt-Percentile",
        backend=dict(arrival="poisson:600", seed=7),
        sim=dict(
            time_to_failure=0.7, cluster="4g:1,6g:1", placement="best-fit"
        ),
    ),
    "flat_event_bursty_presets": dict(
        workflow="iwd",
        scale=0.05,
        trace_seed=3,
        method="Workflow-Presets",
        backend=dict(arrival="bursty:8x0.005", seed=5),
        sim=dict(
            time_to_failure=1.0, cluster="4g:2", placement="first-fit"
        ),
    ),
    "dag_engine_pr3": dict(
        workflow="iwd",
        scale=0.05,
        trace_seed=3,
        method="Witt-Percentile",
        backend=dict(
            dag="trace",
            workflow_arrival="3@poisson:8@tenants:2",
            seed=11,
        ),
        sim=dict(
            time_to_failure=0.7, cluster="4g:1,6g:1", placement="best-fit"
        ),
    ),
    "dag_engine_linear": dict(
        workflow="iwd",
        scale=0.05,
        trace_seed=3,
        method="Workflow-Presets",
        backend=dict(dag="linear", workflow_arrival="2@fixed:0.05", seed=2),
        sim=dict(
            time_to_failure=1.0, cluster="4g:2", placement="first-fit"
        ),
    ),
    # The paper's method, incremental training: ~80 tasks per type, so
    # the busiest pools outgrow the MLP window and refit the forest 5x.
    "sizey_incremental_event": dict(
        workflow="iwd",
        scale=0.2,
        trace_seed=3,
        method="Sizey",
        backend=dict(arrival="poisson:600", seed=7),
        sim=dict(
            time_to_failure=0.7, cluster="4g:1,6g:1", placement="best-fit"
        ),
    ),
    # The same run on the paper's serial replay: one task in flight, so
    # every success is observed before the next task is sized.
    "sizey_replay": dict(
        workflow="iwd",
        scale=0.2,
        trace_seed=3,
        method="Sizey",
        backend=dict(serial=True),
        sim=dict(
            time_to_failure=0.7, cluster="4g:1,6g:1", placement="best-fit"
        ),
    ),
}

#: name -> (training mode, number of updates) for the pinned pool
#: streams.  The full stream crosses two HPO rounds (updates 25 and 50).
POOL_STREAMS = {
    "sizey_pool_full": dict(training_mode="full", updates=60),
    "sizey_pool_incremental": dict(training_mode="incremental", updates=80),
}
#: Rows every pool stream queries with predict_batch after each update:
#: below, inside and beyond the stream's input range.
PROBE_X = np.array([[80.0], [1250.0], [2500.0], [6000.0]])


def run_scenario(name: str) -> dict:
    spec = SCENARIOS[name]
    trace = build_workflow_trace(
        spec["workflow"], seed=spec["trace_seed"], scale=spec["scale"]
    )
    backend = EventDrivenBackend(**spec["backend"])
    sim = OnlineSimulator(trace, backend=backend, **spec["sim"])
    predictor = method_factories()[spec["method"]]()
    return result_to_dict(sim.run(predictor))


def _prediction_fields(pp) -> dict:
    return {
        "model_names": list(pp.model_names),
        "predictions": pp.predictions.tolist(),
        "accuracy": pp.accuracy.tolist(),
        "efficiency": pp.efficiency.tolist(),
        "raq": pp.raq.tolist(),
        "weights": pp.weights.tolist(),
        "estimate": pp.estimate,
        "selected_index": pp.selected_index,
    }


def pool_stream(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The fixed (input MB, peak MB) update stream of the pool goldens.

    Inputs sit on a 50 MB grid so the trees see tied feature values;
    peaks grow superlinearly with noise, as in the nf-core archetypes.
    """
    rng = np.random.default_rng(12)
    x = np.round(rng.uniform(100.0, 5000.0, size=n) / 50.0) * 50.0
    y = 200.0 + 0.8 * x + 1e-4 * x * x + rng.normal(0.0, 150.0, size=n)
    return x, y


@lru_cache(maxsize=None)
def _run_pool_stream_json(name: str) -> str:
    spec = POOL_STREAMS[name]
    pool = ModelPool(training_mode=spec["training_mode"], random_state=5)
    x, y = pool_stream(spec["updates"])
    rounds = []
    for xi, yi in zip(x, y):
        pool.update(np.array([xi]), float(yi))
        rounds.append(
            {
                "batch": [
                    _prediction_fields(p) for p in pool.predict_batch(PROBE_X)
                ],
                "single": _prediction_fields(pool.predict(PROBE_X[1:2])),
            }
        )
    return json.dumps({"spec": spec, "rounds": rounds})


def run_pool_stream(name: str) -> dict:
    """Every PoolPrediction field after each update of a pinned stream."""
    return json.loads(_run_pool_stream_json(name))


def _check_golden(name: str, actual: dict) -> None:
    path = GOLDEN_DIR / f"{name}.json"
    if os.environ.get("REPRO_REGEN_GOLDENS"):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(actual, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {path.name}")
    expected = json.loads(path.read_text())
    # Round-trip through JSON so float representation is identical on
    # both sides; any difference is a genuine semantic drift.
    actual = json.loads(json.dumps(actual))
    assert actual == expected, f"golden output drifted for {name}"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden(name):
    _check_golden(name, run_scenario(name))


@pytest.mark.parametrize("name", sorted(POOL_STREAMS))
def test_pool_golden(name):
    _check_golden(name, run_pool_stream(name))


def test_goldens_have_coverage():
    """The pinned scenarios must exercise the interesting machinery."""
    flat = run_scenario("flat_event_pr2")
    dag = run_scenario("dag_engine_pr3")
    assert any(not a["success"] for a in flat["attempts"]), (
        "flat golden scenario no longer produces kills/re-queues"
    )
    assert any(not a["success"] for a in dag["attempts"]), (
        "DAG golden scenario no longer produces kills/re-queues"
    )
    assert flat["cluster"]["total_queue_wait_hours"] > 0
    assert dag["workflows"] is not None and len(dag["workflows"]) == 3

    # The Sizey goldens must reach the windows and HPO rounds they pin.
    cfg = SizeyConfig()
    sizey = run_scenario("sizey_incremental_event")
    assert sizey["method"] == "Sizey"
    assert any(not a["success"] for a in sizey["attempts"]), (
        "Sizey golden scenario no longer produces kills/re-queues"
    )
    per_type: dict[str, int] = {}
    for a in sizey["attempts"]:
        if a["success"]:
            per_type[a["task_type"]] = per_type.get(a["task_type"], 0) + 1
    busiest = max(per_type.values())
    # One pool slides its MLP window and refits the forest >= 4 times.
    assert busiest > cfg.mlp_window
    assert busiest // cfg.rf_refit_interval >= 4
    replay = run_scenario("sizey_replay")
    assert replay["cluster"] is None
    assert any(not a["success"] for a in replay["attempts"]), (
        "Sizey replay golden no longer produces kills"
    )

    full = run_pool_stream("sizey_pool_full")
    assert len(full["rounds"]) >= 2 * cfg.hpo_interval
    incremental = run_pool_stream("sizey_pool_incremental")
    assert len(incremental["rounds"]) > cfg.mlp_window
    assert len(incremental["rounds"]) // cfg.rf_refit_interval >= 4
    # All four model classes answer by the end of both streams.
    for stream in (full, incremental):
        assert len(stream["rounds"][-1]["single"]["model_names"]) == 4
