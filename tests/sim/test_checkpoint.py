"""Checkpoint/resume determinism: interrupted == uninterrupted, bit-for-bit.

Every test pauses a golden-scenario kernel at some simulation-clock
boundary, serializes it, resumes from the file, and asserts the final
:func:`~repro.sim.results.result_to_dict` equals the uninterrupted
run's — the same equality the golden regression suite pins, so any
state that fails to survive the pickle round-trip (heap order, RNG
streams, dispatch generations, collector aggregates, the lazy flat
driver's cursor) shows up as a hard diff.

Boundaries are picked as fractions of each scenario's makespan so the
pause lands mid-flight: tasks running, queues occupied, kills pending —
plus dedicated mid-outage-window and mid-DAG-release cases.
"""

import pickle

import pytest

from repro.experiments.factories import method_factories
from repro.sim.backends.event import EventDrivenBackend
from repro.sim.engine import OnlineSimulator
from repro.sim.kernel.checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    load_checkpoint,
    save_checkpoint,
)
from repro.sim.results import result_to_dict
from repro.workflow.nfcore import build_workflow_trace

from tests.sim.test_golden_regression import SCENARIOS, run_scenario

#: Golden scenarios driven through pause/resume: flat with kills, DAG
#: with tenanted Poisson arrivals (mid-release pauses), DAG linear, and
#: incremental Sizey (model pools, offset trackers and MLP optimiser
#: state must survive the pickle round-trip).
NAMES = (
    "flat_event_pr2",
    "dag_engine_pr3",
    "dag_engine_linear",
    "sizey_incremental_event",
)
#: Pause points as fractions of each scenario's makespan.
FRACTIONS = (0.25, 0.6, 0.9)


def build_sim(name):
    spec = SCENARIOS[name]
    trace = build_workflow_trace(
        spec["workflow"], seed=spec["trace_seed"], scale=spec["scale"]
    )
    backend = EventDrivenBackend(**spec["backend"])
    sim = OnlineSimulator(trace, backend=backend, **spec["sim"])
    return sim, method_factories()[spec["method"]]()


@pytest.fixture(scope="module")
def baselines():
    """Uninterrupted result dicts (and makespans) per scenario."""
    return {name: run_scenario(name) for name in NAMES}


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("frac", FRACTIONS)
def test_pause_resume_is_bit_for_bit(tmp_path, baselines, name, frac):
    expected = baselines[name]
    stop = expected["cluster"]["makespan_hours"] * frac
    ck = str(tmp_path / "state.ckpt")

    sim, predictor = build_sim(name)
    paused = sim.run(predictor, checkpoint=ck, stop_after=stop)
    assert paused is None, "run should pause, not complete, at stop_after"

    result = OnlineSimulator.resume(ck)
    assert result is not None
    assert result_to_dict(result) == expected


@pytest.mark.parametrize("name", ("flat_event_pr2", "dag_engine_pr3"))
def test_double_checkpoint_chain(tmp_path, baselines, name):
    """Pause twice (two files), resume twice: still identical."""
    expected = baselines[name]
    makespan = expected["cluster"]["makespan_hours"]
    ck1 = str(tmp_path / "first.ckpt")
    ck2 = str(tmp_path / "second.ckpt")

    sim, predictor = build_sim(name)
    assert sim.run(predictor, checkpoint=ck1, stop_after=makespan * 0.3) is None
    assert (
        OnlineSimulator.resume(ck1, checkpoint=ck2, stop_after=makespan * 0.7)
        is None
    )
    result = OnlineSimulator.resume(ck2)
    assert result is not None
    assert result_to_dict(result) == expected


@pytest.mark.parametrize("name", NAMES)
def test_checkpoint_every_slicing(tmp_path, baselines, name):
    """Driving in small slices (checkpoint at every pause) changes nothing."""
    expected = baselines[name]
    ck = str(tmp_path / "state.ckpt")
    sim, predictor = build_sim(name)
    result = sim.run(predictor, checkpoint=ck, checkpoint_every=0.05)
    assert result is not None
    assert result_to_dict(result) == expected
    # The file left behind is the last mid-run pause — still loadable.
    kernel = load_checkpoint(ck)
    assert kernel._started


def test_pause_inside_outage_window(tmp_path):
    """Checkpoint while a node is drained: outage end event survives."""

    def build():
        trace = build_workflow_trace("iwd", seed=3, scale=0.05)
        backend = EventDrivenBackend(
            arrival="poisson:600", seed=7, node_outage="0.01:0.5:0"
        )
        sim = OnlineSimulator(
            trace,
            backend=backend,
            time_to_failure=0.7,
            cluster="4g:1,6g:1",
            placement="best-fit",
        )
        return sim, method_factories()["Witt-Percentile"]()

    sim, predictor = build()
    expected = result_to_dict(sim.run(predictor))

    ck = str(tmp_path / "state.ckpt")
    sim, predictor = build()
    # 0.2h is inside the [0.01, 0.51] drain window of node 0.
    assert sim.run(predictor, checkpoint=ck, stop_after=0.2) is None
    kernel = load_checkpoint(ck)
    assert kernel.now <= 0.2
    result = OnlineSimulator.resume(ck)
    assert result is not None
    assert result_to_dict(result) == expected


def test_checkpoint_requires_started_kernel(tmp_path):
    sim, predictor = build_sim("flat_event_pr2")
    kernel = sim.backend.build_kernel(
        sim.source, predictor, sim.manager, sim.time_to_failure
    )
    with pytest.raises(ValueError, match="has not started"):
        save_checkpoint(kernel, str(tmp_path / "nope.ckpt"))


def test_load_rejects_foreign_files(tmp_path):
    path = tmp_path / "garbage.ckpt"
    path.write_bytes(pickle.dumps({"format": "something-else"}))
    with pytest.raises(ValueError, match="not a repro simulation checkpoint"):
        load_checkpoint(str(path))
    # Older checkpoints too: a v3 one pickles MLPs that train with 20
    # Adam steps per incremental update.
    for version in (CHECKPOINT_VERSION - 1, CHECKPOINT_VERSION + 1):
        path.write_bytes(
            pickle.dumps({"format": CHECKPOINT_FORMAT, "version": version})
        )
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(str(path))
