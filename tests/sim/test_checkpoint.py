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
import sys

import pytest

from repro.errors import ConfigError
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
from repro.workflow.io import save_trace_jsonl
from repro.workflow.nfcore import build_workflow_trace
from repro.workload.tracefile import TraceFileSource

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


def test_jsonl_flat_pause_resume_is_bit_for_bit(tmp_path):
    """A JSONL trace at full scale is materialized at seed; the resumed
    run rebuilds its task stream from the file, past the tasks built."""
    path = tmp_path / "iwd.jsonl"
    save_trace_jsonl(build_workflow_trace("iwd", seed=3, scale=0.05), path)
    assert TraceFileSource(path).n_tasks is None  # cannot report its length

    def build():
        sim = OnlineSimulator(
            TraceFileSource(path),
            backend=EventDrivenBackend(arrival="poisson:600", seed=7),
            time_to_failure=0.7,
            cluster="4g:1,6g:1",
        )
        return sim, method_factories()["Witt-LR"]()

    sim, predictor = build()
    full = sim.run(predictor)
    assert full.num_failures > 0
    expected = result_to_dict(full)

    ck = str(tmp_path / "state.ckpt")
    sim, predictor = build()
    # Mid-stream: about a third of the 83 arrivals are past.
    assert sim.run(predictor, checkpoint=ck, stop_after=0.05) is None
    driver = load_checkpoint(ck).driver
    assert 0 < driver._consumed < driver.n_tasks
    assert driver._times is None and driver._tasks is None  # rebuilt
    result = OnlineSimulator.resume(ck)
    assert result is not None
    assert result_to_dict(result) == expected


@pytest.mark.parametrize("pause", ["stop_after", "checkpoint_every"])
def test_a_pause_needs_a_checkpoint_path(pause):
    # A paused state written nowhere is lost; refuse before running.
    sim, predictor = build_sim("flat_event_pr2")
    with pytest.raises(ConfigError, match="need a checkpoint path"):
        sim.run(predictor, **{pause: 0.1})


@pytest.mark.parametrize(
    "pause",
    [{}, {"checkpoint_every": 0.1}, {"stop_after": 0.1}],
    ids=["checkpoint", "checkpoint_every", "stop_after"],
)
def test_a_serial_run_is_never_checkpointed(tmp_path, pause):
    # Refused before the run starts, so no checkpoint file is written.
    sim, predictor = build_sim("sizey_replay")
    assert sim.backend.serial
    ck = tmp_path / "replay.ckpt"
    with pytest.raises(ConfigError, match="serial .* cannot be checkpointed"):
        sim.run(predictor, checkpoint=str(ck), **pause)
    assert not ck.exists()


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
    # Files that are no pickle at all, and no file.
    for data in (b"", b"not a checkpoint\n", b'{"a": 1}\n'):
        path.write_bytes(data)
        with pytest.raises(ConfigError, match="not a repro simulation"):
            load_checkpoint(str(path))
    with pytest.raises(ConfigError, match="cannot read checkpoint"):
        load_checkpoint(str(tmp_path / "missing.ckpt"))
    # Older checkpoints too: a v3 one pickles MLPs that train with 20
    # Adam steps per incremental update.
    for version in (CHECKPOINT_VERSION - 1, CHECKPOINT_VERSION + 1):
        path.write_bytes(
            pickle.dumps({"format": CHECKPOINT_FORMAT, "version": version})
        )
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(str(path))


class _Gone:
    """Pickled into a checkpoint, then removed: no build can rebuild it."""


def test_load_checks_the_version_before_unpickling_the_kernel(
    tmp_path, monkeypatch
):
    # Up to version 6 header and kernel were one pickled dict, and a v6
    # kernel holds task states this build cannot rebuild; the version
    # error must come first.
    path = tmp_path / "old.ckpt"
    old = CHECKPOINT_VERSION - 1
    path.write_bytes(
        pickle.dumps(
            {"format": CHECKPOINT_FORMAT, "version": old, "kernel": _Gone()}
        )
    )
    monkeypatch.delattr(sys.modules[__name__], "_Gone")
    with pytest.raises(ValueError, match=f"format version {old};"):
        load_checkpoint(str(path))


def test_a_v8_checkpoint_gets_the_version_error(tmp_path, baselines, monkeypatch):
    # A v8 file pickles a two-lane event calendar and a DAG scheduler
    # this build no longer has, so unpickling one would fail with an
    # AttributeError instead of this typed error.
    from repro.sim.kernel import checkpoint as ckpt

    path = str(tmp_path / "v8.ckpt")
    stop = baselines["dag_engine_pr3"]["cluster"]["makespan_hours"] * 0.5
    sim, predictor = build_sim("dag_engine_pr3")
    with monkeypatch.context() as patch:
        patch.setattr(ckpt, "CHECKPOINT_VERSION", 8)
        assert sim.run(predictor, checkpoint=path, stop_after=stop) is None
    assert CHECKPOINT_VERSION == 9
    with pytest.raises(
        ValueError, match="has format version 8; this build reads version 9"
    ):
        load_checkpoint(path)
