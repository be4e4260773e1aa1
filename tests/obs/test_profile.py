"""Kernel phase profiler: timer semantics and measurement-only guarantee.

The load-bearing property is *measurement-only*: enabling the profiler
(and the trace collector) must leave every simulation output identical
to the last bit.  That is pinned two ways — against the committed
golden files (the same scenarios the engine-regression suite pins,
re-run with ``profile=True``), and pairwise profile-off vs profile-on
across the structurally different kernel modes.
"""

import importlib.util
import json
import pickle
from pathlib import Path

import pytest

from repro.experiments.factories import method_factories
from repro.obs.profile import (
    PHASE_ORDER,
    KernelProfile,
    PhaseStat,
    PhaseTimer,
    profile_to_dict,
)
from repro.sim.backends.event import EventDrivenBackend
from repro.sim.engine import OnlineSimulator
from repro.sim.results import result_to_dict
from repro.workflow.nfcore import build_workflow_trace

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"


class _FakeClock:
    def __init__(self):
        self.t = 0.0

    def advance(self, dt):
        self.t += dt

    def __call__(self):
        return self.t


class TestPhaseTimer:
    def test_laps_tile_the_region(self):
        clock = _FakeClock()
        profile = KernelProfile()
        timer = PhaseTimer(profile, clock=clock)
        timer.start()
        clock.advance(1.0)
        timer.lap("size")
        clock.advance(2.0)
        timer.lap("place")
        clock.advance(0.5)
        timer.lap("size")
        timer.stop()
        assert profile.phases["size"].calls == 2
        assert profile.phases["size"].seconds == pytest.approx(1.5)
        assert profile.phases["place"].seconds == pytest.approx(2.0)
        assert profile.wall_seconds == pytest.approx(3.5)
        assert profile.total_phase_seconds == pytest.approx(3.5)

    def test_stop_start_resumes_without_charging_the_gap(self):
        clock = _FakeClock()
        profile = KernelProfile()
        timer = PhaseTimer(profile, clock=clock)
        timer.start()
        clock.advance(1.0)
        timer.lap("heap")
        timer.stop()
        clock.advance(100.0)  # downtime between slices
        timer.start()
        clock.advance(1.0)
        timer.lap("heap")
        timer.stop()
        assert profile.phases["heap"].seconds == pytest.approx(2.0)
        assert profile.wall_seconds == pytest.approx(2.0)

    def test_pickle_drops_inflight_lap_origin(self):
        clock = _FakeClock()
        profile = KernelProfile()
        timer = PhaseTimer(profile, clock=clock)
        timer.start()
        clock.advance(1.0)
        timer.lap("heap")
        restored = pickle.loads(pickle.dumps(timer))
        assert restored.profile.phases["heap"].calls == 1
        assert restored._last is None and restored._run_started is None
        # A resumed lap only counts the call, never the downtime: the
        # pre-pickle 1.0s charge survives, the resumed lap adds nothing.
        restored.lap("heap")
        assert restored.profile.phases["heap"].calls == 2
        assert restored.profile.phases["heap"].seconds == pytest.approx(1.0)


class TestKernelProfile:
    def test_merge_sums_everything(self):
        a = KernelProfile(
            phases={"heap": PhaseStat(2, 1.0)}, n_events=10, wall_seconds=2.0
        )
        b = KernelProfile(
            phases={"heap": PhaseStat(1, 0.5), "size": PhaseStat(3, 0.25)},
            n_events=5,
            wall_seconds=1.0,
        )
        a.merge(b)
        assert a.phases["heap"].calls == 3
        assert a.phases["heap"].seconds == pytest.approx(1.5)
        assert a.phases["size"].calls == 3
        assert a.n_events == 15
        assert a.wall_seconds == pytest.approx(3.0)
        assert a.n_runs == 2
        assert a.events_per_sec == pytest.approx(5.0)

    def test_sorted_phases_follow_canonical_order(self):
        profile = KernelProfile()
        for name in ("finalize", "zeta", "seed", "collect", "alpha"):
            profile.stat(name)
        names = [name for name, _ in profile.sorted_phases()]
        assert names == ["seed", "collect", "finalize", "alpha", "zeta"]

    def test_to_dict_shape(self):
        profile = KernelProfile(
            phases={"heap": PhaseStat(2, 0.5)}, n_events=4, wall_seconds=1.0
        )
        d = profile_to_dict(profile)
        assert d["phases"] == {"heap": {"calls": 2, "seconds": 0.5}}
        assert d["n_events"] == 4
        assert d["events_per_sec"] == pytest.approx(4.0)
        json.dumps(d)  # must be JSON-clean

    def test_render_rows_share_of_wall(self):
        profile = KernelProfile(
            phases={"heap": PhaseStat(1, 0.25)}, n_events=1, wall_seconds=1.0
        )
        (row,) = profile.render_rows()
        assert row["share"] == pytest.approx(0.25)


def _run(workflow_kwargs, backend_kwargs, sim_kwargs, method="Witt-Percentile"):
    trace = build_workflow_trace(**workflow_kwargs)
    backend = EventDrivenBackend(**backend_kwargs)
    sim = OnlineSimulator(trace, backend=backend, **sim_kwargs)
    return sim.run(method_factories()[method]())


#: Structurally different kernel modes, all small enough to stay fast:
#: pure flat contention with kills, flat with a node drain (preemption
#: + outage events), and DAG scheduling with multi-workflow arrivals.
#: The ``*-firstfit`` variants rerun ``flat-kills`` and ``dag`` with the
#: default first-fit policy instead of best-fit; every placement is one
#: ``ResourceManager.try_place`` call into the policy either way.
MODES = {
    "flat-kills": dict(
        workflow_kwargs=dict(name="iwd", seed=3, scale=0.05),
        backend_kwargs=dict(arrival="poisson:600", seed=7),
        sim_kwargs=dict(
            time_to_failure=0.7, cluster="4g:1,6g:1", placement="best-fit"
        ),
    ),
    "flat-firstfit": dict(
        workflow_kwargs=dict(name="iwd", seed=3, scale=0.05),
        backend_kwargs=dict(arrival="poisson:600", seed=7),
        sim_kwargs=dict(time_to_failure=0.7, cluster="4g:1,6g:1"),
    ),
    "dag-firstfit": dict(
        workflow_kwargs=dict(name="iwd", seed=3, scale=0.05),
        backend_kwargs=dict(
            dag="trace", workflow_arrival="3@poisson:8@tenants:2", seed=11
        ),
        sim_kwargs=dict(time_to_failure=0.7, cluster="4g:1,6g:1"),
    ),
    "flat-outage": dict(
        workflow_kwargs=dict(name="iwd", seed=3, scale=0.05),
        backend_kwargs=dict(
            arrival="poisson:600", seed=7, node_outage="0.005:0.02:0"
        ),
        sim_kwargs=dict(time_to_failure=0.7, cluster="4g:2"),
    ),
    "dag": dict(
        workflow_kwargs=dict(name="iwd", seed=3, scale=0.05),
        backend_kwargs=dict(
            dag="trace", workflow_arrival="3@poisson:8@tenants:2", seed=11
        ),
        sim_kwargs=dict(
            time_to_failure=0.7, cluster="4g:1,6g:1", placement="best-fit"
        ),
    ),
}

#: Lap count per phase, plus popped events, of one profiled run per
#: mode.  Laps follow control flow, not the clock, so these repeat
#: exactly from run to run; a lap dropped from the loop, or moved to a
#: statement that runs a different number of times, changes them.
LAP_COUNTS = {
    "dag": dict(
        n_events=260, seed=1, heap=260, wave=260, arrival=3, size=11,
        place=492, dispatch=514, success=249, kill=8, collect=517,
        finalize=1,
    ),
    "dag-firstfit": dict(
        n_events=260, seed=1, heap=260, wave=260, arrival=3, size=11,
        place=492, dispatch=514, success=249, kill=8, collect=517,
        finalize=1,
    ),
    "flat-firstfit": dict(
        n_events=188, seed=1, heap=188, wave=188, arrival=83, size=28,
        place=274, dispatch=210, success=83, kill=22, collect=293,
        finalize=1,
    ),
    "flat-kills": dict(
        n_events=187, seed=1, heap=187, wave=187, arrival=83, size=16,
        place=287, dispatch=208, success=83, kill=21, collect=291,
        finalize=1,
    ),
    "flat-outage": dict(
        n_events=180, seed=1, heap=180, wave=180, arrival=83, size=32,
        place=238, dispatch=190, success=83, kill=11, outage=2,
        collect=272, finalize=1,
    ),
}


@pytest.mark.parametrize("mode", sorted(MODES))
def test_profiling_is_bit_for_bit_invisible(mode, tmp_path):
    spec = MODES[mode]
    base = _run(**spec)
    profiled_kwargs = dict(spec)
    profiled_kwargs["sim_kwargs"] = dict(
        spec["sim_kwargs"],
        profile=True,
        trace_path=str(tmp_path / "trace.json"),
    )
    profiled = _run(**profiled_kwargs)
    assert result_to_dict(base) == result_to_dict(profiled)
    assert base.profile is None
    profile = profiled.profile
    assert profile is not None
    assert profile.n_events > 0
    # The laps must tile the instrumented region: >= 95% of wall.
    assert profile.total_phase_seconds >= 0.95 * profile.wall_seconds
    # And never exceed it (beyond float noise).
    assert profile.total_phase_seconds <= profile.wall_seconds * 1.001
    assert set(profile.phases) <= set(PHASE_ORDER)
    calls = {name: stat.calls for name, stat in profile.phases.items()}
    assert dict(calls, n_events=profile.n_events) == LAP_COUNTS[mode]


def _golden_scenarios() -> dict:
    """The engine-regression suite's scenarios (its module is not a package)."""
    path = GOLDEN_DIR.parent / "sim" / "test_golden_regression.py"
    module_spec = importlib.util.spec_from_file_location(
        "golden_scenarios", path
    )
    mod = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(mod)
    return mod.SCENARIOS


GOLDEN_SCENARIOS = _golden_scenarios()


@pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
def test_profiling_preserves_committed_goldens(name):
    """Profile-on runs must reproduce the committed golden outputs."""
    spec = GOLDEN_SCENARIOS[name]
    trace = build_workflow_trace(
        spec["workflow"], seed=spec["trace_seed"], scale=spec["scale"]
    )
    backend = EventDrivenBackend(**spec["backend"])
    sim = OnlineSimulator(
        trace, backend=backend, profile=True, **spec["sim"]
    )
    result = sim.run(method_factories()[spec["method"]]())
    actual = json.loads(json.dumps(result_to_dict(result)))
    expected = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert actual == expected, f"profiling changed golden output for {name}"
    assert result.profile is not None


def test_kill_and_outage_phases_are_charged():
    """A run with kills and a drain charges every phase, kill and outage too."""
    spec = MODES["flat-outage"]
    kwargs = dict(spec)
    kwargs["sim_kwargs"] = dict(spec["sim_kwargs"], profile=True)
    result = _run(**kwargs)
    charged = [
        name for name, stat in result.profile.sorted_phases() if stat.calls
    ]
    assert charged == list(PHASE_ORDER)


def test_sharded_profiles_merge():
    from repro.sim.runner import run_sharded

    factory = method_factories()["Witt-Percentile"]
    trace = build_workflow_trace("iwd", seed=3, scale=0.05)
    res = run_sharded(
        trace,
        factory,
        shards=2,
        backend=EventDrivenBackend(profile=True),
        cluster="4g:2",
        n_workers=1,
    )
    assert res.profile is not None
    assert res.profile.n_runs == 2
    plain = run_sharded(
        trace, factory, shards=2, backend="event", cluster="4g:2", n_workers=1
    )
    assert plain.profile is None


def test_checkpoint_resume_keeps_profiling(tmp_path):
    """A profiled run paused and resumed still tiles its wall time."""
    from repro.sim.kernel.checkpoint import drive_kernel, load_checkpoint

    spec = MODES["flat-kills"]
    trace = build_workflow_trace(**spec["workflow_kwargs"])
    backend = EventDrivenBackend(**spec["backend_kwargs"], profile=True)
    predictor = method_factories()["Witt-Percentile"]()
    sim = OnlineSimulator(trace, backend=backend, **spec["sim_kwargs"])
    ckpt = str(tmp_path / "state.ckpt")
    paused = sim.run(predictor, checkpoint=ckpt, stop_after=0.002)
    assert paused is None
    kernel = load_checkpoint(ckpt)
    result = drive_kernel(kernel)
    assert result is not None and result.profile is not None
    profile = result.profile
    assert profile.total_phase_seconds >= 0.95 * profile.wall_seconds
