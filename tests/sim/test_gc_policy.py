"""The kernel's collector policy: a raised young-GC threshold, scoped.

``SimulationKernel.run`` raises the young-generation threshold to
``GC_YOUNG_THRESHOLD`` for the whole call and puts the caller's
``gc.get_threshold()`` back on every exit: a finished run, a paused
``run(until=...)`` and an exception.  A caller who switched automatic
collection off keeps it off, and reference cycles a predictor makes are
still collected while the run goes on.
"""

import gc
import weakref

import pytest

from repro.cluster.manager import ResourceManager
from repro.sim.backends.event import EventDrivenBackend
from repro.sim.interface import MemoryPredictor
from repro.sim.kernel.core import GC_YOUNG_THRESHOLD
from repro.workflow.task import TaskInstance, TaskType, WorkflowTrace

#: A distinctive caller setting, below the kernel's young threshold.
CALLER = (500, 7, 9)


@pytest.fixture
def caller_thresholds():
    saved = gc.get_threshold()
    gc.set_threshold(*CALLER)
    try:
        yield
    finally:
        gc.set_threshold(*saved)


def _trace(n: int) -> WorkflowTrace:
    task_type = TaskType(name="t", workflow="wf", preset_memory_mb=4096.0)
    return WorkflowTrace(
        "wf",
        [
            TaskInstance(
                task_type=task_type,
                instance_id=i,
                input_size_mb=10.0,
                peak_memory_mb=100.0,
                runtime_hours=0.01,
            )
            for i in range(n)
        ],
    )


def _kernel(predictor: MemoryPredictor, n: int = 50):
    return EventDrivenBackend(arrival="fixed:0.001").build_kernel(
        _trace(n), predictor, ResourceManager(n_nodes=1), 1.0
    )


class _Recording(MemoryPredictor):
    """Records the thresholds it sees; raises at the ``fail_at``-th observe."""

    name = "recording"

    def __init__(self, fail_at: int | None = None) -> None:
        self.seen: set[tuple[int, int, int]] = set()
        self.observed = 0
        self.fail_at = fail_at

    def predict(self, task) -> float:
        self.seen.add(gc.get_threshold())
        return 200.0

    def observe(self, record) -> None:
        self.observed += 1
        if self.observed == self.fail_at:
            raise RuntimeError("predictor failed mid-run")


class _Cycle:
    def __init__(self) -> None:
        self.me = self


class _CycleMaker(MemoryPredictor):
    """Leaves one unreachable reference cycle behind per ``observe``."""

    name = "cycles"

    def __init__(self) -> None:
        self.made = 0
        self.freed = 0
        self.freed_at_end: int | None = None

    def predict(self, task) -> float:
        return 200.0

    def observe(self, record) -> None:
        weakref.finalize(_Cycle(), self._on_free)
        self.made += 1

    def _on_free(self) -> None:
        self.freed += 1

    def end_trace(self) -> None:
        self.freed_at_end = self.freed


@pytest.mark.usefixtures("caller_thresholds")
class TestScopedThreshold:
    def test_raised_during_run_and_restored_after(self):
        predictor = _Recording()
        assert _kernel(predictor).run() is not None
        assert predictor.seen == {(GC_YOUNG_THRESHOLD, *CALLER[1:])}
        assert gc.get_threshold() == CALLER

    def test_restored_after_a_paused_run(self):
        predictor = _Recording()
        kernel = _kernel(predictor)
        assert kernel.run(until=0.02) is None
        assert gc.get_threshold() == CALLER
        assert kernel.run() is not None
        assert gc.get_threshold() == CALLER
        assert predictor.seen == {(GC_YOUNG_THRESHOLD, *CALLER[1:])}

    def test_restored_after_the_predictor_raises(self):
        predictor = _Recording(fail_at=10)
        with pytest.raises(RuntimeError, match="mid-run"):
            _kernel(predictor).run()
        assert predictor.observed == 10
        assert gc.get_threshold() == CALLER

    def test_disabled_collection_stays_disabled(self):
        gc.set_threshold(0, *CALLER[1:])
        predictor = _Recording()
        assert _kernel(predictor).run() is not None
        assert predictor.seen == {(0, *CALLER[1:])}
        assert gc.get_threshold() == (0, *CALLER[1:])

    def test_predictor_cycles_are_collected_during_the_run(self):
        # More cycles than the raised threshold: young collections must
        # still run and free them before run() returns.
        predictor = _CycleMaker()
        n = GC_YOUNG_THRESHOLD + 1000
        assert _kernel(predictor, n).run() is not None
        assert predictor.made == n
        assert predictor.freed_at_end >= n - GC_YOUNG_THRESHOLD
