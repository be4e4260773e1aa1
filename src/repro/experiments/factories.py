"""Module-level predictor factories.

Factories (rather than instances) guarantee every (workflow, method)
cell starts untrained, and module-level functions are picklable so the
grid runner can fan out over processes.

Every factory returns a predictor speaking the v2 contract
(:mod:`repro.sim.interface`): per-task ``predict``, vectorized
``predict_batch``, and the trace lifecycle hooks — so any of them can be
run under either simulation backend (``run_grid(..., backend="event")``).
"""

from __future__ import annotations

from typing import Callable

from repro.baselines import (
    TovarPPM,
    WittLR,
    WittPercentile,
    WittWastage,
    WorkflowPresets,
)
from repro.core.config import SizeyConfig
from repro.core.predictor import SizeyPredictor
from repro.sim.interface import MemoryPredictor

__all__ = [
    "METHOD_ORDER",
    "make_sizey",
    "make_sizey_full",
    "make_sizey_argmax",
    "make_witt_wastage",
    "make_witt_lr",
    "make_tovar_ppm",
    "make_witt_percentile",
    "make_workflow_presets",
    "method_factories",
]

#: Plot/table ordering used throughout the paper's Fig. 8.
METHOD_ORDER = (
    "Sizey",
    "Witt-Wastage",
    "Witt-LR",
    "Tovar-PPM",
    "Witt-Percentile",
    "Workflow-Presets",
)


def make_sizey(**overrides) -> SizeyPredictor:
    """Paper configuration: alpha=0, Interpolation gating (§III-A).

    Incremental training is the default here: the paper shows it is
    ~98 % faster at a ~6 % wastage premium (§III-D), which is the right
    trade for a simulation harness replaying tens of thousands of tasks.
    Each incremental MLP update runs 5 Adam steps on the pool's last
    ``mlp_window`` (64) points (``MLPSlot.PARTIAL_FIT_STEPS``); changes to
    that step are judged by ``repro scorecard`` (docs/QUALITY.md).
    """
    cfg = dict(training_mode="incremental", alpha=0.0, gating="interpolation")
    cfg.update(overrides)
    return SizeyPredictor(SizeyConfig(**cfg))


def make_sizey_full() -> SizeyPredictor:
    """Fully retrained variant (Fig. 9's 'Sizey-Full')."""
    return make_sizey(training_mode="full")


def make_sizey_argmax() -> SizeyPredictor:
    """Argmax-gated variant (used for the Fig. 11 selection shares)."""
    return make_sizey(gating="argmax")


def make_witt_wastage() -> WittWastage:
    return WittWastage()


def make_witt_lr() -> WittLR:
    return WittLR()


def make_tovar_ppm() -> TovarPPM:
    return TovarPPM()


def make_witt_percentile() -> WittPercentile:
    return WittPercentile()


def make_workflow_presets() -> WorkflowPresets:
    return WorkflowPresets()


def method_factories() -> dict[str, Callable[[], MemoryPredictor]]:
    """All six methods of the paper's evaluation, in Fig. 8 order."""
    return {
        "Sizey": make_sizey,
        "Witt-Wastage": make_witt_wastage,
        "Witt-LR": make_witt_lr,
        "Tovar-PPM": make_tovar_ppm,
        "Witt-Percentile": make_witt_percentile,
        "Workflow-Presets": make_workflow_presets,
    }
