"""Sizey configuration.

Defaults follow the paper's experimental setup (§III-A): all four model
classes, ``alpha = 0.0``, the Interpolation gating strategy, the dynamic
offset strategy, and per-(task type, machine) model granularity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["SizeyConfig"]

_GATINGS = ("interpolation", "argmax")
_OFFSETS = ("dynamic", "std", "std_under", "median", "median_under", "none")
_MODES = ("full", "incremental")
_GRANULARITIES = ("task_machine", "task")
_ACCURACY_MODES = ("prequential", "retrospective")
_MODEL_CLASSES = ("linear", "knn", "mlp", "random_forest")


@dataclass
class SizeyConfig:
    """All Sizey hyper-parameters.

    Attributes
    ----------
    alpha:
        RAQ mixing weight (Eq. 3): 0 favours accurate models, 1 punishes
        outlying large estimates.  Paper experiments use 0.0.
    gating:
        ``"interpolation"`` (softmax consensus, Eq. 4 — the paper's main
        setting) or ``"argmax"`` (winner takes all).
    beta:
        Softmax sharpness for the interpolation strategy, ``beta >= 1``.
    offset_strategy:
        One of the four offset statistics, ``"dynamic"`` (online
        least-wastage selection among them, the paper's setting), or
        ``"none"`` (raw predictions — used for Fig. 12).
    offset_window:
        Sliding-window length for the offset statistics, so early-phase
        transients do not inflate offsets for the whole workflow.
    accuracy_window:
        Number of recent prequential terms the accuracy score (Eq. 1)
        averages over (``None`` = full history).  A finite window lets
        late-blooming models overtake early winners in the gating.
    training_mode:
        ``"full"`` retrains every model from scratch after each task
        completion (with periodic hyper-parameter optimisation);
        ``"incremental"`` performs lightweight update steps and caches
        the best hyper-parameters (§III-D): recursive least squares,
        a KNN sample append, 5 Adam steps for the MLP and a forest
        refit every ``rf_refit_interval`` updates, the last two on the
        ``mlp_window`` sliding window.
    hpo_interval:
        Full mode: run grid-search HPO every N-th update (the first fit
        always optimises); between HPO rounds the cached best parameters
        are reused.
    min_history:
        Minimum completed executions of a (task type, machine) pair
        before models are trusted; below this the user preset is used.
    granularity:
        ``"task_machine"`` (paper's choice, Fig. 4 green box) trains one
        pool per (task type, machine) pair; ``"task"`` pools all machines
        together (ablation).
    model_classes:
        Which of the four model families to include.
    time_to_failure:
        Assumed failure point used when the dynamic offset selection
        replays hypothetical wastage.
    mlp_window:
        Incremental mode: the sliding window the pool hands every slot,
        its last ``mlp_window`` points.  The MLP's partial fits and the
        periodic random-forest refits both train on it.
    rf_refit_interval:
        Incremental mode: refit the forest every N-th update.
    random_state:
        Seed for all stochastic model components.
    """

    alpha: float = 0.0
    gating: str = "interpolation"
    beta: float = 25.0
    offset_strategy: str = "dynamic"
    offset_window: int = 128
    accuracy_window: int | None = 50
    training_mode: str = "full"
    hpo_interval: int = 25
    min_history: int = 1
    granularity: str = "task_machine"
    model_classes: tuple[str, ...] = _MODEL_CLASSES
    accuracy_mode: str = "prequential"
    time_to_failure: float = 1.0
    mlp_window: int = 64
    rf_refit_interval: int = 16
    random_state: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.gating not in _GATINGS:
            raise ValueError(f"gating must be one of {_GATINGS}, got {self.gating!r}")
        if self.beta < 1.0:
            raise ValueError(f"beta must be >= 1 (paper: beta in [1, inf)), got {self.beta}")
        if self.offset_strategy not in _OFFSETS:
            raise ValueError(
                f"offset_strategy must be one of {_OFFSETS}, got {self.offset_strategy!r}"
            )
        if self.training_mode not in _MODES:
            raise ValueError(
                f"training_mode must be one of {_MODES}, got {self.training_mode!r}"
            )
        if self.hpo_interval < 1:
            raise ValueError(f"hpo_interval must be >= 1, got {self.hpo_interval}")
        if self.min_history < 1:
            raise ValueError(f"min_history must be >= 1, got {self.min_history}")
        if self.granularity not in _GRANULARITIES:
            raise ValueError(
                f"granularity must be one of {_GRANULARITIES}, got {self.granularity!r}"
            )
        if self.accuracy_mode not in _ACCURACY_MODES:
            raise ValueError(
                f"accuracy_mode must be one of {_ACCURACY_MODES}, "
                f"got {self.accuracy_mode!r}"
            )
        # Model-class names are validated at pool-build time so that
        # custom classes registered via repro.core.models.register_slot
        # remain usable.
        if not self.model_classes:
            raise ValueError("at least one model class is required")
        if not 0.0 < self.time_to_failure <= 1.0:
            raise ValueError(
                f"time_to_failure must be in (0, 1], got {self.time_to_failure}"
            )
        if self.mlp_window < 1 or self.rf_refit_interval < 1:
            raise ValueError("window/interval parameters must be >= 1")
        if self.offset_window < 1:
            raise ValueError(f"offset_window must be >= 1, got {self.offset_window}")
        if self.accuracy_window is not None and self.accuracy_window < 1:
            raise ValueError(
                f"accuracy_window must be >= 1 or None, got {self.accuracy_window}"
            )
