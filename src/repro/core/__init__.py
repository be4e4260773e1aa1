"""Sizey: the paper's contribution.

- :mod:`repro.core.config` -- :class:`SizeyConfig`, all hyper-parameters.
- :mod:`repro.core.scores` -- accuracy score (Eq. 1), efficiency score
  (Eq. 2), and the composite RAQ score (Eq. 3), the last two over the
  rows of a pool query.
- :mod:`repro.core.gating` -- Argmax and softmax Interpolation gating
  (Eq. 4) of every row of a pool query.
- :mod:`repro.core.offsets` -- the four fault-tolerance offset strategies
  and the dynamic least-wastage selection among them (§II-E).
- :mod:`repro.core.models` -- the four model classes (linear, KNN, MLP,
  random forest) wrapped as online-trainable slots with hyper-parameter
  caching.
- :mod:`repro.core.pool` -- the per-(task type, machine) model pool:
  prequential accuracy tracking, full or incremental retraining, and
  the columnar :class:`~repro.core.pool.PoolQuery` (rows are tasks,
  columns models) that scores and gates a batch in one pass.
- :mod:`repro.core.failure` -- max-observed-then-double failure handling.
- :mod:`repro.core.predictor` -- :class:`SizeyPredictor`, the public API.
- :mod:`repro.core.adaptive` -- adaptive-alpha extension (the paper's
  future-work idea, evaluated as an ablation).
"""

from repro.core.config import SizeyConfig
from repro.core.predictor import SizeyPredictor

__all__ = ["SizeyConfig", "SizeyPredictor"]
