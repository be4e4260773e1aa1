"""State-of-the-art baselines the paper compares against (§III-B).

- :class:`WorkflowPresets` -- the developer-provided memory defaults
  (sanity baseline; never fails, wastes the most).
- :class:`TovarPPM` -- Tovar et al. [31]: allocation chosen from the
  historical peak distribution to minimise expected waste; on failure,
  a node's maximum memory is allocated.
- :class:`WittWastage` -- Witt et al. [18]: quantile regression lines
  selected by lowest historical wastage; doubles on failure.
- :class:`WittPercentile` -- Witt et al. [32]: conservative 95th
  percentile of historical peaks.
- :class:`WittLR` -- Witt et al. [32]: linear regression on input size
  plus a residual offset.

All baselines implement :class:`repro.sim.interface.MemoryPredictor`, so
the simulator treats them identically to Sizey.
"""

from repro.baselines.presets import WorkflowPresets
from repro.baselines.tovar import TovarPPM
from repro.baselines.witt_lr import WittLR
from repro.baselines.witt_percentile import WittPercentile
from repro.baselines.witt_wastage import WittWastage

__all__ = [
    "WorkflowPresets",
    "TovarPPM",
    "WittWastage",
    "WittPercentile",
    "WittLR",
]
