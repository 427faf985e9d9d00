"""Confidence-weighted loss family for time-series training.

The package has four layers:

* ``numerics``  -- array Lambert W plus its scalar reference, population loss
  moments, and a platform-stable seeded random source.
* ``loss``     -- the confidence-weighted loss family: closed-form confidence
  weights and the skewness-adaptive and sinusoidally cycled variants, over a
  whole epoch's losses at once (``modulate_epoch``) or one sample at a time,
  and the loss-trace writer, which streams a trace while training as packed
  rows, whose chunk formatter ``tracetext`` also runs in bare helper
  interpreters, one per usable CPU.
* ``sampler``  -- expected squared sampling error under uniform versus
  exponentially tilted selection, analytic and Monte Carlo, plus a toy
  selection/decay population simulator.
* ``data`` / ``trainer`` -- datasets held as arrays, synthetic time-series
  generators, CSV interchange, prefix views, small numpy models on one flat
  parameter layout, the training loop that folds the per-sample gradient
  factors into one backward pass, and backward/forward transfer metrics.

``properties`` packages the executable invariant suites and ``cli`` exposes
everything as subcommands.
"""

# Each module's ``__all__`` is its public API; the root re-exports them all.
from .numerics import *
from .loss import *
from .sampler import *
from .data import *
from .trainer import *

__version__ = "0.1.0"
