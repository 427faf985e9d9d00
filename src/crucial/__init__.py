"""Confidence-weighted loss family for time-series training.

The package has four layers:

* ``numerics``  -- array Lambert W plus its scalar reference, population loss
  moments, and a platform-stable seeded random source.
* ``loss``     -- the confidence-weighted loss family: closed-form confidence
  weights and the skewness-adaptive and sinusoidally cycled variants, over a
  whole epoch's losses at once (``modulate_epoch``) or one sample at a time,
  and the loss-trace writer, which streams a trace while training and whose
  chunk formatter ``tracetext`` also runs in bare helper interpreters, one
  per usable CPU.
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

from .numerics import (
    LossStats,
    SeededRng,
    derive_seed,
    lambert_w0,
    lambert_w0_array,
    loss_stats,
)
from .loss import (
    CrucialConfig,
    EpochState,
    LossTraceWriter,
    ModulatedLoss,
    Variant,
    advance_epoch_adp,
    baseline_confidence_loss,
    crucial_adp,
    crucial_sin,
    initial_epoch_state,
    kappa_star,
    modulate_epoch,
    modulated_value,
    write_loss_trace,
)
from .sampler import (
    ErrorReport,
    LossPopulation,
    Ordering,
    PopulationKind,
    SelectionCondition,
    SelectionMode,
    analytic_expected_errors,
    compare_conditions,
    distribution_cycle_sim,
    mc_expected_errors,
    ordering_check,
)
from .data import (
    CsvLoadResult,
    Dataset,
    TimeSeriesSample,
    gen_drift_classification,
    gen_sine_regression,
    load_csv,
    make_prefixes,
    save_csv,
)
from .trainer import (
    ElmanRNN,
    LinearModel,
    MLPModel,
    Model,
    TaskSpec,
    TrainResult,
    TrainingDiverged,
    TransferMatrix,
    auc_roc,
    bwt,
    evaluate,
    forward_backward,
    fwt,
    make_model,
    run_continuous,
    train_epoch,
    train_model,
    write_metrics_csv,
    write_transfer_json,
)

__version__ = "0.1.0"
