"""Confidence-weighted loss family.

Every variant shares one algebraic shell

    value = kappa * (l - eps) + lam * (ln kappa)^2

where l is a raw per-sample loss, eps a threshold that moves with the loss
population, and kappa a confidence weight chosen in closed form so the shell
is minimized over kappa in (0, e].  Samples with loss above the threshold get
kappa < 1 (down-weighted, "not yet trustworthy"), samples below get kappa > 1
up to a hard cap of e.

Two schedules move the threshold:

* the skewness-adaptive variant re-centers each epoch at
  skewness * mean of the previous epoch's losses, so the emphasis flips as
  the loss population's shape changes;
* the sinusoidally cycled variant sweeps a factor F = sin^2(omega*t + phase)
  through [0, 1], gating out easy samples when F is high and relaxing to a
  plain centered loss when F returns to 0.

Logs are natural throughout.

write_loss_trace records every sample's weight, threshold and value in every
epoch as CSV.  Long traces are formatted on every CPU the process may use:
the rows are split into contiguous ranges, the first formatted here and each
other one by a bare helper interpreter running crucial.tracetext, and the
file is byte-identical to a one-process write.
"""

from __future__ import annotations

import contextlib
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from . import tracetext
from .numerics import W_DOMAIN_MIN, lambert_w0, lambert_w0_array, loss_stats

__all__ = [
    "KAPPA_CAP",
    "CAP_BETA",
    "CrucialConfig",
    "EpochState",
    "KappaFormula",
    "ModulatedLoss",
    "Variant",
    "advance_epoch_adp",
    "baseline_confidence_loss",
    "crucial_adp",
    "crucial_sin",
    "initial_epoch_state",
    "kappa_and_value",
    "kappa_star",
    "modulate_epoch",
    "modulated_value",
    "shell_value",
    "write_loss_trace",
]

# The confidence weight is capped at e: beta = (l - eps)/lam at or below
# -2/e pins the constrained minimizer to the boundary kappa = e.
KAPPA_CAP = math.e
CAP_BETA = -2.0 * math.exp(-1.0)

# sin^2 factors closer than this to 0 or 1 take the exact limit branches.
_F_EPS = 1e-12

# The loss-trace writer gives each lane at least this many rows: a helper
# interpreter takes about 15 ms to start and a row about 5 us to format
# (2-core VM, Python 3.11), so a smaller range is done sooner in-process.
_TRACE_MIN_LANE_ROWS = 8192
# A helper keeps its range's input and text until it is done, about 150
# bytes a row, so a lane takes at most this many rows (about 40 MB) at a time.
_TRACE_MAX_LANE_ROWS = 1 << 18
_TRACE_HELPER = (sys.executable, "-I", "-S", tracetext.__file__)


class Variant(str, Enum):
    """Which schedule moves the threshold."""

    BASELINE = "baseline"  # fixed, caller-supplied threshold
    ADP = "adp"            # skewness-adaptive, re-centered each epoch
    SIN = "sin"            # sinusoidally cycled gate + threshold


class KappaFormula(str, Enum):
    """Closed form used for the confidence weight.

    ARGMIN is exp(-W(beta/2)), the exact minimizer of the shell over
    kappa in (0, e].  HALF_W is the legacy rendering exp(-W(beta)/2); it is
    kept as a compatibility mode and clamps beta at the W domain edge -1/e
    (below which it is not evaluable) instead of capping at -2/e.
    """

    ARGMIN = "argmin"
    HALF_W = "half_w"


@dataclass(frozen=True)
class CrucialConfig:
    """Configuration for one wrapped-loss schedule.

    lam is the regularization weight on (ln kappa)^2; the cycled variant
    ignores it and derives a per-epoch lam = -ln F instead.  mu_fixed pins
    the population mean used by the cycled variant; None means "use the
    current epoch's mean loss".  threshold only applies to the baseline
    variant.  theorem_mode asserts the regime lam <= 0.01 in which the
    sampling-error bounds of the sampler module are derived.
    """

    variant: Variant
    lam: float = 0.01
    omega: float = math.pi / 4
    phase: float = 0.0
    mu_fixed: float | None = None
    threshold: float = 0.0
    kappa_formula: KappaFormula = KappaFormula.ARGMIN
    theorem_mode: bool = False
    accumulate_stats: bool = False

    def __post_init__(self) -> None:
        if not math.isfinite(self.lam) or self.lam <= 0.0:
            raise ValueError("CrucialConfig: lam must be finite and > 0")
        if self.variant is Variant.SIN and self.omega == 0.0:
            raise ValueError("CrucialConfig: omega must be nonzero for the cycled variant")
        if self.theorem_mode and self.lam > 0.01:
            raise ValueError("CrucialConfig: theorem_mode requires lam <= 0.01")
        if self.mu_fixed is not None and self.mu_fixed <= 0.0:
            raise ValueError("CrucialConfig: a fixed mu must be positive")


@dataclass(frozen=True)
class ModulatedLoss:
    """Losses after confidence weighting, one entry per sample.

    modulate_epoch fills every field with an array of shape (n,) (bool for
    selected, float64 otherwise); the per-sample wrappers return the
    one-sample record as Python scalars.  gate is the selection bound of the
    cycled variant (-inf for variants that never drop samples).  kappa is
    also each sample's gradient factor: it is 0.0 exactly on the samples
    whose value is pinned to 0, unselected ones included.
    """

    input_loss: np.ndarray
    kappa: np.ndarray
    threshold: np.ndarray
    gate: np.ndarray
    value: np.ndarray
    selected: np.ndarray

    @staticmethod
    def concat(records) -> "ModulatedLoss":
        """One record holding the rows of several records, in order."""
        return ModulatedLoss(*(np.concatenate([getattr(r, f.name) for r in records])
                               for f in fields(ModulatedLoss)))


@dataclass(frozen=True)
class EpochState:
    """Threshold state carried between epochs.

    threshold is the adaptive eps used for every sample of epoch
    epoch_index (0 for the other variants).
    """

    epoch_index: int
    threshold: float


def kappa_star(loss: float, threshold: float, lam: float,
               formula: KappaFormula = KappaFormula.ARGMIN) -> float:
    """Closed-form confidence weight minimizing the shared loss shell.

    With beta = (loss - threshold) / lam, the ARGMIN form returns
    exp(-W(beta/2)), which solves d/dkappa [kappa*(l-eps) + lam*(ln kappa)^2]
    = 0; for beta <= -2/e the unconstrained stationary point exceeds the
    cap and the constrained minimizer sits at the boundary, so exactly e is
    returned.  kappa == 1.0 exactly when loss == threshold.  Result is
    always in (0, e].
    """
    if lam <= 0.0 or not math.isfinite(lam):
        raise ValueError("kappa_star: lam must be finite and > 0")
    beta = (loss - threshold) / lam
    if formula is KappaFormula.ARGMIN:
        if beta <= CAP_BETA:
            return KAPPA_CAP
        return math.exp(-lambert_w0(beta / 2.0))
    # Legacy half-W rendering, clamped at the W domain edge.
    return math.exp(-0.5 * lambert_w0(max(beta, W_DOMAIN_MIN)))


def modulated_value(loss: float, threshold: float, lam: float, kappa: float) -> float:
    """The family's shared shell: kappa*(loss - threshold) + lam*(ln kappa)^2."""
    if kappa <= 0.0:
        raise ValueError("modulated_value: kappa must be positive")
    log_k = math.log(kappa)
    return kappa * (loss - threshold) + lam * log_k * log_k


def initial_epoch_state() -> EpochState:
    """State for the first epoch: no previous population, threshold 0."""
    return EpochState(epoch_index=0, threshold=0.0)


def advance_epoch_adp(prev_losses, cfg: CrucialConfig, next_epoch_index: int = 1) -> EpochState:
    """Fold a finished epoch's raw losses into the next adaptive state.

    The next threshold is skewness * mean of the previous epoch's loss
    population; for a symmetric population it stays at 0, for a
    right-skewed one it moves up (down-weighting the still-hard tail), for
    a left-skewed one it moves below zero.  Degenerate all-equal losses
    have skewness 0 by convention, so the threshold collapses to 0.
    """
    stats = loss_stats(prev_losses)
    return EpochState(
        epoch_index=next_epoch_index,
        threshold=stats.skewness * stats.mean,
    )


def shell_value(gap, lam, kappa):
    """The shared shell kappa*gap + lam*(ln kappa)^2 over arrays, gap = l - eps."""
    log_k = np.log(kappa)
    return kappa * gap + lam * log_k * log_k


def kappa_and_value(losses, threshold, lam, formula: KappaFormula):
    """kappa_star and the shell value of every loss, as arrays.

    This is the kernel every wrapper runs; losses, threshold and lam
    broadcast against each other.  W is never evaluated on capped entries:
    they sit at or beyond the branch point, where it is undefined or slow.
    """
    gap = losses - threshold
    beta = gap / lam
    if formula is KappaFormula.ARGMIN:
        capped = beta <= CAP_BETA
        w = lambert_w0_array(np.where(capped, 0.0, beta / 2.0))
        kappa = np.where(capped, KAPPA_CAP, np.exp(-w))
    else:
        kappa = np.exp(-0.5 * lambert_w0_array(np.maximum(beta, W_DOMAIN_MIN)))
    return kappa, shell_value(gap, lam, kappa)


def _sin_cycle_factor(epoch: int, omega: float, phase: float) -> float:
    """sin^2(omega*epoch + phase), reduced modulo the integer period if any.

    sin^2 has period pi/|omega| in the epoch index.  When that period is an
    integer (within 1e-9), the epoch is reduced modulo it first, so epochs t
    and t + period produce bit-identical factors instead of drifting apart
    through rounding in the angle multiply.
    """
    period = math.pi / abs(omega)
    nearest = round(period)
    if nearest >= 1 and abs(period - nearest) < 1e-9:
        epoch = epoch % nearest
    s = math.sin(omega * epoch + phase)
    return s * s


def _sin_losses(losses: np.ndarray, epoch: int, mu_l: float, cfg: CrucialConfig) -> ModulatedLoss:
    """The cycled variant over one epoch's losses; see crucial_sin."""
    if not math.isfinite(mu_l) or mu_l <= 0.0:
        raise ValueError("crucial_sin: mu_l must be finite and positive")
    f = _sin_cycle_factor(epoch, cfg.omega, cfg.phase)
    gate = 0.5 * f * mu_l
    thr = (f - 1.0) * mu_l
    n = losses.shape[0]
    selected = ~(losses < gate)
    if f <= _F_EPS:
        # lam_t -> inf limit: unit weight, plain centered loss.
        kappa, threshold, value = np.ones(n), mu_l, losses - mu_l
    elif f >= 1.0 - _F_EPS:
        # lam_t -> 0 limit: survivors contribute nothing this epoch.
        kappa, threshold, value = np.zeros(n), 0.0, np.zeros(n)
    else:
        kappa, value = kappa_and_value(losses, thr, -math.log(f), cfg.kappa_formula)
        threshold = thr
    return ModulatedLoss(
        input_loss=losses,
        kappa=np.where(selected, kappa, 0.0),
        threshold=np.where(selected, threshold, thr),
        gate=np.full(n, gate),
        value=np.where(selected, value, 0.0),
        selected=selected,
    )


def modulate_epoch(losses, state: EpochState, cfg: CrucialConfig | None) -> ModulatedLoss:
    """Wrap one epoch's raw losses under cfg; returns one record of arrays.

    BASELINE weighs every loss against cfg.threshold, ADP against
    state.threshold, and SIN follows its cycle at state.epoch_index with
    mu = cfg.mu_fixed, or the epoch's mean loss when that is None.  With no
    wrapper (cfg None) the record is neutral: kappa 1, threshold 0, value =
    loss, every sample selected, so wrapped and unwrapped training share the
    identical update arithmetic.
    """
    losses = np.asarray(losses, dtype=np.float64)
    n = losses.shape[0]
    if cfg is None:
        kappa, threshold, value = np.ones(n), 0.0, losses
    elif cfg.variant is Variant.SIN:
        mu = cfg.mu_fixed if cfg.mu_fixed is not None else float(np.mean(losses))
        return _sin_losses(losses, state.epoch_index, mu, cfg)
    else:
        threshold = state.threshold if cfg.variant is Variant.ADP else cfg.threshold
        kappa, value = kappa_and_value(losses, threshold, cfg.lam, cfg.kappa_formula)
    return ModulatedLoss(losses, kappa, np.full(n, threshold), np.full(n, -math.inf),
                         value, np.ones(n, dtype=bool))


def _single(m: ModulatedLoss) -> ModulatedLoss:
    """The record of a one-sample epoch as Python scalars."""
    return ModulatedLoss(*(getattr(m, f.name)[0].item() for f in fields(ModulatedLoss)))


def crucial_adp(loss: float, state: EpochState, cfg: CrucialConfig) -> ModulatedLoss:
    """Skewness-adaptive wrapped loss for one sample.

    Modulates every sample (never hard-drops): kappa comes from the closed
    form against the epoch's adaptive threshold, and the value is the
    shared shell.
    """
    if cfg.variant is not Variant.ADP:
        raise ValueError("crucial_adp: config variant must be ADP")
    return _single(modulate_epoch([loss], state, cfg))


def crucial_sin(loss: float, epoch: int, mu_l: float, cfg: CrucialConfig) -> ModulatedLoss:
    """Sinusoidally cycled wrapped loss for one sample.

    The cycle factor F = sin^2(omega*epoch + phase) drives everything:

    * samples with loss below the gate F*mu_l/2 are dropped for this epoch
      (selected False, value 0, kappa 0);
    * otherwise the threshold is (F - 1)*mu_l and the regularization weight
      is lam_t = -ln F, so hard epochs (F near 1) gate aggressively while
      easy epochs relax;
    * at F == 0 the limit lam_t -> inf pins kappa to 1 and the value
      degenerates to the plain centered loss l - mu_l;
    * at F == 1 the limit lam_t -> 0 zeroes the value of every sample that
      survives the gate (kappa 0 is the explicit zero-weight flag, selected
      stays True).

    mu_l is the population mean loss under the configured policy and must
    be positive (an all-zero epoch has no usable scale).
    """
    if cfg.variant is not Variant.SIN:
        raise ValueError("crucial_sin: config variant must be SIN")
    return _single(_sin_losses(np.array([loss], dtype=np.float64), epoch, mu_l, cfg))


def baseline_confidence_loss(loss: float, threshold: float, lam: float,
                             formula: KappaFormula = KappaFormula.ARGMIN) -> ModulatedLoss:
    """Confidence weighting against a fixed, caller-supplied threshold."""
    cfg = CrucialConfig(Variant.BASELINE, lam=lam, threshold=threshold, kappa_formula=formula)
    return _single(modulate_epoch([loss], initial_epoch_state(), cfg))


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _write_trace_rows(fh, cols, start: int, stop: int) -> None:
    """Write the text of rows [start, stop) to fh, one contiguous range per lane.

    This process formats the first range; each other range goes to a helper
    interpreter that is sent its rows as raw column buffers straight from
    the arrays.  The helpers' text is then copied into fh in row order.
    """
    n = stop - start
    lanes = max(1, min(_usable_cpus(), n // _TRACE_MIN_LANE_ROWS))
    bounds = [start + n * i // lanes for i in range(lanes + 1)]
    helpers = []
    try:
        for _ in range(lanes - 1):  # all started before any is fed, so start-ups overlap
            helpers.append(subprocess.Popen(_TRACE_HELPER, stdin=subprocess.PIPE,
                                            stdout=subprocess.PIPE))
        for proc, a, b in zip(helpers, bounds[1:], bounds[2:]):
            try:
                proc.stdin.writelines(c[a:b] for c in cols)
                proc.stdin.close()
            except BrokenPipeError:
                pass  # the helper has gone; its exit status is checked below
        fh.writelines(tracetext.encoded_chunks(cols, cols[4].view(np.int64), start, bounds[1]))
        for proc in helpers:
            shutil.copyfileobj(proc.stdout, fh)
            if proc.wait() != 0:
                raise RuntimeError(f"write_loss_trace: a helper lane exited with "
                                   f"status {proc.returncode}")
    finally:
        for proc in helpers:
            proc.kill()  # a no-op once the helper has been waited for
            for pipe in (proc.stdin, proc.stdout):
                with contextlib.suppress(BrokenPipeError):  # input a dead helper never read
                    pipe.close()
            proc.wait()


def write_loss_trace(path, epochs, sample_ids, modulated: ModulatedLoss) -> None:
    """Write one CSV row per sample-epoch, formatting on every usable CPU.

    epochs and sample_ids hold integers (anything else raises ValueError
    naming the column), and they and every field of modulated hold one entry
    per row.  Columns are (epoch, sample_id, input_loss, kappa, threshold,
    value, selected); floats are written with repr so a reload round-trips
    bit-exactly, and every line ends in \\r\\n.

    The rows are split into contiguous ranges, one per lane: this process
    and one helper interpreter (crucial.tracetext, standard library only)
    per further CPU, with at least _TRACE_MIN_LANE_ROWS rows per lane, so
    short traces never leave the process.  This process formats the first
    range and copies the helpers' text into the file in row order, so the
    bytes are the same for any number of lanes.  Every lane formats
    CHUNK_ROWS rows at a time; this process holds one chunk's text at a
    time, and a helper its whole range's, so traces longer than
    _TRACE_MAX_LANE_ROWS rows per lane are written in blocks of that many.
    A helper that fails makes this raise RuntimeError, and no helper
    outlives the call.
    """
    m = modulated
    cols = [np.asarray(c) for c in (epochs, sample_ids, m.input_loss, m.kappa,
                                    m.threshold, m.value, m.selected)]
    if len({c.shape for c in cols}) != 1 or cols[0].ndim != 1:
        raise ValueError("write_loss_trace: columns disagree on the number of rows")
    for name, c in zip(("epochs", "sample_ids"), cols):
        if c.dtype.kind not in "iu" or not np.can_cast(c.dtype, np.int64):
            raise ValueError(f"write_loss_trace: {name} must hold int64 integers, "
                             f"not {c.dtype}")
    cols[-1] = cols[-1].astype(bool, copy=False)
    cols = [np.ascontiguousarray(c, dtype=code) for c, (_, code) in zip(cols, tracetext.COLUMNS)]
    n = cols[0].size
    block = _usable_cpus() * _TRACE_MAX_LANE_ROWS
    with open(path, "wb") as fh:
        fh.write(tracetext.HEADER)
        for start in range(0, n, block):
            _write_trace_rows(fh, cols, start, min(start + block, n))
