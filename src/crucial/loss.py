"""Confidence-weighted loss family.

Every variant shares one algebraic shell

    value = kappa * (l - eps) + lam * (ln kappa)^2

where l is a raw per-sample loss, eps a threshold that moves with the loss
population, and kappa a confidence weight chosen in closed form so the shell
is minimized over kappa in (0, e].  There is one closed form, SuperLoss's
kappa = exp(-W(max(-2/e, beta)/2)) with beta = (l - eps)/lam (Castells,
Weinzaepfel & Revaud, NeurIPS 2020).  Samples with loss above the threshold
get kappa < 1 (down-weighted, "not yet trustworthy"), samples below get
kappa > 1 up to a hard cap of e.

Two schedules move the threshold, and modulate_epoch applies both:

* the skewness-adaptive variant re-centers each epoch at
  skewness * mean of the previous epoch's raw losses (0 in a first epoch),
  so the emphasis flips as the loss population's shape changes;
* the sinusoidally cycled variant sweeps a factor F = sin^2(omega*t + phase)
  through [0, 1], gating out easy samples when F is high and relaxing to a
  plain centered loss when F returns to 0.

Logs are natural throughout.

LossTraceWriter records every sample's weight, threshold and value in every
epoch as CSV, streamed while training hands it one epoch at a time;
write_loss_trace is one append on it, which packs its rows once as
crucial.tracetext lays them out.  Long traces are formatted on every CPU the
process may use: each block of packed rows is sent as it arrives to a bare
helper interpreter of its own running crucial.tracetext, which formats it as
soon as it is complete, so this process holds no trace rows, and the file is
byte-identical to a one-process write.
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
from scipy.special import wrightomega

from . import tracetext
from .numerics import lambert_w0, lambert_w0_array, loss_stats

__all__ = [
    "KAPPA_CAP",
    "CAP_BETA",
    "CrucialConfig",
    "LossTraceWriter",
    "ModulatedLoss",
    "Variant",
    "advance_epoch_adp",
    "crucial_adp",
    "crucial_sin",
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

# A capped weight's value e*(l - threshold) + lam stays finite for every
# loss l >= 0 only while the threshold is at most this.
_MAX_THRESHOLD = sys.float_info.max / KAPPA_CAP

# sin^2 factors closer than this to 0 or 1 take the exact limit branches.
_F_EPS = 1e-12

# The loss-trace writer gives each helper at least this many rows: a helper
# interpreter takes about 14 ms to start and exit and a row 4.5-5 us to
# format (2-core VM, Python 3.11), so a smaller trace is done sooner
# in-process.
_TRACE_MIN_BLOCK_ROWS = 8192
# A helper keeps its block's input and text until the writer reads it,
# about 130 bytes a row (56 of them packed input), so a block has at most
# this many rows (about 34 MB in a helper).
_TRACE_MAX_BLOCK_ROWS = 1 << 18
_TRACE_HELPER = (sys.executable, "-I", "-S", tracetext.__file__)


class Variant(str, Enum):
    """Which schedule moves the threshold."""

    BASELINE = "baseline"  # fixed, caller-supplied threshold
    ADP = "adp"            # skewness-adaptive, re-centered each epoch
    SIN = "sin"            # sinusoidally cycled gate + threshold


@dataclass(frozen=True)
class CrucialConfig:
    """Configuration for one wrapped-loss schedule.

    lam is the regularization weight on (ln kappa)^2; the cycled variant
    ignores it and derives a per-epoch lam = -ln F instead.  mu_fixed pins
    the population mean used by the cycled variant; None means "use the
    current epoch's mean loss".  threshold only applies to the baseline
    variant; it may be at most float max / e, above which the value of a
    capped non-negative loss overflows.  Every value must be finite,
    whichever variant reads it.
    """

    variant: Variant
    lam: float = 0.01
    omega: float = math.pi / 4
    phase: float = 0.0
    mu_fixed: float | None = None
    threshold: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.lam) or self.lam <= 0.0:
            raise ValueError("CrucialConfig: lam must be finite and > 0")
        for name in ("omega", "phase", "threshold"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"CrucialConfig: {name} must be finite")
        if self.threshold > _MAX_THRESHOLD:
            raise ValueError(f"CrucialConfig: threshold must be <= float max / e, "
                             f"got {self.threshold!r}")
        if self.variant is Variant.SIN and self.omega == 0.0:
            raise ValueError("CrucialConfig: omega must be nonzero for the cycled variant")
        if self.mu_fixed is not None and not (math.isfinite(self.mu_fixed) and self.mu_fixed > 0.0):
            raise ValueError("CrucialConfig: a fixed mu must be finite and positive")


@dataclass(frozen=True)
class ModulatedLoss:
    """Losses after confidence weighting, one entry per sample.

    modulate_epoch fills every field with an array of shape (n,) (bool for
    selected, float64 otherwise); the per-sample wrappers return the
    one-sample record as Python scalars.  selected is False only where the
    cycled variant's gate dropped the sample.  kappa is also each sample's
    gradient factor: it is 0.0 exactly on the samples whose value is pinned
    to 0, unselected ones included.
    """

    input_loss: np.ndarray
    kappa: np.ndarray
    threshold: np.ndarray
    value: np.ndarray
    selected: np.ndarray


def kappa_star(loss: float, threshold: float, lam: float) -> float:
    """Closed-form confidence weight minimizing the shared loss shell.

    With beta = (loss - threshold) / lam this is SuperLoss's closed form
    exp(-W(beta/2)), which solves d/dkappa [kappa*(l-eps) + lam*(ln kappa)^2]
    = 0; for beta <= -2/e the unconstrained stationary point exceeds the
    cap and the constrained minimizer sits at the boundary, so exactly e is
    returned.  kappa == 1.0 exactly when loss == threshold.  Result is
    always in (0, e].
    """
    if lam <= 0.0 or not math.isfinite(lam):
        raise ValueError("kappa_star: lam must be finite and > 0")
    beta = (loss - threshold) / lam
    if beta <= CAP_BETA:
        return KAPPA_CAP
    return math.exp(-lambert_w0(beta / 2.0))


def modulated_value(loss: float, threshold: float, lam: float, kappa: float) -> float:
    """The family's shared shell: kappa*(loss - threshold) + lam*(ln kappa)^2."""
    if kappa <= 0.0:
        raise ValueError("modulated_value: kappa must be positive")
    log_k = math.log(kappa)
    return kappa * (loss - threshold) + lam * log_k * log_k


def advance_epoch_adp(prev_losses) -> float:
    """The adaptive threshold that follows an epoch with these raw losses.

    It is skewness * mean of the previous epoch's loss population; for a
    symmetric population it stays at 0, for a right-skewed one it moves up
    (down-weighting the still-hard tail), for a left-skewed one it moves
    below zero.  Degenerate all-equal losses have skewness 0 by convention,
    so the threshold collapses to 0.
    """
    stats = loss_stats(prev_losses)
    return stats.skewness * stats.mean


def shell_value(gap, lam, kappa):
    """The shared shell kappa*gap + lam*(ln kappa)^2 over arrays, gap = l - eps."""
    log_k = np.log(kappa)
    return kappa * gap + lam * log_k * log_k


def kappa_and_value(losses, threshold, lam):
    """kappa_star and the shell value of every loss, as arrays.

    This is the kernel every wrapper runs; losses, threshold and lam
    broadcast against each other.  W is never evaluated on capped entries:
    they sit at or beyond the branch point, where it is undefined or slow.
    Where beta = gap/lam overflows to +inf (a tiny lam or a far threshold),
    w = W(beta/2) is the Wright omega function of ln(gap) - ln(2*lam)
    instead, since W(x) = omega(ln x); there kappa = exp(-w) and, because
    kappa*gap = 2*lam*w at the minimizer, the value is lam*w*(w + 2).  A
    beta of -inf is capped like any other beta below the branch point.
    """
    gap = losses - threshold
    with np.errstate(over="ignore"):
        beta = gap / lam
    capped = beta <= CAP_BETA
    huge = beta == np.inf
    w = lambert_w0_array(np.where(capped | huge, 0.0, beta / 2.0))
    kappa = np.where(capped, KAPPA_CAP, np.exp(-w))
    value = shell_value(gap, lam, kappa)
    if huge.any():
        with np.errstate(divide="ignore", invalid="ignore"):  # only huge entries are kept
            w = wrightomega(np.log(gap) - np.log(2.0 * lam))
        kappa = np.where(huge, np.exp(-w), kappa)
        value = np.where(huge, lam * w * (w + 2.0), value)
    return kappa, value


def _sin_cycle_factor(epoch: int, omega: float, phase: float) -> float:
    """sin^2(omega*epoch + phase), reduced modulo the integer period if any.

    sin^2 has period pi/|omega| in the epoch index.  When that period is an
    integer (within 1e-9), the epoch is reduced modulo it first, so epochs t
    and t + period produce bit-identical factors instead of drifting apart
    through rounding in the angle multiply.  A period that overflows (a
    subnormal omega) is no integer.
    """
    period = math.pi / abs(omega)
    nearest = round(period) if math.isfinite(period) else 0
    if nearest >= 1 and abs(period - nearest) < 1e-9:
        epoch = epoch % nearest
    s = math.sin(omega * epoch + phase)
    return s * s


def _sin_losses(losses: np.ndarray, epoch: int, mu_l: float, cfg: CrucialConfig) -> ModulatedLoss:
    """The cycled variant over one epoch's losses; see crucial_sin."""
    if not math.isfinite(mu_l) or mu_l < 0.0:
        raise ValueError("crucial_sin: mu_l must be finite and >= 0")
    f = _sin_cycle_factor(epoch, cfg.omega, cfg.phase)
    thr = (f - 1.0) * mu_l
    n = losses.shape[0]
    selected = ~(losses < 0.5 * f * mu_l)
    if f <= _F_EPS:
        # Unit weight against +mu_l: the plain centered loss.  The general
        # branch tends to threshold -mu_l and value l + mu_l as f -> 0 instead.
        kappa, threshold, value = np.ones(n), mu_l, losses - mu_l
    elif f >= 1.0 - _F_EPS:
        # lam_t -> 0 limit: survivors contribute nothing this epoch.
        kappa, threshold, value = np.zeros(n), 0.0, np.zeros(n)
    else:
        kappa, value = kappa_and_value(losses, thr, -math.log(f))
        threshold = thr
    return ModulatedLoss(
        input_loss=losses,
        kappa=np.where(selected, kappa, 0.0),
        threshold=np.where(selected, threshold, thr),
        value=np.where(selected, value, 0.0),
        selected=selected,
    )


def modulate_epoch(losses, cfg: CrucialConfig | None, epoch: int = 0,
                   prev_losses=None) -> ModulatedLoss:
    """Wrap one epoch's raw losses under cfg; returns one record of arrays.

    BASELINE weighs every loss against cfg.threshold.  ADP weighs them
    against advance_epoch_adp(prev_losses), prev_losses being the previous
    epoch's raw losses, or against 0 when there are none (a first epoch).
    SIN follows its cycle at epoch index epoch with mu = cfg.mu_fixed, or the
    epoch's mean loss when that is None.  With no wrapper (cfg None) the
    record is neutral: kappa 1, threshold 0, value = loss, every sample
    selected, so wrapped and unwrapped training share the identical update
    arithmetic.
    """
    losses = np.asarray(losses, dtype=np.float64)
    n = losses.shape[0]
    if cfg is None:
        kappa, threshold, value = np.ones(n), 0.0, losses
    elif cfg.variant is Variant.SIN:
        mu = cfg.mu_fixed if cfg.mu_fixed is not None else float(np.mean(losses))
        return _sin_losses(losses, epoch, mu, cfg)
    else:
        if cfg.variant is Variant.BASELINE:
            threshold = cfg.threshold
        else:
            threshold = 0.0 if prev_losses is None else advance_epoch_adp(prev_losses)
        kappa, value = kappa_and_value(losses, threshold, cfg.lam)
    return ModulatedLoss(losses, kappa, np.full(n, threshold), value, np.ones(n, dtype=bool))


def _single(m: ModulatedLoss) -> ModulatedLoss:
    """The record of a one-sample epoch as Python scalars."""
    return ModulatedLoss(*(getattr(m, f.name)[0].item() for f in fields(ModulatedLoss)))


def crucial_adp(loss: float, prev_losses, cfg: CrucialConfig) -> ModulatedLoss:
    """Skewness-adaptive wrapped loss for one sample.

    Modulates every sample (never hard-drops): kappa comes from the closed
    form against the adaptive threshold that prev_losses, the previous
    epoch's raw losses, set (0 when None), and the value is the shared shell.
    """
    if cfg.variant is not Variant.ADP:
        raise ValueError("crucial_adp: config variant must be ADP")
    return _single(modulate_epoch([loss], cfg, prev_losses=prev_losses))


def crucial_sin(loss: float, epoch: int, mu_l: float, cfg: CrucialConfig) -> ModulatedLoss:
    """Sinusoidally cycled wrapped loss for one sample.

    The cycle factor F = sin^2(omega*epoch + phase) drives everything:

    * samples with loss below the gate F*mu_l/2 are dropped for this epoch
      (selected False, value 0, kappa 0);
    * otherwise the threshold is (F - 1)*mu_l and the regularization weight
      is lam_t = -ln F, so hard epochs (F near 1) gate aggressively while
      easy epochs relax;
    * at F == 0 (within 1e-12) every sample gets kappa 1 against the
      threshold +mu_l, so the value is the plain centered loss l - mu_l.
      This is not the limit of the rule above as F -> 0, whose threshold
      (F - 1)*mu_l tends to -mu_l and whose value tends to l + mu_l;
    * at F == 1 the limit lam_t -> 0 zeroes the value of every sample that
      survives the gate (kappa 0 is the explicit zero-weight flag, selected
      stays True).

    mu_l is the population mean loss under the configured policy and must
    be finite and >= 0.  mu_l == 0 (every loss of the epoch zero, or -0.0
    from a saturated softmax) needs no branch of its own: a zero loss gets
    kappa 1 (0 at F == 1) and value 0.
    """
    if cfg.variant is not Variant.SIN:
        raise ValueError("crucial_sin: config variant must be SIN")
    return _single(_sin_losses(np.array([loss], dtype=np.float64), epoch, mu_l, cfg))


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class LossTraceWriter:
    """A loss-trace CSV file of n_rows rows, written while its rows arrive.

    Used as a context manager; append(epochs, sample_ids, record) takes the
    next rows in file order, any number at a time, in write_loss_trace's
    columns.  n_rows fixes the plan up front: one lane per usable CPU with
    at least _TRACE_MIN_BLOCK_ROWS rows each.  With one lane the trace is
    formatted here, straight into the file.  Otherwise it is cut into blocks
    of min(_TRACE_MAX_BLOCK_ROWS, ceil(n_rows / lanes)) rows, and each
    block's first row starts a helper of its own: the block's packed rows go
    to it as they arrive, and its stdin closes with the block's last row, so
    it formats while training goes on.  Starting a block while a helper per CPU
    is open first copies the oldest helper's text into the trace; leaving
    the with block copies the rest, in row order.  This process keeps no
    trace rows.  Entering the with block creates the file and writes its
    header, so a bad path fails there.  Appending more rows than n_rows, or
    leaving the with block with fewer, raises ValueError; a helper that
    fails raises RuntimeError.  On any exception in the with block every
    helper is killed and reaped and the file is removed.
    """

    def __init__(self, path, n_rows: int):
        self._path = path
        self._n_rows = n_rows
        self._cpus = _usable_cpus()
        lanes = min(self._cpus, n_rows // _TRACE_MIN_BLOCK_ROWS)
        # the rows of each helper's block; None formats the trace in this process
        self._block = min(_TRACE_MAX_BLOCK_ROWS, -(-n_rows // lanes)) if lanes > 1 else None
        self._rows = 0        # rows appended so far
        self._fh = None       # the file, once the with block is entered
        self._helpers = []    # the open helpers, oldest first

    def __enter__(self) -> "LossTraceWriter":
        self._fh = open(self._path, "wb")
        self._fh.write(tracetext.HEADER)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                if self._rows != self._n_rows:
                    raise ValueError(f"LossTraceWriter: {self._rows} rows appended, "
                                     f"{self._n_rows} declared")
                while self._helpers:
                    self._copy_oldest()
                self._fh.close()  # an empty trace is its header alone
                return
        except BaseException:
            self._discard()
            raise
        self._discard()

    def append(self, epochs, sample_ids, modulated: ModulatedLoss) -> None:
        """Write rows of the trace: the next ones in file order."""
        m = modulated
        cols = [np.asarray(c) for c in (epochs, sample_ids, m.input_loss, m.kappa,
                                        m.threshold, m.value, m.selected)]
        if len({c.shape for c in cols}) != 1 or cols[0].ndim != 1:
            raise ValueError("LossTraceWriter: columns disagree on the number of rows")
        for name, c in zip(("epochs", "sample_ids"), cols):
            if c.dtype.kind not in "iu" or not np.can_cast(c.dtype, np.int64):
                raise ValueError(f"LossTraceWriter: {name} must hold int64 integers, "
                                 f"not {c.dtype}")
        base = self._rows  # the trace row of the first row appended
        stop = base + cols[0].size
        if stop > self._n_rows:
            raise ValueError(f"LossTraceWriter: {stop} rows appended, {self._n_rows} declared")
        # the rows packed as tracetext lays them out: int64 fields, floats through a view
        rows = np.empty((cols[0].size, len(cols)), dtype=np.int64)
        rows[:, 0], rows[:, 1], rows[:, 6] = cols[0], cols[1], cols[6].astype(bool, copy=False)
        floats = rows.view(np.float64)
        for j in range(2, 6):
            floats[:, j] = cols[j]
        packed = memoryview(rows.reshape(-1)).cast("B")  # 1-D: an empty 2-D view will not cast
        if self._block is None:
            self._fh.writelines(tracetext.encoded_chunks(packed))
            self._rows = stop
        while self._rows < stop:
            lo = self._rows
            if lo % self._block == 0:  # a block begins: its helper, one per CPU at most
                if len(self._helpers) == self._cpus:
                    self._copy_oldest()
                self._helpers.append(subprocess.Popen(_TRACE_HELPER, stdin=subprocess.PIPE,
                                                      stdout=subprocess.PIPE))
            end = min(lo - lo % self._block + self._block, self._n_rows)  # the block's end
            self._rows = min(stop, end)
            stdin = self._helpers[-1].stdin
            # a helper that has gone is caught by its exit status when its text is copied
            with contextlib.suppress(BrokenPipeError):
                stdin.write(packed[(lo - base) * tracetext.ROW_BYTES:
                                   (self._rows - base) * tracetext.ROW_BYTES])
            if self._rows == end:
                _close(stdin)  # its block is complete: the helper formats it now

    def _copy_oldest(self) -> None:
        """Copy the oldest helper's text, its block complete, into the trace; reap it."""
        proc = self._helpers[0]
        shutil.copyfileobj(proc.stdout, self._fh)
        if proc.wait() != 0:
            raise RuntimeError(f"LossTraceWriter: a helper exited with status {proc.returncode}")
        proc.stdout.close()
        self._helpers.pop(0)

    def _discard(self) -> None:
        """Kill and reap every open helper, closing its pipes; remove the file."""
        for proc in self._helpers:
            proc.kill()
            _close(proc.stdin)
            _close(proc.stdout)
            proc.wait()
        try:
            self._fh.close()
        finally:
            os.remove(self._path)


def _close(pipe) -> None:
    with contextlib.suppress(BrokenPipeError):  # input a dead helper never read
        pipe.close()


def write_loss_trace(path, epochs, sample_ids, modulated: ModulatedLoss) -> None:
    """Write one CSV row per sample-epoch, formatting on every usable CPU.

    epochs and sample_ids hold integers (anything else raises ValueError
    naming the column, and the file, made on entering the writer, is
    removed), and they and every field of modulated hold one entry per row.
    Columns are (epoch, sample_id, input_loss, kappa, threshold, value,
    selected); floats are written with repr so a reload round-trips
    bit-exactly, and every line ends in \\r\\n.
    This is one append on a LossTraceWriter, which documents its blocks and
    helpers; a helper that fails makes this raise RuntimeError, and no helper
    or pipe outlives the call.
    """
    with LossTraceWriter(path, np.size(epochs)) as trace:
        trace.append(epochs, sample_ids, modulated)
