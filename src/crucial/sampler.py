"""Expected squared sampling error under uniform vs. exponential selection.

A batch estimate of the mean loss commits squared error E[(l_i - mu_pop)^2]
that depends on how samples are selected.  Two selection laws are compared:

* condition U: every sample equally likely;
* condition P: sample i weighted proportional to Lambda * exp(-Lambda * l_i),
  favoring low-loss samples.

For normal and folded half-normal loss populations the module provides the
closed-form expectations (transcribed verbatim, including the half-normal
coefficients whose bookkeeping is suspect; the Monte Carlo estimator is the
ground truth and any disagreement is reported, not hidden), a seeded Monte
Carlo estimate with its standard error, and a toy population simulator
showing the skewness cycle that alternating U/P selection induces.

A grid point's Monte Carlo estimate is one stratified pass: one jittered
uniform per equal-probability stratum, inverted through the population's
quantile for U and through the tilted population's quantile for P.  So P is
drawn exactly from the tilted law, on the same uniforms as U (common random
numbers).  The draws are cut into fixed chunks with derived substreams and
reduced in chunk order, so estimates do not depend on the worker count.
Every worker count runs its chunks on pool threads (lanes), each computing
its chunks in place in one workspace of chunk-sized buffers, not in a new
array per operation.  Errors are always summed in units of an exact power of
two near their width, so their fourth powers stay finite wherever the closed
forms are, and scaling the sums back keeps every bit.
"""

from __future__ import annotations

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import erfcx, log_ndtr, ndtri, ndtri_exp

from .numerics import LossStats, SeededRng, loss_stats

__all__ = [
    "ErrorReport",
    "LossPopulation",
    "Ordering",
    "PopulationKind",
    "SelectionCondition",
    "SelectionMode",
    "analytic_expected_errors",
    "compare_conditions",
    "distribution_cycle_sim",
    "mc_expected_errors",
]


class PopulationKind(str, Enum):
    NORMAL = "normal"
    HALF_NORMAL = "half_normal"


@dataclass(frozen=True)
class LossPopulation:
    """A loss distribution: Normal(mu, sigma) or the folded half-normal.

    HalfNormal draws are mu + sigma*|Z|, so the population mean is
    mu + sigma*sqrt(2/pi) and the variance sigma^2 * (1 - 2/pi).
    """

    kind: PopulationKind
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.sigma) or self.sigma <= 0.0:
            raise ValueError("LossPopulation: sigma must be finite and > 0")
        if not math.isfinite(self.mu):
            raise ValueError("LossPopulation: mu must be finite")

    def population_mean(self) -> float:
        if self.kind is PopulationKind.NORMAL:
            return self.mu
        return self.mu + self.sigma * math.sqrt(2.0 / math.pi)

    def population_var(self) -> float:
        if self.kind is PopulationKind.NORMAL:
            return self.sigma * self.sigma
        return self.sigma * self.sigma * (1.0 - 2.0 / math.pi)

    # The three array methods below take an array and, like a numpy ufunc,
    # write into out (which may be the input itself) when it is given and
    # into a new array otherwise; the input is read, never written, unless
    # it is out.

    def quantile(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Inverse CDF at probabilities u in (0, 1)."""
        if self.kind is PopulationKind.NORMAL:
            x = ndtri(u, out=out)
        else:
            x = np.add(u, 1.0, out=out)
            x *= 0.5
            ndtri(x, out=x)
        x *= self.sigma
        x += self.mu
        return x

    def tilted_quantile(self, u: np.ndarray, rate: float,
                        out: np.ndarray | None = None) -> np.ndarray:
        """Inverse CDF of the exp(-rate*l)-tilted population.

        Tilting a normal shifts its mean to mu - rate*sigma^2; tilting the
        folded form gives that same normal truncated to [mu, inf), inverted
        through the log survival function: its mass ndtr(-rate*sigma)
        underflows once rate*sigma exceeds about 38, its log does not.
        """
        shift = self.mu - rate * self.sigma * self.sigma
        if self.kind is PopulationKind.NORMAL:
            x = ndtri(u, out=out)
            x *= self.sigma
        else:
            x = np.negative(u, out=out)
            np.log1p(x, out=x)
            x += log_ndtr(-rate * self.sigma)
            ndtri_exp(x, out=x)
            x *= self.sigma
            return np.subtract(shift, x, out=x)
        x += shift
        return x

    def _log_tilt_norm(self, rate: float) -> float:
        """log of the tilt's normalizer relative to the population: the
        constant in log_tilt_ratio(l) = -rate * (l - mu) - _log_tilt_norm(rate)."""
        if self.kind is PopulationKind.HALF_NORMAL:
            # The normal's -x^2 (x = rate*sigma/sqrt 2) cancels against
            # log erfc(x) = log erfcx(x) - x^2; erfc underflows past x ~ 27.
            return math.log(erfcx(rate * self.sigma / math.sqrt(2.0)))
        return 0.5 * (rate * self.sigma) ** 2

    def log_tilt_ratio(self, l: np.ndarray, rate: float,
                       out: np.ndarray | None = None) -> np.ndarray:
        """log of tilted density over population density at l."""
        x = np.subtract(l, self.mu, out=out)
        x *= -rate
        x -= self._log_tilt_norm(rate)
        return x


class SelectionMode(str, Enum):
    UNIFORM = "uniform"
    EXPONENTIAL = "exponential"


@dataclass(frozen=True)
class SelectionCondition:
    """How a batch is drawn: uniformly, or tilted by exp(-rate * loss)."""

    mode: SelectionMode
    rate: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.rate) or self.rate <= 0.0:
            raise ValueError("SelectionCondition: rate must be finite and > 0")


class Ordering(str, Enum):
    U_BEATS_P = "u_beats_p"
    P_BEATS_U = "p_beats_u"
    INCONCLUSIVE = "inconclusive"


def _order(e_u: float, e_p: float, rel: float) -> Ordering:
    """Which condition's expected error is lower; inconclusive where the two
    are equal or within rel relative.  At rel 0.0 only equal values tie, inf
    and NaN included, since abs(d) < 0 * x never holds."""
    if e_u == e_p or abs(e_u - e_p) < rel * max(abs(e_u), abs(e_p), 1e-300):
        return Ordering.INCONCLUSIVE
    return Ordering.U_BEATS_P if e_u < e_p else Ordering.P_BEATS_U


@dataclass
class ErrorReport:
    """Analytic and Monte Carlo expected squared errors for one population.

    Analytic values are deterministic closed forms; mc values are both
    conditions' estimates and standard errors, from one pass of n_samples
    draws that the two conditions share.
    diamond is the half-normal's tilted mean shift: the tilted population's
    mean is mu - rate*sigma^2 + diamond (None for normal populations).
    """

    population: LossPopulation
    rate: float
    analytic_eu: float
    analytic_ep: float
    diamond: float | None
    mc_eu: float
    mc_eu_stderr: float
    mc_ep: float
    mc_ep_stderr: float
    n_samples: int
    seed: int

    @property
    def analytic_order(self) -> Ordering:
        """The closed forms' ordering, inconclusive within 1e-12 relative."""
        return _order(self.analytic_eu, self.analytic_ep, 1e-12)

    @property
    def mc_order(self) -> Ordering:
        """The Monte Carlo ordering, inconclusive only on equal estimates."""
        return _order(self.mc_eu, self.mc_ep, 0.0)

    def checks(self, tol: float) -> dict:
        """The point's gate: each estimate within tol standard errors of its
        closed form, and for a normal the closed forms ordered U_BEATS_P.

        The half-normal E_P closed form is a verbatim transcription under
        adjudication; it is reported and compared but never gates, so there
        ep_within_tol is None and the point passes on E_U alone.
        """
        eu_ok = abs(self.mc_eu - self.analytic_eu) <= tol * self.mc_eu_stderr
        if self.population.kind is PopulationKind.HALF_NORMAL:
            return {"eu_within_tol": eu_ok, "ep_within_tol": None, "passed": eu_ok}
        ep_ok = abs(self.mc_ep - self.analytic_ep) <= tol * self.mc_ep_stderr
        return {"eu_within_tol": eu_ok, "ep_within_tol": ep_ok,
                "passed": eu_ok and ep_ok and self.analytic_order is Ordering.U_BEATS_P}


def analytic_expected_errors(pop: LossPopulation, rate: float):
    """Closed-form E_U, E_P and the half-normal diamond term.

    Normal(mu, sigma):

        E_U = sigma^2
        E_P = Lambda^2 sigma^4 + sigma^2

    (exponential tilting of a normal shifts its mean by -Lambda*sigma^2 and
    keeps the variance, so the bias term is exactly Lambda^2 sigma^4).

    Half-normal, transcribed verbatim:

        E_U = sigma^2 (1 - 2/pi)
        diamond = sqrt(2) sigma exp(-sigma^2 Lambda^2 / 2)
                  / (sqrt(pi) erfc(sqrt(2)/2 sigma Lambda))
        E_P = sigma^2 (2/pi + 1)
              + (2 sigma (2/pi) + Lambda sigma^2) (Lambda sigma^2 - diamond)

    The half-normal E_P mixes sigma and sigma^2 terms as written in its
    source derivation; it is kept verbatim and adjudicated against the
    Monte Carlo estimator rather than silently corrected.

    Returns (E_U, E_P, diamond), diamond None for normal populations.
    Raises ValueError where E_U or E_P is not finite, or where E_U is not a
    positive normal float (sigma^2 underflows, and every error would read
    0).  A normal's E_P is at least its E_U; the half-normal's transcribed
    E_P turns negative by cancellation past sigma ~ 1e8, and is reported.
    """
    if not math.isfinite(rate) or rate <= 0.0:
        raise ValueError("analytic_expected_errors: rate must be finite and > 0")
    s = pop.sigma
    e_u = pop.population_var()
    if pop.kind is PopulationKind.NORMAL:
        diamond = None
        try:
            e_p = (rate * rate) * (s ** 4) + e_u
        except OverflowError:  # float ** raises where float * gives inf
            e_p = math.inf
    else:
        # exp(-x^2) / erfc(x) = 1 / erfcx(x), finite where erfc underflows to 0.
        x = math.sqrt(2.0) / 2.0 * s * rate
        diamond = math.sqrt(2.0) * s / (math.sqrt(math.pi) * float(erfcx(x)))
        e_p = s * s * (2.0 / math.pi + 1.0) + (
            2.0 * s * (2.0 / math.pi) + rate * s * s
        ) * (rate * s * s - diamond)
    if not (sys.float_info.min <= e_u < math.inf and math.isfinite(e_p)):
        raise ValueError(f"analytic_expected_errors: E_U or E_P is not finite, or E_U is not "
                         f"a positive normal float, at sigma={s!r}, rate={rate!r}")
    return e_u, e_p, diamond


# MC draws are split into this many fixed chunks with independent derived
# substreams; reduction is in chunk order, so estimates do not depend on how
# many workers evaluate the chunks.
_MC_CHUNKS = 16

# Largest double below 1; stratified probabilities are clipped into
# [tiny, _U_MAX] so the inverse CDF stays finite for every jitter value.
_U_MAX = float(np.nextafter(1.0, 0.0))
_U_MIN = 2.2250738585072014e-308

# Errors are scaled by 2^-k before they are squared, with k at least this
# so that 2^-k stays a finite float.
_MIN_EXPONENT = -1000


def _chunk_sizes(n: int, n_chunks: int) -> list[int]:
    base, rem = divmod(n, n_chunks)
    return [base + (1 if i < rem else 0) for i in range(n_chunks)]


def _workspace(size: int) -> np.ndarray:
    """Scratch rows for chunks of up to size draws.

    Row 0 holds the draws less the population mean, row 1 the uniforms,
    row 2 the squared errors and row 3 the stratum offsets 0, 1, ..., size - 1.
    """
    work = np.empty((4, size))
    work[3] = np.arange(size)
    return work


def _stratified_uniforms(start: int, n_total: int, generator: np.random.Generator,
                         out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Fill out with one jittered point per probability stratum [k/n, (k+1)/n),
    k = start, start + 1, ...; overwrites work's row 2."""
    size = out.size
    generator.random(out=out)
    out += np.add(work[3, :size], start, out=work[2, :size])
    out /= n_total
    return np.clip(out, _U_MIN, _U_MAX, out=out)


def _error_exponent(pop: LossPopulation, rate: float = 0.0) -> int:
    """The binary exponent k by which errors are scaled (d / 2^k) before
    they are squared: condition P's at rate, condition U's at rate 0.

    Their magnitude is about sigma, or sigma * (1 + rate*sigma) for a
    normal's P, whose draws shift by rate*sigma^2.  k is that width's binary
    exponent, at least _MIN_EXPONENT, so that sums of fourth powers neither
    overflow nor underflow where the closed forms are finite.  Scaling by a
    power of two is exact.
    """
    width = pop.sigma
    if pop.kind is PopulationKind.NORMAL:
        width *= 1.0 + rate * pop.sigma
    return max(math.frexp(width)[1], _MIN_EXPONENT)


def _square_sums(d: np.ndarray, y: np.ndarray, exponent: int) -> tuple[float, float]:
    """(sum of e^2, sum of e^4) for e = d / 2^exponent, with y as scratch;
    scaled back, they are the sums of d^2 and d^4 bit for bit wherever both
    are normal floats."""
    np.multiply(d, math.ldexp(1.0, -exponent), out=y)
    np.square(y, out=y)
    s1 = float(np.sum(y))
    return s1, float(np.sum(np.multiply(y, y, out=y)))


def _uniform_chunk(pop: LossPopulation, center: float, start: int, size: int,
                   n_total: int, rng: SeededRng, work: np.ndarray):
    """Condition U's sums over one chunk of stratified draws, in units of
    2^_error_exponent(pop), computed in the workspace work (see _workspace).

    Leaves the chunk's uniforms in work row 1 and its draws less center in
    row 0, where _tilted_chunk reads them.
    """
    d = work[0, :size]
    u = _stratified_uniforms(start, n_total, rng.generator, work[1, :size], work)
    pop.quantile(u, out=d)
    d -= center
    return _square_sums(d, work[2, :size], _error_exponent(pop))


def _tilted_chunk(pop: LossPopulation, center: float, rate: float, size: int,
                  work: np.ndarray):
    """Condition P's sums over the chunk _uniform_chunk last left in work,
    in units of 2^_error_exponent(pop, rate).

    P's draws are the tilted quantile at U's uniforms.  Tilting a normal
    only shifts its mean by -rate*sigma^2, so there they are U's draws less
    that shift and need no second inverse CDF.
    """
    d = work[0, :size]
    if pop.kind is PopulationKind.NORMAL:
        d -= rate * pop.sigma * pop.sigma
    else:
        pop.tilted_quantile(work[1, :size], rate, out=d)
        d -= center
    return _square_sums(d, work[2, :size], _error_exponent(pop, rate))


def _run_chunks(tasks, workers: int, size: int):
    """Call every task with a workspace for size draws; results in task order.

    The tasks are dealt to min(workers, len(tasks)) pool threads (lanes),
    for every worker count: lane k runs tasks k, k + lanes, ... one after
    another in one workspace, allocated once.
    """
    lanes = max(1, min(workers, len(tasks)))

    def lane(k: int) -> list:
        work = _workspace(size)
        return [task(work) for task in tasks[k::lanes]]

    results = [None] * len(tasks)
    with ThreadPoolExecutor(max_workers=lanes) as pool:
        for k, part in enumerate(pool.map(lane, range(lanes))):
            results[k::lanes] = part
    return results


def _mean_and_stderr(s1: float, s2: float, n: int, exponent: int) -> tuple[float, float]:
    """The mean and its standard error from the sums of e^2 and e^4 over n
    errors e = d / 2^exponent, both scaled back to units of d^2."""
    est = s1 / n
    # Rounding can leave a variance sum just below zero; only that is
    # clamped, since max(0.0, nan) would turn a broken sum into 0.0.
    var = (s2 - n * est * est) / (n - 1)
    se = math.sqrt((0.0 if var < 0.0 else var) / n)
    return _times_power_of_two(est, 2 * exponent), _times_power_of_two(se, 2 * exponent)


def _times_power_of_two(x: float, exponent: int) -> float:
    """x * 2^exponent, exact, and inf where that overflows."""
    try:
        return math.ldexp(x, exponent)
    except OverflowError:
        return math.copysign(math.inf, x)


def _mc_pass(pop: LossPopulation, rate: float, n: int, rng: SeededRng, workers: int):
    """Both conditions' (estimate, standard error) from one stratified pass."""
    if n < 2:
        raise ValueError("mc_expected_errors: n must be >= 2 for a standard error")
    center = pop.population_mean()
    sizes = _chunk_sizes(n, _MC_CHUNKS)
    starts = [sum(sizes[:i]) for i in range(len(sizes))]
    tasks = [
        (lambda work, i=i, st=st, sz=sz: _uniform_chunk(
            pop, center, st, sz, n, rng.derive(f"u/chunk{i}"), work)
         + _tilted_chunk(pop, center, rate, sz, work))
        for i, (st, sz) in enumerate(zip(starts, sizes)) if sz > 0
    ]
    s1u, s2u, s1p, s2p = map(sum, zip(*_run_chunks(tasks, workers, sizes[0])))
    return (_mean_and_stderr(s1u, s2u, n, _error_exponent(pop)),
            _mean_and_stderr(s1p, s2p, n, _error_exponent(pop, rate)))


def mc_expected_errors(pop: LossPopulation, cond: SelectionCondition, n: int,
                       rng: SeededRng, workers: int = 1) -> tuple[float, float]:
    """(estimate, standard error) of the expected squared error under cond.

    One stratified pass serves both conditions.  It draws n jittered
    uniforms, one per equal-probability stratum, and inverts each through
    pop's quantile for U and through the quantile of pop tilted by
    exp(-rate * l) for P, so P's losses follow the exponential selection
    law exactly, with no weights, and the two conditions share every draw.
    Under either condition the estimate is the plain mean of the errors
    (l_i - mu_pop)^2 and the standard error the usual sample one; it
    ignores the stratification, so the reported errors are conservative
    (upper bounds).  A sum that is not a number gives a standard error that
    is not a number.  n must be at least 2: one draw has no sample standard
    error.  This returns cond's pair; compare_conditions keeps both.

    Draws are partitioned into fixed chunks with substreams derived from
    rng, and reduced in chunk order, so the result depends only on the seed,
    never on the worker count.  The chunks are dealt to at most ``workers``
    threads (never more than there are chunks), and each thread computes
    its chunks in place in one workspace of chunk-sized buffers.
    """
    u, p = _mc_pass(pop, cond.rate, n, rng, workers)
    return u if cond.mode is SelectionMode.UNIFORM else p


def compare_conditions(pop: LossPopulation, rate: float, n: int, rng: SeededRng,
                       workers: int = 1) -> ErrorReport:
    """One grid point's report.  The closed forms come first, so where
    analytic_expected_errors refuses them ValueError is raised before any draw;
    one pass of n draws on the substream rng.derive("cond-u") then gives
    both conditions' estimates, P's drawn exactly on U's uniforms."""
    e_u, e_p, diamond = analytic_expected_errors(pop, rate)
    (mc_eu, mc_eu_stderr), (mc_ep, mc_ep_stderr) = _mc_pass(
        pop, rate, n, rng.derive("cond-u"), workers)
    return ErrorReport(pop, rate, e_u, e_p, diamond, mc_eu, mc_eu_stderr, mc_ep, mc_ep_stderr,
                       n, rng.seed)


# The toy loop of distribution_cycle_sim: initial population, selection
# shares and tilt, and the decay and noise applied each epoch.
_CYCLE_INIT_MEAN = 1.0
_CYCLE_INIT_SIGMA = 0.25
_CYCLE_UNIFORM_FRAC = 0.8
_CYCLE_EXP_FRAC = 0.2
_CYCLE_RATE = 2.0
_CYCLE_DECAY = 0.9
_CYCLE_NOISE_SD = 0.12


def distribution_cycle_sim(n_samples: int, epochs: int, rng: SeededRng, *,
                           schedule: str = "alternating",
                           init: str = "normal") -> list[LossStats]:
    """Toy selection/decay loop exposing the skewness cycle.

    Maintains a population of n_samples losses, drawn from a normal or
    half-normal law with mean offset _CYCLE_INIT_MEAN and scale
    _CYCLE_INIT_SIGMA and clipped at 0.  Each epoch a selection mask is
    drawn (uniform: a _CYCLE_UNIFORM_FRAC share at random; exponential: a
    _CYCLE_EXP_FRAC share in expectation, tilted toward low losses by
    exp(-_CYCLE_RATE*l)); selected losses decay toward 0 by the factor
    _CYCLE_DECAY while unselected ones are re-inflated by additive
    half-normal noise of scale _CYCLE_NOISE_SD.  These constants are
    artifact choices for the toy loop, not derived quantities.

    schedule is "uniform", "exponential", or "alternating"; alternating
    picks uniform whenever the current skewness is <= 0 and exponential
    otherwise, which makes the skewness oscillate around 0.

    Returns epochs + 1 LossStats entries, the initial population first.
    """
    if n_samples < 1:
        raise ValueError("distribution_cycle_sim: n_samples must be positive")
    if epochs < 0:
        raise ValueError("distribution_cycle_sim: epochs must be >= 0")
    if schedule not in ("uniform", "exponential", "alternating"):
        raise ValueError(f"distribution_cycle_sim: unknown schedule {schedule!r}")
    gen = rng.derive("cycle").generator
    if init == "normal":
        losses = _CYCLE_INIT_MEAN + _CYCLE_INIT_SIGMA * gen.standard_normal(n_samples)
    elif init == "half_normal":
        losses = _CYCLE_INIT_MEAN + _CYCLE_INIT_SIGMA * np.abs(gen.standard_normal(n_samples))
    else:
        raise ValueError(f"distribution_cycle_sim: unknown init {init!r}")
    losses = np.clip(losses, 0.0, None)

    out = [loss_stats(losses)]
    for _ in range(epochs):
        mode = schedule
        if schedule == "alternating":
            mode = "uniform" if out[-1].skewness <= 0.0 else "exponential"
        if mode == "uniform":
            selected = gen.random(n_samples) < _CYCLE_UNIFORM_FRAC
        else:
            w = np.exp(-_CYCLE_RATE * losses)
            prob = np.clip(_CYCLE_EXP_FRAC * n_samples * w / np.sum(w), 0.0, 1.0)
            selected = gen.random(n_samples) < prob
        losses[selected] *= _CYCLE_DECAY
        losses[~selected] += _CYCLE_NOISE_SD * np.abs(gen.standard_normal(int(np.sum(~selected))))
        losses = np.clip(losses, 0.0, None)
        out.append(loss_stats(losses))
    return out
