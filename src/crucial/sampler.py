"""Expected squared sampling error under uniform vs. exponential selection.

A batch estimate of the mean loss commits squared error E[(l_i - mu_pop)^2]
that depends on how samples are selected.  Two selection laws are compared:

* condition U: every sample equally likely;
* condition P: sample i weighted proportional to Lambda * exp(-Lambda * l_i),
  favoring low-loss samples.

For normal and folded half-normal loss populations the module provides the
closed-form expectations (transcribed verbatim, including the half-normal
coefficients whose bookkeeping is suspect; the Monte Carlo estimator is the
ground truth and any disagreement is reported, not hidden), a seeded
self-normalized Monte Carlo estimator with standard errors (stratified
inverse-CDF draws, with a tilted defensive component under condition P so
the estimator stays sharp at large rate * sigma), an ordering check, and a
toy population simulator showing the skewness cycle that alternating U/P
selection induces.

Monte Carlo draws are cut into fixed chunks with derived substreams and
reduced in chunk order, so estimates do not depend on the worker count.
Each worker thread (a lane) computes its chunks in place in one workspace of
chunk-sized buffers per condition, not in a new array per operation.  Under
condition P the log-weights are lowered by one common constant where they
could overflow the sums of squared weights, which leaves the estimate and
its standard error unchanged.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
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
    "ordering_check",
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
    """How a batch is drawn: uniformly, or tilted by exp(-rate * loss).

    The rate also picks the closed forms a report of either mode carries.
    """

    mode: SelectionMode
    rate: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.rate) or self.rate <= 0.0:
            raise ValueError("SelectionCondition: rate must be finite and > 0")


class Ordering(str, Enum):
    U_BEATS_P = "u_beats_p"
    P_BEATS_U = "p_beats_u"
    INCONCLUSIVE = "inconclusive"


@dataclass
class ErrorReport:
    """Analytic and Monte Carlo expected squared errors for one population.

    Analytic values are deterministic closed forms; mc values are estimates
    with standard errors and are None for the condition that was not run.
    diamond is the erfc-based correction term of the half-normal closed
    form (None for normal populations).
    """

    population: LossPopulation
    rate: float
    analytic_eu: float
    analytic_ep: float
    diamond: float | None
    mc_eu: float | None
    mc_eu_stderr: float | None
    mc_ep: float | None
    mc_ep_stderr: float | None
    n_samples: int
    seed: int


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
    """
    if not math.isfinite(rate) or rate <= 0.0:
        raise ValueError("analytic_expected_errors: rate must be finite and > 0")
    s = pop.sigma
    if pop.kind is PopulationKind.NORMAL:
        e_u = s * s
        e_p = (rate * rate) * (s ** 4) + s * s
        return e_u, e_p, None
    e_u = s * s * (1.0 - 2.0 / math.pi)
    # exp(-x^2) / erfc(x) = 1 / erfcx(x), finite where erfc underflows to 0.
    x = math.sqrt(2.0) / 2.0 * s * rate
    diamond = math.sqrt(2.0) * s / (math.sqrt(math.pi) * float(erfcx(x)))
    e_p = s * s * (2.0 / math.pi + 1.0) + (
        2.0 * s * (2.0 / math.pi) + rate * s * s
    ) * (rate * s * s - diamond)
    return e_u, e_p, diamond


def ordering_check(pop: LossPopulation, rate: float) -> Ordering:
    """Which condition's analytic expected error is lower.

    Inconclusive when the two sides agree to within 1e-12 relative.
    """
    e_u, e_p, _ = analytic_expected_errors(pop, rate)
    if abs(e_u - e_p) < 1e-12 * max(abs(e_u), abs(e_p), 1e-300):
        return Ordering.INCONCLUSIVE
    return Ordering.U_BEATS_P if e_u < e_p else Ordering.P_BEATS_U


# MC draws are split into this many fixed chunks with independent derived
# substreams; reduction is in chunk order, so estimates do not depend on how
# many workers evaluate the chunks.
_MC_CHUNKS = 16

# Largest double below 1; stratified probabilities are clipped into
# [tiny, _U_MAX] so the inverse CDF stays finite for every jitter value.
_U_MAX = float(np.nextafter(1.0, 0.0))
_U_MIN = 2.2250738585072014e-308

# Ceiling on condition P's log-weights.  Their bound grows as (rate*sigma)^2/2
# for a normal population, and past this ceiling every weight is divided by
# a common factor so that w^2 y^2 summed over the draws stays finite; the
# self-normalized estimate and its standard error do not depend on it.
_LOG_W_MAX = 300.0


def _chunk_sizes(n: int, n_chunks: int) -> list[int]:
    base, rem = divmod(n, n_chunks)
    return [base + (1 if i < rem else 0) for i in range(n_chunks)]


def _workspace(size: int) -> np.ndarray:
    """Scratch rows for chunks of up to size draws.

    Row 0 holds the draws, row 1 their squared errors, row 2 is scratch and
    row 3 holds the stratum offsets 0, 1, ..., size - 1.
    """
    work = np.empty((4, size))
    work[3] = np.arange(size)
    return work


def _stratified_uniforms(start: int, n_total: int, generator: np.random.Generator,
                         out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Fill out with one jittered point per probability stratum [k/n, (k+1)/n),
    k = start, start + 1, ...; overwrites work's scratch row."""
    size = out.size
    generator.random(out=out)
    out += np.add(work[3, :size], start, out=work[2, :size])
    out /= n_total
    return np.clip(out, _U_MIN, _U_MAX, out=out)


def _uniform_chunk(pop: LossPopulation, center: float, start: int, size: int,
                   n_total: int, rng: SeededRng, work: np.ndarray | None = None):
    if work is None:
        work = _workspace(size)
    y = work[0, :size]
    pop.quantile(_stratified_uniforms(start, n_total, rng.generator, y, work), out=y)
    y -= center
    np.square(y, out=y)
    return float(np.sum(y)), float(np.sum(np.multiply(y, y, out=work[1, :size])))


def _tilted_chunk(pop: LossPopulation, center: float, rate: float,
                  pop_block: tuple[int, int, int], til_block: tuple[int, int, int],
                  rng: SeededRng, work: np.ndarray | None = None):
    """Self-normalized sums for condition P over a defensive draw design.

    Half the draws come from the population, half from its exponentially
    tilted form, each stratified by inverse CDF; the two are combined with
    balance-heuristic corrections, so the effective weight stays
    exp(-rate*l) times a bounded design factor.  A population-only design
    collapses when rate*sigma is large (nearly all tilted mass falls inside
    one population stratum) and cannot meet the MC-vs-analytic tolerance.
    """
    gen = rng.generator
    p_start, p_size, n_pop = pop_block
    t_start, t_size, n_til = til_block
    size = p_size + t_size
    if work is None:
        work = _workspace(size)
    l, y, tmp = work[0, :size], work[1, :size], work[2, :size]
    if p_size:
        head = l[:p_size]
        pop.quantile(_stratified_uniforms(p_start, n_pop, gen, head, work), out=head)
    if t_size:
        tail = l[p_size:]
        pop.tilted_quantile(_stratified_uniforms(t_start, n_til, gen, tail, work), rate, out=tail)
    n_all = n_pop + n_til
    if n_til:
        correction = pop.log_tilt_ratio(l, rate, out=tmp)
    # Weight centering at the population mean keeps exp() in range; the
    # self-normalized ratio is invariant to the shift and to the overall
    # scale of the design correction.
    l -= center
    np.square(l, out=y)
    log_w = np.multiply(l, -rate, out=l)
    if n_til:
        if n_pop:
            correction += math.log(n_til / n_all)
            np.logaddexp(math.log(n_pop / n_all), correction, out=correction)
        log_w -= correction
        # The correction is at least log(n_til/n_all) + log_tilt_ratio(l), so
        # every log-weight is at most this, whatever l is.
        bound = rate * (center - pop.mu) + pop._log_tilt_norm(rate) + math.log(n_all / n_til)
        if bound > _LOG_W_MAX:
            log_w -= bound - _LOG_W_MAX
    w = np.exp(log_w, out=log_w)
    wy = np.multiply(w, y, out=y)
    return (
        float(np.sum(w)),
        float(np.sum(wy)),
        float(np.sum(np.multiply(w, w, out=tmp))),
        float(np.sum(np.multiply(w, wy, out=tmp))),
        float(np.sum(np.multiply(wy, wy, out=tmp))),
    )


def _run_chunks(tasks, workers: int, size: int):
    """Call every task with a workspace for size draws; results in task order.

    The tasks are dealt to min(workers, len(tasks)) lanes: lane k runs tasks
    k, k + lanes, ... one after another in one workspace, allocated once.
    """
    lanes = max(1, min(workers, len(tasks)))

    def lane(k: int) -> list:
        work = _workspace(size)
        return [task(work) for task in tasks[k::lanes]]

    if lanes == 1:
        return lane(0)
    results = [None] * len(tasks)
    with ThreadPoolExecutor(max_workers=lanes) as pool:
        for k, part in enumerate(pool.map(lane, range(lanes))):
            results[k::lanes] = part
    return results


def mc_expected_errors(pop: LossPopulation, cond: SelectionCondition, n: int,
                       rng: SeededRng, workers: int = 1) -> ErrorReport:
    """Monte Carlo expected squared error under one selection condition.

    Under U, n losses are drawn from pop (one per jittered
    equal-probability stratum) and the errors (l_i - mu_pop)^2 are averaged
    uniformly.  Under P the errors are averaged with self-normalized
    weights exp(-rate * l_i), which realizes the exponential selection
    probability exactly in the ratio limit (no accept-reject step); the n
    draws are split evenly between pop and its exponentially tilted form
    (balance-heuristic corrections fold into the weights), because
    population-only draws leave the tilted mass unresolved once
    rate * sigma is large.  The log-weights are bounded above by a constant
    of the design; when that bound passes _LOG_W_MAX (a normal population
    with rate * sigma above about 24.5) every log-weight is lowered by the
    excess, which leaves the ratio and its standard error unchanged and
    keeps their sums of squares finite.

    The standard error of the U estimate is the usual sample one; for P it
    comes from the delta method for ratio estimators,
    sum(w_i^2 (y_i - est)^2) / (sum w_i)^2.  Both formulas ignore the
    stratification, so the reported errors are conservative (upper bounds).
    A sum that is not a number gives a standard error that is not a number.

    Draws are partitioned into fixed chunks with substreams derived from
    rng, and reduced in chunk order, so the result depends only on the seed,
    never on the worker count.  The chunks are dealt to at most ``workers``
    threads (never more than there are chunks), and each thread computes
    its chunks in place in one workspace of chunk-sized buffers.
    """
    if n < 1:
        raise ValueError("mc_expected_errors: n must be positive")
    center = pop.population_mean()
    sizes = _chunk_sizes(n, _MC_CHUNKS)
    starts = [sum(sizes[:i]) for i in range(len(sizes))]
    e_u, e_p, diamond = analytic_expected_errors(pop, cond.rate)
    report = ErrorReport(
        population=pop,
        rate=cond.rate,
        analytic_eu=e_u,
        analytic_ep=e_p,
        diamond=diamond,
        mc_eu=None,
        mc_eu_stderr=None,
        mc_ep=None,
        mc_ep_stderr=None,
        n_samples=n,
        seed=rng.seed,
    )

    # Rounding can leave a variance sum just below zero; only that is
    # clamped, since max(0.0, nan) would turn a broken sum into 0.0.
    if cond.mode is SelectionMode.UNIFORM:
        tasks = [
            (lambda work, i=i, st=st, sz=sz: _uniform_chunk(
                pop, center, st, sz, n, rng.derive(f"u/chunk{i}"), work))
            for i, (st, sz) in enumerate(zip(starts, sizes)) if sz > 0
        ]
        parts = _run_chunks(tasks, workers, sizes[0])
        s1 = sum(p[0] for p in parts)
        s2 = sum(p[1] for p in parts)
        est = s1 / n
        var = (s2 - n * est * est) / max(1, n - 1)
        report.mc_eu = est
        report.mc_eu_stderr = math.sqrt((0.0 if var < 0.0 else var) / n)
        return report

    rate = cond.rate
    n_pop = (n + 1) // 2
    n_til = n - n_pop
    p_sizes = _chunk_sizes(n_pop, _MC_CHUNKS)
    t_sizes = _chunk_sizes(n_til, _MC_CHUNKS)
    p_starts = [sum(p_sizes[:i]) for i in range(len(p_sizes))]
    t_starts = [sum(t_sizes[:i]) for i in range(len(t_sizes))]
    tasks = [
        (lambda work, i=i: _tilted_chunk(
            pop, center, rate,
            (p_starts[i], p_sizes[i], n_pop),
            (t_starts[i], t_sizes[i], n_til),
            rng.derive(f"p/chunk{i}"), work))
        for i in range(_MC_CHUNKS) if p_sizes[i] + t_sizes[i] > 0
    ]
    parts = _run_chunks(tasks, workers, p_sizes[0] + t_sizes[0])
    sw = sum(p[0] for p in parts)
    swy = sum(p[1] for p in parts)
    sw2 = sum(p[2] for p in parts)
    sw2y = sum(p[3] for p in parts)
    sw2y2 = sum(p[4] for p in parts)
    est = swy / sw
    num = sw2y2 - 2.0 * est * sw2y + est * est * sw2
    report.mc_ep = est
    report.mc_ep_stderr = math.sqrt(0.0 if num < 0.0 else num) / sw
    return report


def compare_conditions(pop: LossPopulation, rate: float, n: int, rng: SeededRng,
                       workers: int = 1) -> ErrorReport:
    """Run both conditions on derived substreams and merge into one report."""
    u = mc_expected_errors(
        pop, SelectionCondition(SelectionMode.UNIFORM, rate), n, rng.derive("cond-u"), workers
    )
    p = mc_expected_errors(
        pop, SelectionCondition(SelectionMode.EXPONENTIAL, rate), n, rng.derive("cond-p"), workers
    )
    return replace(p, mc_eu=u.mc_eu, mc_eu_stderr=u.mc_eu_stderr, seed=rng.seed)


def distribution_cycle_sim(n_samples: int, epochs: int, rng: SeededRng, *,
                           schedule: str = "alternating",
                           init: str = "normal",
                           init_mean: float = 1.0,
                           init_sigma: float = 0.25,
                           decay: float = 0.9,
                           noise_sd: float = 0.12,
                           uniform_frac: float = 0.8,
                           exp_frac: float = 0.2,
                           rate: float = 2.0) -> list[LossStats]:
    """Toy selection/decay loop exposing the skewness cycle.

    Maintains a population of n_samples losses.  Each epoch a selection mask
    is drawn (uniform: a large random fraction; exponential: a small
    fraction tilted toward low losses by exp(-rate*l)); selected losses
    decay toward 0 by the fixed factor ``decay`` while unselected ones are
    re-inflated by additive half-normal noise.  The decay factor and noise
    dynamics are artifact choices for the toy loop, not derived quantities.

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
        losses = init_mean + init_sigma * gen.standard_normal(n_samples)
    elif init == "half_normal":
        losses = init_mean + init_sigma * np.abs(gen.standard_normal(n_samples))
    else:
        raise ValueError(f"distribution_cycle_sim: unknown init {init!r}")
    losses = np.clip(losses, 0.0, None)

    out = [loss_stats(losses)]
    for _ in range(epochs):
        if schedule == "uniform":
            mode = "uniform"
        elif schedule == "exponential":
            mode = "exponential"
        else:
            mode = "uniform" if out[-1].skewness <= 0.0 else "exponential"
        if mode == "uniform":
            selected = gen.random(n_samples) < uniform_frac
        else:
            w = np.exp(-rate * losses)
            prob = np.clip(exp_frac * n_samples * w / np.sum(w), 0.0, 1.0)
            selected = gen.random(n_samples) < prob
        losses = losses.copy()
        losses[selected] *= decay
        n_out = int(np.sum(~selected))
        if n_out:
            losses[~selected] += noise_sd * np.abs(gen.standard_normal(n_out))
        losses = np.clip(losses, 0.0, None)
        out.append(loss_stats(losses))
    return out
