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

    def quantile(self, u: np.ndarray) -> np.ndarray:
        """Inverse CDF at probabilities u in (0, 1)."""
        if self.kind is PopulationKind.NORMAL:
            return self.mu + self.sigma * ndtri(u)
        return self.mu + self.sigma * ndtri(0.5 * (1.0 + u))

    def tilted_quantile(self, u: np.ndarray, rate: float) -> np.ndarray:
        """Inverse CDF of the exp(-rate*l)-tilted population.

        Tilting a normal shifts its mean to mu - rate*sigma^2; tilting the
        folded form gives that same normal truncated to [mu, inf), inverted
        through the log survival function: its mass ndtr(-rate*sigma)
        underflows once rate*sigma exceeds about 38, its log does not.
        """
        shift = self.mu - rate * self.sigma * self.sigma
        if self.kind is PopulationKind.NORMAL:
            return shift + self.sigma * ndtri(u)
        return shift - self.sigma * ndtri_exp(np.log1p(-u) + log_ndtr(-rate * self.sigma))

    def log_tilt_ratio(self, l: np.ndarray, rate: float) -> np.ndarray:
        """log of tilted density over population density at l."""
        if self.kind is PopulationKind.HALF_NORMAL:
            # The normal's -x^2 (x = rate*sigma/sqrt 2) cancels against
            # log erfc(x) = log erfcx(x) - x^2; erfc underflows past x ~ 27.
            return -rate * (l - self.mu) - math.log(erfcx(rate * self.sigma / math.sqrt(2.0)))
        return -rate * (l - self.mu) - 0.5 * (rate * self.sigma) ** 2


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


def _chunk_sizes(n: int, n_chunks: int) -> list[int]:
    base, rem = divmod(n, n_chunks)
    return [base + (1 if i < rem else 0) for i in range(n_chunks)]


def _stratified_uniforms(start: int, size: int, n_total: int,
                         generator: np.random.Generator) -> np.ndarray:
    """One jittered point per probability stratum [k/n, (k+1)/n)."""
    u = (start + np.arange(size) + generator.random(size)) / n_total
    return np.clip(u, _U_MIN, _U_MAX)


def _uniform_chunk(pop: LossPopulation, center: float, start: int, size: int,
                   n_total: int, rng: SeededRng):
    u = _stratified_uniforms(start, size, n_total, rng.generator)
    y = (pop.quantile(u) - center) ** 2
    return float(np.sum(y)), float(np.sum(y * y))


def _tilted_chunk(pop: LossPopulation, center: float, rate: float,
                  pop_block: tuple[int, int, int], til_block: tuple[int, int, int],
                  rng: SeededRng):
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
    parts = []
    if p_size:
        parts.append(pop.quantile(_stratified_uniforms(p_start, p_size, n_pop, gen)))
    if t_size:
        parts.append(pop.tilted_quantile(
            _stratified_uniforms(t_start, t_size, n_til, gen), rate))
    l = np.concatenate(parts)
    y = (l - center) ** 2
    # Weight centering at the population mean keeps exp() in range; the
    # self-normalized ratio is invariant to the shift and to the overall
    # scale of the design correction.
    log_w = -rate * (l - center)
    n_all = n_pop + n_til
    if n_pop and n_til:
        log_w = log_w - np.logaddexp(
            math.log(n_pop / n_all),
            math.log(n_til / n_all) + pop.log_tilt_ratio(l, rate),
        )
    elif n_til:
        log_w = log_w - pop.log_tilt_ratio(l, rate)
    w = np.exp(log_w)
    wy = w * y
    return (
        float(np.sum(w)),
        float(np.sum(wy)),
        float(np.sum(w * w)),
        float(np.sum(w * wy)),
        float(np.sum(wy * wy)),
    )


def _run_chunks(tasks, workers: int):
    if workers <= 1:
        return [task() for task in tasks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(task) for task in tasks]
        return [f.result() for f in futures]


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
    rate * sigma is large.

    The standard error of the U estimate is the usual sample one; for P it
    comes from the delta method for ratio estimators,
    sum(w_i^2 (y_i - est)^2) / (sum w_i)^2.  Both formulas ignore the
    stratification, so the reported errors are conservative (upper bounds).

    Draws are partitioned into fixed chunks with substreams derived from
    rng, and reduced in chunk order, so the result depends only on the seed,
    never on the worker count.
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

    if cond.mode is SelectionMode.UNIFORM:
        tasks = [
            (lambda i=i, st=st, sz=sz: _uniform_chunk(
                pop, center, st, sz, n, rng.derive(f"u/chunk{i}")))
            for i, (st, sz) in enumerate(zip(starts, sizes)) if sz > 0
        ]
        parts = _run_chunks(tasks, workers)
        s1 = sum(p[0] for p in parts)
        s2 = sum(p[1] for p in parts)
        est = s1 / n
        var = max(0.0, (s2 - n * est * est) / max(1, n - 1))
        report.mc_eu = est
        report.mc_eu_stderr = math.sqrt(var / n)
        return report

    rate = cond.rate
    n_pop = (n + 1) // 2
    n_til = n - n_pop
    p_sizes = _chunk_sizes(n_pop, _MC_CHUNKS)
    t_sizes = _chunk_sizes(n_til, _MC_CHUNKS)
    p_starts = [sum(p_sizes[:i]) for i in range(len(p_sizes))]
    t_starts = [sum(t_sizes[:i]) for i in range(len(t_sizes))]
    tasks = [
        (lambda i=i: _tilted_chunk(
            pop, center, rate,
            (p_starts[i], p_sizes[i], n_pop),
            (t_starts[i], t_sizes[i], n_til),
            rng.derive(f"p/chunk{i}")))
        for i in range(_MC_CHUNKS) if p_sizes[i] + t_sizes[i] > 0
    ]
    parts = _run_chunks(tasks, workers)
    sw = sum(p[0] for p in parts)
    swy = sum(p[1] for p in parts)
    sw2 = sum(p[2] for p in parts)
    sw2y = sum(p[3] for p in parts)
    sw2y2 = sum(p[4] for p in parts)
    est = swy / sw
    num = max(0.0, sw2y2 - 2.0 * est * sw2y + est * est * sw2)
    report.mc_ep = est
    report.mc_ep_stderr = math.sqrt(num) / sw
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
