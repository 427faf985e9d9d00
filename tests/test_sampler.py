"""Selection-condition error estimators and the distribution cycle loop."""

import itertools
import json
import math
import sys
import threading
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfcx, log_ndtr, ndtr, ndtri, ndtri_exp

import reference
from crucial import sampler
from crucial.cli import main
from crucial.numerics import SeededRng
from crucial.sampler import (
    ErrorReport,
    LossPopulation,
    Ordering,
    PopulationKind,
    SelectionCondition,
    SelectionMode,
    analytic_expected_errors,
    compare_conditions,
    compare_grid,
    distribution_cycle_sim,
    mc_expected_errors,
)


def norm_pdf(x, mu, sigma):
    z = (x - mu) / sigma
    return math.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))


def half_pdf(x, mu, sigma):
    if x < mu:
        return 0.0
    return 2.0 * norm_pdf(x, mu, sigma)


def tilted_moment(pdf, rate, power, lo, hi):
    """E[l^power] under density proportional to exp(-rate*l)*pdf(l), by quadrature."""
    z = quad(lambda x: math.exp(-rate * x) * pdf(x), lo, hi, limit=200)[0]
    m = quad(lambda x: (x ** power) * math.exp(-rate * x) * pdf(x), lo, hi, limit=200)[0]
    return m / z


# Reference kernels: the allocating bodies the in-place sampler kernels
# replaced, one new array per operation.  The in-place kernels must
# reproduce their sums bit for bit.

def ref_quantile(pop, u):
    if pop.kind is PopulationKind.NORMAL:
        return pop.mu + pop.sigma * ndtri(u)
    return pop.mu + pop.sigma * ndtri(0.5 * (1.0 + u))


def ref_tilted_quantile(pop, u, rate):
    shift = pop.mu - rate * pop.sigma * pop.sigma
    if pop.kind is PopulationKind.NORMAL:
        return shift + pop.sigma * ndtri(u)
    return shift - pop.sigma * ndtri_exp(np.log1p(-u) + log_ndtr(-rate * pop.sigma))


def ref_log_tilt_ratio(pop, l, rate):
    if pop.kind is PopulationKind.HALF_NORMAL:
        return -rate * (l - pop.mu) - math.log(erfcx(rate * pop.sigma / math.sqrt(2.0)))
    return -rate * (l - pop.mu) - 0.5 * (rate * pop.sigma) ** 2


def ref_stratified_uniforms(start, size, n_total, generator):
    u = (start + np.arange(size) + generator.random(size)) / n_total
    return np.clip(u, sampler._U_MIN, sampler._U_MAX)


def ref_uniform_chunk(pop, center, start, size, n_total, rng):
    u = ref_stratified_uniforms(start, size, n_total, rng.generator)
    y = (ref_quantile(pop, u) - center) ** 2
    return float(np.sum(y)), float(np.sum(y * y))


def ref_tilted_chunk(pop, center, rate, start, size, n_total, rng):
    """Condition P's sums on the uniforms that ref_uniform_chunk draws from rng.

    A tilted normal is the normal shifted by -rate*sigma^2, so its draws are
    the population's less that shift; the half-normal inverts its tilted law.
    """
    u = ref_stratified_uniforms(start, size, n_total, rng.generator)
    if pop.kind is PopulationKind.NORMAL:
        e = ref_quantile(pop, u) - center - rate * pop.sigma * pop.sigma
    else:
        e = ref_tilted_quantile(pop, u, rate) - center
    y = e ** 2
    return float(np.sum(y)), float(np.sum(y * y))


def scaled_back(sums, exponent):
    """A kernel's (sum of e^2, sum of e^4), e = d / 2^exponent, in units of d."""
    s1, s2 = sums
    return math.ldexp(s1, 2 * exponent), math.ldexp(s2, 4 * exponent)


def ref_mean_and_stderr(s1, s2, n):
    est = s1 / n
    return est, math.sqrt(max(0.0, (s2 - n * est * est) / (n - 1)) / n)


def chunk_blocks(n):
    """(start, size) of every chunk of n draws, as mc_expected_errors cuts them."""
    sizes = sampler._chunk_sizes(n, sampler._MC_CHUNKS)
    starts = [sum(sizes[:i]) for i in range(len(sizes))]
    return [(st, sz) for st, sz in zip(starts, sizes)]


class TestLossPopulation:
    def test_moments_normal(self):
        pop = LossPopulation(PopulationKind.NORMAL, mu=1.3, sigma=0.4)
        assert pop.population_mean() == pytest.approx(1.3)
        assert pop.population_var() == pytest.approx(0.16)

    @pytest.mark.parametrize("kind", list(PopulationKind))
    def test_closed_form_eu_is_the_population_variance(self, kind):
        for sigma in (0.1, 0.7, 3.0, 1e30):
            pop = LossPopulation(kind, mu=0.4, sigma=sigma)
            for rate in (0.5, 2.0):
                assert analytic_expected_errors(pop, rate)[0] == pop.population_var()

    def test_moments_half_normal(self):
        pop = LossPopulation(PopulationKind.HALF_NORMAL, mu=0.2, sigma=0.5)
        assert pop.population_mean() == pytest.approx(0.2 + 0.5 * math.sqrt(2.0 / math.pi), rel=1e-12)
        assert pop.population_var() == pytest.approx(0.25 * (1.0 - 2.0 / math.pi), rel=1e-12)
        # cross-check against quadrature of the folded density
        m1 = quad(lambda x: x * half_pdf(x, 0.2, 0.5), 0.2, 10.0)[0]
        assert pop.population_mean() == pytest.approx(m1, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            LossPopulation(PopulationKind.NORMAL, mu=0.0, sigma=0.0)
        with pytest.raises(ValueError):
            LossPopulation(PopulationKind.NORMAL, mu=math.nan, sigma=1.0)

    def test_quantile_round_trip(self):
        pop = LossPopulation(PopulationKind.NORMAL, mu=0.5, sigma=2.0)
        assert pop.quantile(np.array([0.5]))[0] == pytest.approx(0.5, abs=1e-12)
        hp = LossPopulation(PopulationKind.HALF_NORMAL, mu=0.0, sigma=1.0)
        # median of |N(0,1)| is the 75% point of N(0,1)
        assert hp.quantile(np.array([0.5]))[0] == pytest.approx(0.6744897501960817, abs=1e-12)
        assert np.all(hp.quantile(np.linspace(0.001, 0.999, 99)) >= 0.0)

    def test_tilted_quantile_mean_normal(self):
        # tilting a normal by exp(-rate*l) shifts the mean to mu - rate*sigma^2
        pop = LossPopulation(PopulationKind.NORMAL, mu=1.0, sigma=0.5)
        u = (np.arange(200001) + 0.5) / 200001
        mean = float(np.mean(pop.tilted_quantile(u, 2.0)))
        assert mean == pytest.approx(1.0 - 2.0 * 0.25, abs=1e-3)

    def test_tilted_quantile_mean_half_normal_vs_quadrature(self):
        pop = LossPopulation(PopulationKind.HALF_NORMAL, mu=0.0, sigma=0.5)
        truth = tilted_moment(lambda x: half_pdf(x, 0.0, 0.5), 1.0, 1, 0.0, 8.0)
        assert truth == pytest.approx(0.3205388851840324, abs=1e-12)
        u = (np.arange(200001) + 0.5) / 200001
        mean = float(np.mean(pop.tilted_quantile(u, 1.0)))
        assert mean == pytest.approx(truth, abs=1e-3)

    @pytest.mark.parametrize("kind,mu,sigma,rate", [
        (PopulationKind.HALF_NORMAL, 0.0, 20.0, 2.0),   # tilted mass ndtr(-40) underflows
        (PopulationKind.HALF_NORMAL, 0.2, 0.5, 1.0),
        (PopulationKind.NORMAL, 0.3, 20.0, 30.0),       # rate*sigma = 600
        (PopulationKind.NORMAL, 0.3, 1.5, 0.8),
    ])
    def test_tilted_quantile_inverts_an_independent_tilted_cdf(self, kind, mu, sigma, rate):
        # The tilted CDF at tilted_quantile(u) must return u.  The half-normal
        # CDF is a ratio of quadratures of exp(-rate*l) times the folded
        # density; the normal's is ndtr of the standardized draw, since the
        # tilt moves the mean to mu - rate*sigma^2.  Neither goes through the
        # log_ndtr / ndtri_exp chain that tilted_quantile uses.
        u = np.array([1e-9, 1e-4, 0.01, 0.3, 0.5, 0.9, 0.999, 1.0 - 1e-7])
        x = LossPopulation(kind, mu=mu, sigma=sigma).tilted_quantile(u, rate)
        if kind is PopulationKind.NORMAL:
            z = (x - mu) / sigma + rate * sigma
            lower, upper = ndtr(z), ndtr(-z)
        else:
            hi = mu + 40.0 * sigma

            def mass(a, b):
                return quad(lambda l: math.exp(-rate * (l - mu)) * half_pdf(l, mu, sigma),
                            a, b, limit=200, epsabs=0.0, epsrel=1e-12)[0]
            total = mass(mu, hi)
            lower = np.array([mass(mu, xi) for xi in x]) / total
            upper = np.array([mass(xi, hi) for xi in x]) / total
        # each tail is checked relative to its own size
        small = u <= 0.5
        assert lower[small] == pytest.approx(u[small], rel=1e-8)
        assert upper[~small] == pytest.approx(1.0 - u[~small], rel=1e-6)

    def test_log_tilt_ratio_matches_quadrature_normalizer(self):
        for kind, pdf in (
            (PopulationKind.NORMAL, lambda x: norm_pdf(x, 0.3, 0.6)),
            (PopulationKind.HALF_NORMAL, lambda x: half_pdf(x, 0.3, 0.6)),
        ):
            pop = LossPopulation(kind, mu=0.3, sigma=0.6)
            rate = 1.5
            lo = -8.0 if kind is PopulationKind.NORMAL else 0.3
            z = quad(lambda x: math.exp(-rate * x) * pdf(x), lo, 10.0, limit=200)[0]
            for l in (0.35, 0.9, 1.7):
                expect = math.log(math.exp(-rate * l) * pdf(l) / z / pdf(l))
                got = float(pop.log_tilt_ratio(np.array([l]), rate)[0])
                assert got == pytest.approx(expect, rel=1e-9)


class TestAnalytic:
    def test_normal_closed_form(self):
        pop = LossPopulation(PopulationKind.NORMAL, mu=0.0, sigma=0.5)
        e_u, e_p, diamond = analytic_expected_errors(pop, 1.0)
        assert e_u == pytest.approx(0.25, abs=1e-15)
        assert e_p == pytest.approx(0.3125, abs=1e-15)
        assert diamond is None

    def test_normal_closed_form_vs_quadrature(self):
        mu, sigma, rate = 0.4, 1.5, 0.8
        pop = LossPopulation(PopulationKind.NORMAL, mu=mu, sigma=sigma)
        e_u, e_p, _ = analytic_expected_errors(pop, rate)
        pdf = lambda x: norm_pdf(x, mu, sigma)
        m2 = tilted_moment(pdf, rate, 2, mu - 12 * sigma, mu + 12 * sigma)
        m1 = tilted_moment(pdf, rate, 1, mu - 12 * sigma, mu + 12 * sigma)
        truth = m2 - 2.0 * mu * m1 + mu * mu
        assert e_p == pytest.approx(truth, rel=1e-9)
        assert e_u == pytest.approx(sigma * sigma, rel=1e-12)

    def test_half_normal_pinned_values(self):
        pop = LossPopulation(PopulationKind.HALF_NORMAL, mu=0.0, sigma=0.5)
        e_u, e_p, diamond = analytic_expected_errors(pop, 1.0)
        assert e_u == pytest.approx(0.09084505690810465, abs=1e-15)
        assert e_p == pytest.approx(0.12495882967507027, abs=1e-14)
        assert diamond == pytest.approx(0.5705388851840324, abs=1e-14)

    def test_half_normal_diamond_is_the_tilted_mean_shift(self):
        # the erfc term satisfies E_tilted[l] = mu_gauss - rate*sigma^2 + diamond
        sigma, rate = 0.5, 1.0
        pop = LossPopulation(PopulationKind.HALF_NORMAL, mu=0.0, sigma=sigma)
        _, _, diamond = analytic_expected_errors(pop, rate)
        truth = tilted_moment(lambda x: half_pdf(x, 0.0, sigma), rate, 1, 0.0, 8.0)
        assert -rate * sigma * sigma + diamond == pytest.approx(truth, rel=1e-12)

    def test_half_normal_formula_is_transcribed_not_rederived(self):
        # quadrature ground truth for E_P disagrees with the transcribed
        # closed form; the package keeps the closed form verbatim and lets
        # the MC estimator adjudicate.
        sigma, rate = 0.5, 1.0
        pop = LossPopulation(PopulationKind.HALF_NORMAL, mu=0.0, sigma=sigma)
        _, e_p, _ = analytic_expected_errors(pop, rate)
        pdf = lambda x: half_pdf(x, 0.0, sigma)
        center = pop.population_mean()
        m2 = tilted_moment(pdf, rate, 2, 0.0, 8.0)
        m1 = tilted_moment(pdf, rate, 1, 0.0, 8.0)
        truth = m2 - 2.0 * center * m1 + center * center
        assert truth == pytest.approx(0.07326719417058561, abs=1e-12)
        assert abs(e_p - truth) > 0.04  # materially different, not a rounding gap

    def test_ordering_normal_always_uniform(self):
        for sigma in (0.1, 0.5, 1.0, 2.0):
            for rate in (0.5, 1.0, 2.0):
                pop = LossPopulation(PopulationKind.NORMAL, mu=0.0, sigma=sigma)
                assert (compare_conditions(pop, rate, 2, SeededRng(0)).analytic_order
                        is Ordering.U_BEATS_P)

    def test_ordering_half_normal_transcribed_direction(self):
        pop = LossPopulation(PopulationKind.HALF_NORMAL, mu=0.0, sigma=0.5)
        assert compare_conditions(pop, 1.0, 2, SeededRng(0)).analytic_order is Ordering.U_BEATS_P

    def test_rate_validation(self):
        pop = LossPopulation(PopulationKind.NORMAL, mu=0.0, sigma=1.0)
        with pytest.raises(ValueError):
            analytic_expected_errors(pop, 0.0)
        with pytest.raises(ValueError):
            SelectionCondition(SelectionMode.EXPONENTIAL, rate=-1.0)
        with pytest.raises(ValueError):
            SelectionCondition(SelectionMode.UNIFORM, rate=0.0)


def hand_report(kind=PopulationKind.NORMAL, analytic=(1.0, 2.0), mc=(1.0, 2.0),
                se=(1e-3, 1e-3)) -> ErrorReport:
    """A report built by hand, with no draw: closed forms, estimates and SEs."""
    pop = LossPopulation(kind, mu=0.0, sigma=1.0)
    return ErrorReport(pop, 1.0, analytic[0], analytic[1], None, mc[0], se[0], mc[1], se[1],
                       2, 0)


class TestChecks:
    """ErrorReport.checks(tol), the one gate of simulate, on hand-built reports."""

    def test_normal_point_within_tol_passes(self):
        rep = hand_report(mc=(1.002, 1.997), se=(1e-3, 2e-3))
        assert rep.checks(3.0) == {"eu_within_tol": True, "ep_within_tol": True,
                                   "passed": True}

    def test_normal_ep_outside_tol_fails(self):
        rep = hand_report(mc=(1.0, 2.1), se=(1e-3, 2e-3))
        assert rep.checks(3.0) == {"eu_within_tol": True, "ep_within_tol": False,
                                   "passed": False}

    def test_tied_closed_forms_fail_with_both_estimates_within_tol(self):
        # simulate --sigmas 1e-100: rate^2 sigma^4 vanishes against sigma^2, so
        # the closed forms tie and the normal gate, which asks for u_beats_p, fails.
        e_u, e_p, _ = analytic_expected_errors(
            LossPopulation(PopulationKind.NORMAL, 0.0, 1e-100), 1.0)
        rep = hand_report(analytic=(e_u, e_p), mc=(e_u, e_p), se=(1e-202, 1e-202))
        assert rep.analytic_order is Ordering.INCONCLUSIVE
        assert rep.checks(3.0) == {"eu_within_tol": True, "ep_within_tol": True,
                                   "passed": False}

    def test_zero_stderr_passes_only_an_exact_match(self):
        # simulate --sigmas 1e40 gives se_ep exactly 0.0 and an estimate one ulp
        # off its closed form, so it exits 1.  This pins that rule; whether a
        # zero SE should get an ulp of slack is left open (ROADMAP item 11).
        e_p = 1.0000000000000002e160
        assert hand_report(analytic=(1.0, e_p), mc=(1.0, e_p), se=(0.0, 0.0)).checks(3.0)["passed"]
        off = hand_report(analytic=(1.0, e_p), mc=(1.0, math.nextafter(e_p, 0.0)), se=(0.0, 0.0))
        assert off.checks(3.0) == {"eu_within_tol": True, "ep_within_tol": False,
                                   "passed": False}

    def test_nan_stderr_is_not_within_tol(self):
        rep = hand_report(se=(math.nan, 1e-3))
        assert rep.checks(3.0) == {"eu_within_tol": False, "ep_within_tol": True,
                                   "passed": False}

    def test_half_normal_ep_never_gates(self):
        rep = hand_report(PopulationKind.HALF_NORMAL, analytic=(0.09, 0.12), mc=(0.09, 0.07))
        assert rep.checks(3.0) == {"eu_within_tol": True, "ep_within_tol": None,
                                   "passed": True}
        off = hand_report(PopulationKind.HALF_NORMAL, analytic=(0.09, 0.12), mc=(0.1, 0.12))
        assert off.checks(3.0)["passed"] is False


def order_pairs(extra=()):
    """(e_u, e_p) pairs: every pair of edge values, both ways round, and gaps
    just under, at and over 1e-12 relative at magnitudes up to 1e300 (at
    subnormal magnitudes 1e-12 of the 1e-300 floor, which a gap can equal)."""
    values = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 0.5,
              1.0, -1.0, 3.0, 1e160, 1e300, -1e300, *extra]
    pairs = list(itertools.product(values, repeat=2))
    for x in (0.0, 5e-324, 1e-310, 1e-300, 1e-12, 1.0, 3.0, 1e160, 1e300, -1.0, -1e300):
        gap = 1e-12 * max(abs(x), 1e-300)
        for g in (math.nextafter(gap, 0.0), gap, math.nextafter(gap, math.inf)):
            pairs += [(x, x + g), (x + g, x), (x, x - g), (x - g, x)]
        pairs += [(x, math.nextafter(x, math.inf)), (x, math.nextafter(x, -math.inf))]
    return pairs


class TestOrderRule:
    """sampler._order with rel 1e-12 is the closed forms' old rule and with
    rel 0.0 the Monte Carlo one, value for value."""

    def test_rel_1e_12_is_the_analytic_rule(self):
        for e_u, e_p in order_pairs():
            assert sampler._order(e_u, e_p, 1e-12) is reference.analytic_ordering(e_u, e_p), (
                e_u, e_p)

    def test_rel_0_is_the_mc_rule(self):
        for e_u, e_p in order_pairs(extra=(math.inf, -math.inf, math.nan)):
            assert sampler._order(e_u, e_p, 0.0) is reference.mc_ordering(e_u, e_p), (e_u, e_p)

    def test_grid_meets_every_outcome(self):
        analytic = {reference.analytic_ordering(*p) for p in order_pairs()}
        assert analytic == set(Ordering)


class TestFarTail:
    """rate*sigma past ~38, where erfc(rate*sigma/sqrt 2) underflows to 0."""

    def test_half_normal_far_tail_is_finite(self):
        sigma, rate = 20.0, 2.0
        assert math.erfc(rate * sigma / math.sqrt(2.0)) == 0.0
        pop = LossPopulation(PopulationKind.HALF_NORMAL, mu=0.0, sigma=sigma)
        e_u, e_p, diamond = analytic_expected_errors(pop, rate)
        assert all(math.isfinite(v) for v in (e_u, e_p, diamond))
        # the diamond term is still the tilted mean shift
        truth = tilted_moment(lambda x: half_pdf(x, 0.0, sigma), rate, 1, 0.0, 40.0)
        assert -rate * sigma * sigma + diamond == pytest.approx(truth, rel=1e-9)
        assert np.all(np.isfinite(pop.log_tilt_ratio(np.array([0.0, 0.5, 30.0]), rate)))
        report = compare_conditions(pop, rate, 4000, SeededRng(8))
        assert all(math.isfinite(v) for v in (report.mc_eu, report.mc_ep, report.diamond))

    def test_tilted_draws_resolve_the_far_tail(self):
        # ndtr(-rate*sigma) underflows to 0 here, so draws inverted in linear
        # space would all clip to one quantile (e_p ~ 4003 against ~239)
        sigma, rate = 20.0, 2.0
        pop = LossPopulation(PopulationKind.HALF_NORMAL, mu=0.0, sigma=sigma)
        c = pop.population_mean()
        moments = [tilted_moment(lambda x: half_pdf(x, 0.0, sigma), rate, k, 0.0, 40.0)
                   for k in (1, 2)]
        truth = moments[1] - 2.0 * c * moments[0] + c * c
        assert truth == pytest.approx(239.2085, abs=1e-4)
        est, se = mc_expected_errors(pop, SelectionCondition(SelectionMode.EXPONENTIAL, rate),
                                     20_000, SeededRng(5))
        assert abs(est - truth) <= 4.0 * se
        draws = pop.tilted_quantile(np.array([1e-300, 0.5, 1.0 - 2.0 ** -53]), rate)
        assert draws[0] == pytest.approx(0.0, abs=1e-12) and np.all(np.diff(draws) > 0.0)

    def test_erfcx_forms_match_the_erfc_forms(self):
        for sigma in (0.1, 0.5, 1.0, 2.0, 5.0):
            for rate in (0.5, 1.0, 2.0):
                x = sigma * rate / math.sqrt(2.0)
                pop = LossPopulation(PopulationKind.HALF_NORMAL, mu=0.2, sigma=sigma)
                _, _, diamond = analytic_expected_errors(pop, rate)
                direct = (math.sqrt(2.0) * sigma * math.exp(-x * x)
                          / (math.sqrt(math.pi) * math.erfc(x)))
                assert diamond == pytest.approx(direct, rel=1e-13)
                l = np.array([0.2, 0.7, 3.0])
                got = pop.log_tilt_ratio(l, rate)
                want = -rate * (l - 0.2) - x * x - math.log(math.erfc(x))
                assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(np.abs(want), 1.0))


    @pytest.mark.parametrize("sigma", [13.0, 20.0])
    def test_normal_heavy_tilt_weights_stay_finite(self, sigma, tmp_path):
        # rate*sigma = 26 and 40: the P log-weights reach (rate*sigma)^2/2 + ln 2,
        # so w^2 (at 26) or w itself (at 40) overflows unless they are shifted
        pop = LossPopulation(PopulationKind.NORMAL, mu=0.0, sigma=sigma)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = compare_conditions(pop, 2.0, 100_000, SeededRng(3))
        assert math.isfinite(rep.mc_ep_stderr) and rep.mc_ep_stderr > 0.0
        assert abs(rep.mc_ep - rep.analytic_ep) <= 3.0 * rep.mc_ep_stderr

        def refuse(token):
            raise ValueError(f"report holds {token}, which is not JSON")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["simulate", "--output-dir", str(tmp_path), "--n", "100000",
                         "--populations", "normal", "--sigmas", f"{sigma:g}", "--rates", "2"])
        report = json.loads((tmp_path / f"report_normal_s{sigma:g}_r2.json").read_text(),
                            parse_constant=refuse)
        assert code == 0 and report["checks"]["passed"] is True
        assert report["ordering"]["mc"] == "u_beats_p"


# (kind, sigma, rate) points for the kernel references, up to rate*sigma = 40.
KERNEL_POINTS = [
    (kind, sigma, rate)
    for kind in PopulationKind for sigma in (0.1, 2.0, 20.0) for rate in (0.5, 2.0)
]


class TestInPlaceKernels:
    """The workspace kernels against the allocating reference bodies."""

    @pytest.mark.parametrize("kind,sigma,rate", KERNEL_POINTS)
    def test_chunk_sums_are_bitwise_equal(self, kind, sigma, rate):
        pop = LossPopulation(kind, mu=0.2, sigma=sigma)
        center = pop.population_mean()
        # One workspace for every call, so values left by an earlier chunk
        # would show; U's kernel also runs on a fresh workspace of its own
        # size.  P's kernel reads the uniforms and draws U's kernel left in
        # the workspace.  The kernels' sums are in units of 2^k, scaled back.
        k_u, k_p = sampler._error_exponent(pop), sampler._error_exponent(pop, rate)
        work = sampler._workspace(600)
        for n in (1, 2, 1001, 9000):
            for i, (start, size) in enumerate(chunk_blocks(n)):
                if not size:
                    continue
                name = f"u/{n}/{i}"
                want_u = ref_uniform_chunk(pop, center, start, size, n, SeededRng(5).derive(name))
                want_p = ref_tilted_chunk(pop, center, rate, start, size, n,
                                          SeededRng(5).derive(name))
                fresh = sampler._uniform_chunk(pop, center, start, size, n,
                                               SeededRng(5).derive(name), sampler._workspace(size))
                assert scaled_back(fresh, k_u) == want_u
                shared = sampler._uniform_chunk(pop, center, start, size, n,
                                                SeededRng(5).derive(name), work)
                assert scaled_back(shared, k_u) == want_u
                assert scaled_back(sampler._tilted_chunk(pop, center, rate, size, work),
                                   k_p) == want_p

    @pytest.mark.parametrize("kind,sigma,rate", KERNEL_POINTS)
    def test_p_draws_are_the_tilted_quantile_at_u_uniforms(self, kind, sigma, rate):
        pop = LossPopulation(kind, mu=0.2, sigma=sigma)
        center = pop.population_mean()
        work = sampler._workspace(700)
        sampler._uniform_chunk(pop, center, 300, 700, 16_000, SeededRng(9), work)
        u = work[1].copy()
        sampler._tilted_chunk(pop, center, rate, 700, work)
        want = pop.tilted_quantile(u, rate) - center
        if kind is PopulationKind.HALF_NORMAL:
            assert work[0].tobytes() == want.tobytes()
        else:
            # the shift is applied after centering, a rounding apart
            scale = abs(pop.mu) + rate * sigma * sigma + sigma * np.abs(ndtri(u))
            assert np.all(np.abs(work[0] - want) <= 4e-16 * scale)

    @pytest.mark.parametrize("kind", list(PopulationKind))
    def test_out_argument_matches_the_allocating_call(self, kind):
        pop = LossPopulation(kind, mu=0.3, sigma=1.7)
        u = np.random.default_rng(0).random(257)
        calls = [
            (lambda x, **kw: pop.quantile(x, **kw), ref_quantile(pop, u)),
            (lambda x, **kw: pop.tilted_quantile(x, 1.3, **kw), ref_tilted_quantile(pop, u, 1.3)),
            (lambda x, **kw: pop.log_tilt_ratio(x, 1.3, **kw), ref_log_tilt_ratio(pop, u, 1.3)),
        ]
        for call, want in calls:
            before = u.tobytes()
            fresh = call(u)
            assert u.tobytes() == before
            assert fresh.tobytes() == want.tobytes()
            out = np.full_like(u, np.nan)
            assert call(u, out=out) is out
            assert out.tobytes() == want.tobytes()
            alias = u.copy()
            assert call(alias, out=alias) is alias
            assert alias.tobytes() == want.tobytes()


class TestWideScales:
    """Errors far from unit scale are summed in units of an exact power of two."""

    # sigma = 2^k with the rate scaled by 2^-k draws the unit population's
    # errors times 2^k exactly, so both estimates and standard errors are the
    # unit ones times 2^2k.  Unscaled, the fourth powers overflow at k = 300
    # and underflow to zero at k = -400.
    @pytest.mark.parametrize("kind", list(PopulationKind))
    @pytest.mark.parametrize("k", [-400, 150, 300])
    def test_power_of_two_populations_scale_the_unit_estimates(self, kind, k):
        rate = 1.5
        unit = LossPopulation(kind, mu=0.25, sigma=1.0)
        wide = LossPopulation(kind, mu=math.ldexp(0.25, k), sigma=math.ldexp(1.0, k))
        assert sampler._error_exponent(wide, math.ldexp(rate, -k)) != 0
        for mode in SelectionMode:
            want = mc_expected_errors(unit, SelectionCondition(mode, rate), 20_000, SeededRng(4))
            got = mc_expected_errors(wide, SelectionCondition(mode, math.ldexp(rate, -k)),
                                     20_000, SeededRng(4))
            assert got == tuple(math.ldexp(x, 2 * k) for x in want), mode
            assert got[1] > 0.0

    @pytest.mark.parametrize("kind", list(PopulationKind))
    def test_default_grid_sums_scale_back_to_the_unscaled_sums(self, kind):
        # Scaling by a power of two is exact, so at every default-grid point
        # each chunk's scaled sums, scaled back, are the unscaled ones.
        n = 1_000_000
        work = sampler._workspace(n // sampler._MC_CHUNKS)
        for sigma, rate in itertools.product((0.1, 0.5, 1.0, 2.0), (0.5, 1.0, 2.0)):
            pop = LossPopulation(kind, sigma=sigma)
            center = pop.population_mean()
            k_u, k_p = sampler._error_exponent(pop), sampler._error_exponent(pop, rate)
            for i, (start, size) in enumerate(chunk_blocks(n)):
                name = f"u/chunk{i}"
                u = sampler._uniform_chunk(pop, center, start, size, n, SeededRng(0).derive(name),
                                           work)
                p = sampler._tilted_chunk(pop, center, rate, size, work)
                assert scaled_back(u, k_u) == ref_uniform_chunk(
                    pop, center, start, size, n, SeededRng(0).derive(name)), (sigma, i)
                assert scaled_back(p, k_p) == ref_tilted_chunk(
                    pop, center, rate, start, size, n, SeededRng(0).derive(name)), (sigma, rate, i)

    def test_an_estimate_past_float_max_reads_inf(self):
        # sigma^2 overflows: the scaled sums stay finite and only the
        # estimate and its SE, scaled back, do not
        pop = LossPopulation(PopulationKind.NORMAL, sigma=1e200)
        est, se = mc_expected_errors(pop, SelectionCondition(SelectionMode.UNIFORM), 1_000,
                                     SeededRng(5))
        assert est == math.inf and se == math.inf

    def test_extreme_widths_give_a_finite_scale(self):
        for sigma in (5e-324, 1e-300, 1e300, 1.7976931348623157e308):
            for kind in PopulationKind:
                k = sampler._error_exponent(LossPopulation(kind, sigma=sigma), 1e-300)
                assert math.isfinite(math.ldexp(1.0, -k)) and math.ldexp(1.0, -k) > 0.0


class TestMonteCarlo:
    def test_normal_hits_both_closed_forms(self):
        pop = LossPopulation(PopulationKind.NORMAL, mu=0.0, sigma=0.5)
        rep = compare_conditions(pop, 1.0, 200_000, SeededRng(0))
        assert abs(rep.mc_eu - 0.25) <= 3.0 * rep.mc_eu_stderr
        assert abs(rep.mc_ep - 0.3125) <= 3.0 * rep.mc_ep_stderr
        assert 0.0 < rep.mc_eu_stderr < 0.01
        assert 0.0 < rep.mc_ep_stderr < 0.01

    def test_normal_survives_heavy_tilt_corner(self):
        # rate*sigma = 4 is where naive importance weighting collapses
        pop = LossPopulation(PopulationKind.NORMAL, mu=0.0, sigma=2.0)
        rep = compare_conditions(pop, 2.0, 200_000, SeededRng(0))
        assert abs(rep.mc_ep - (4.0 * 16.0 + 4.0)) <= 3.0 * rep.mc_ep_stderr

    def test_half_normal_tracks_quadrature_truth(self):
        # the estimator follows the true tilted error, not the transcribed form
        pop = LossPopulation(PopulationKind.HALF_NORMAL, mu=0.0, sigma=0.5)
        rep = compare_conditions(pop, 1.0, 400_000, SeededRng(1))
        truth = 0.07326719417058561
        assert abs(rep.mc_ep - truth) <= 4.0 * rep.mc_ep_stderr
        assert abs(rep.mc_ep - rep.analytic_ep) > 10.0 * rep.mc_ep_stderr

    def test_half_normal_empirical_ordering_flips(self):
        # transcribed closed forms order E_U < E_P; the measured errors
        # order the other way, which is the disagreement the report surfaces
        pop = LossPopulation(PopulationKind.HALF_NORMAL, mu=0.0, sigma=0.5)
        rep = compare_conditions(pop, 1.0, 400_000, SeededRng(1))
        assert rep.analytic_eu < rep.analytic_ep
        assert rep.mc_ep + 3.0 * rep.mc_ep_stderr < rep.mc_eu - 3.0 * rep.mc_eu_stderr

    def test_worker_count_is_invisible(self, monkeypatch):
        # distinct threads that ran chunks, per compare_conditions pass
        threads = set()
        kernel = sampler._uniform_chunk

        def counted(*args):
            threads.add(threading.get_ident())
            return kernel(*args)
        monkeypatch.setattr(sampler, "_uniform_chunk", counted)
        pop = LossPopulation(PopulationKind.HALF_NORMAL, mu=0.1, sigma=0.7)
        results, lanes = {}, {}
        for workers in (1, 2, 4, 32):
            threads.clear()
            r = compare_conditions(pop, 1.5, 50_000, SeededRng(7), workers=workers)
            results[workers] = (r.mc_eu, r.mc_eu_stderr, r.mc_ep, r.mc_ep_stderr)
            lanes[workers] = len(threads)
        assert len(set(results.values())) == 1
        # a lane per requested worker would start 32 threads for 16 chunks
        assert lanes[1] == 1 and lanes[2] <= 2 and lanes[4] <= 4
        assert lanes[32] <= sampler._MC_CHUNKS

    def test_a_nan_sum_gives_a_nan_stderr(self, monkeypatch):
        # max(0.0, nan) is 0.0; a broken sum must not read as a zero error
        pop = LossPopulation(PopulationKind.NORMAL, mu=0.0, sigma=1.0)
        u_cond = SelectionCondition(SelectionMode.UNIFORM)
        p_cond = SelectionCondition(SelectionMode.EXPONENTIAL)
        monkeypatch.setattr(sampler, "_tilted_chunk", lambda *a: (1.0, math.nan))
        assert math.isnan(mc_expected_errors(pop, p_cond, 1_000, SeededRng(0))[1])
        assert math.isfinite(mc_expected_errors(pop, u_cond, 1_000, SeededRng(0))[1])
        monkeypatch.setattr(sampler, "_uniform_chunk", lambda *a: (1.0, math.nan))
        assert math.isnan(mc_expected_errors(pop, u_cond, 1_000, SeededRng(0))[1])

    def test_same_seed_reproduces_and_seeds_differ(self):
        pop = LossPopulation(PopulationKind.NORMAL, mu=0.0, sigma=1.0)
        cond = SelectionCondition(SelectionMode.EXPONENTIAL, rate=1.0)
        a = mc_expected_errors(pop, cond, 10_000, SeededRng(5))
        b = mc_expected_errors(pop, cond, 10_000, SeededRng(5))
        c = mc_expected_errors(pop, cond, 10_000, SeededRng(6))
        assert a == b
        assert a[0] != c[0]

    def test_error_shrinks_with_n(self):
        pop = LossPopulation(PopulationKind.NORMAL, mu=0.0, sigma=1.0)
        cond = SelectionCondition(SelectionMode.EXPONENTIAL, rate=1.0)
        truth = 2.0  # rate^2 sigma^4 + sigma^2
        _, small_se = mc_expected_errors(pop, cond, 4_000, SeededRng(11))
        big, big_se = mc_expected_errors(pop, cond, 256_000, SeededRng(11))
        assert big_se < 0.25 * small_se
        assert abs(big - truth) < 0.01

    def test_uniform_report_carries_its_own_rate_closed_forms(self):
        pop = LossPopulation(PopulationKind.HALF_NORMAL, mu=0.0, sigma=1.0)
        e_u, e_p, diamond = analytic_expected_errors(pop, 2.0)
        assert e_p == pytest.approx(0.4150, abs=1e-4)
        assert diamond == pytest.approx(2.3732, abs=1e-4)
        both = compare_conditions(pop, 2.0, 1_000, SeededRng(2))
        assert (both.analytic_eu, both.analytic_ep, both.diamond) == (e_u, e_p, diamond)
        assert (both.rate, both.n_samples, both.seed) == (2.0, 1_000, 2)

    # U's (estimate, standard error) at this point when P still had its own
    # substream; sharing U's draws with P must leave them bit for bit.  They
    # are the values at mu 0, where every pass now draws.
    U_BEFORE_SHARING = {
        PopulationKind.NORMAL: (0.6423074636141337, 0.020685274852716626),
        PopulationKind.HALF_NORMAL: (0.23348387596714018, 0.00911734026608434),
    }

    @pytest.mark.parametrize("kind", list(PopulationKind))
    def test_both_conditions_share_the_cond_u_substreams(self, kind):
        pop = LossPopulation(kind, mu=0.1, sigma=0.8)
        n, rate, rng = 2_000, 1.5, SeededRng(4)
        rep = compare_conditions(pop, rate, n, rng, workers=2)
        assert isinstance(rep, ErrorReport)
        assert (rep.mc_eu, rep.mc_eu_stderr) == self.U_BEFORE_SHARING[kind]
        sub = rng.derive("cond-u")
        u = mc_expected_errors(pop, SelectionCondition(SelectionMode.UNIFORM, rate), n, sub)
        p = mc_expected_errors(pop, SelectionCondition(SelectionMode.EXPONENTIAL, rate), n, sub)
        assert (rep.mc_eu, rep.mc_eu_stderr) == u
        assert (rep.mc_ep, rep.mc_ep_stderr) == p
        assert all(type(v) is float for v in (*u, *p))
        # chunk i of both conditions reads the uniforms of cond-u's u/chunk{i},
        # drawn from the population moved to mu 0
        pop = LossPopulation(kind, mu=0.0, sigma=0.8)
        center = pop.population_mean()
        sums = [ref_uniform_chunk(pop, center, st, sz, n, sub.derive(f"u/chunk{i}"))
                + ref_tilted_chunk(pop, center, rate, st, sz, n, sub.derive(f"u/chunk{i}"))
                for i, (st, sz) in enumerate(chunk_blocks(n))]
        s1u, s2u, s1p, s2p = map(sum, zip(*sums))
        assert ref_mean_and_stderr(s1u, s2u, n) == u
        assert ref_mean_and_stderr(s1p, s2p, n) == p

    @pytest.mark.parametrize("kind", list(PopulationKind))
    def test_mu_only_shifts_the_population(self, kind):
        # Draws of size sigma added to a far larger mu would round away and
        # read every error as 0; the pass draws at mu 0 instead.
        for mode in SelectionMode:
            cond = SelectionCondition(mode, 1.0)
            pairs = {mc_expected_errors(LossPopulation(kind, mu=mu, sigma=1.0), cond, 20_000,
                                        SeededRng(3))
                     for mu in (0.0, 1e8, 1e17, -1e30)}
            assert len(pairs) == 1, (mode, pairs)
            assert next(iter(pairs))[1] > 0.0

    def test_overflowing_closed_form_raises_before_any_draw(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a chunk ran")
        monkeypatch.setattr(sampler, "_uniform_chunk", refuse)
        monkeypatch.setattr(sampler, "_tilted_chunk", refuse)
        for kind in PopulationKind:
            pop = LossPopulation(kind, mu=0.0, sigma=1e200)
            with pytest.raises(ValueError, match="not finite"):
                compare_conditions(pop, 1.0, 1_000, SeededRng(0))

    def test_n_validation(self):
        # One draw has no sample standard error, under either condition.
        pop = LossPopulation(PopulationKind.NORMAL, mu=0.0, sigma=1.0)
        for n, mode in [(0, SelectionMode.UNIFORM)] + [(1, m) for m in SelectionMode]:
            with pytest.raises(ValueError, match="n must be >= 2"):
                mc_expected_errors(pop, SelectionCondition(mode), n, SeededRng(0))


class TestGrid:
    """compare_grid runs every point's chunks in one pool."""

    @staticmethod
    def grid():
        """Four points: normal and half-normal, two sigmas, two rates."""
        return [(LossPopulation(PopulationKind.NORMAL, 0.1, 0.5), 0.5, SeededRng(40)),
                (LossPopulation(PopulationKind.HALF_NORMAL, 0.1, 0.5), 1.5, SeededRng(41)),
                (LossPopulation(PopulationKind.NORMAL, -0.3, 2.0), 1.5, SeededRng(42)),
                (LossPopulation(PopulationKind.HALF_NORMAL, 0.0, 2.0), 0.5, SeededRng(43))]

    @pytest.mark.parametrize("workers", [1, 2, 4, 32])
    def test_each_point_is_its_own_compare_conditions(self, workers):
        reports = compare_grid(self.grid(), 3_000, workers)
        assert len(reports) == 4
        for report, (pop, rate, rng) in zip(reports, self.grid()):
            assert report == compare_conditions(pop, rate, 3_000, rng)

    @pytest.mark.parametrize("workers", [1, 2, 4, 32])
    def test_a_grid_allocates_one_workspace_per_lane(self, workers, monkeypatch):
        threads, workspaces = set(), []
        kernel, workspace = sampler._uniform_chunk, sampler._workspace

        def counted_kernel(*args):
            threads.add(threading.get_ident())
            return kernel(*args)

        def counted_workspace(size):
            workspaces.append(size)
            return workspace(size)
        monkeypatch.setattr(sampler, "_uniform_chunk", counted_kernel)
        monkeypatch.setattr(sampler, "_workspace", counted_workspace)
        compare_grid(self.grid(), 3_000, workers)
        lanes = min(workers, sampler._MC_CHUNKS)
        assert len(workspaces) == lanes
        assert 1 <= len(threads) <= lanes

    def test_every_chunk_runs_once_under_fast_thread_switching(self, monkeypatch):
        # The lanes share one task counter; a task taken twice or skipped
        # would change a point's sums.  More lanes than cores, switching often.
        calls = []
        kernel = sampler._uniform_chunk

        def counted(*args):
            calls.append(args[2])
            return kernel(*args)
        want = compare_grid(self.grid(), 3_000, 1)
        monkeypatch.setattr(sampler, "_uniform_chunk", counted)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = compare_grid(self.grid(), 3_000, 16)
        finally:
            sys.setswitchinterval(interval)
        assert got == want
        assert len(calls) == 4 * sampler._MC_CHUNKS

    def test_a_bad_later_point_raises_before_any_draw(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a chunk ran")
        monkeypatch.setattr(sampler, "_uniform_chunk", refuse)
        grid = self.grid() + [(LossPopulation(PopulationKind.NORMAL, 0.0, 1e200), 1.0,
                               SeededRng(0))]
        with pytest.raises(ValueError, match="not finite"):
            compare_grid(grid, 1_000, 2)


class TestCycleSim:
    def test_entry_count_includes_initial_population(self):
        out = distribution_cycle_sim(500, 12, SeededRng(3))
        assert len(out) == 13
        assert len(distribution_cycle_sim(500, 0, SeededRng(3))) == 1

    def test_uniform_selection_drifts_skew_positive(self):
        out = distribution_cycle_sim(4000, 60, SeededRng(0), schedule="uniform")
        assert out[-1].skewness > 0.5

    def test_exponential_selection_pulls_skew_down(self):
        out = distribution_cycle_sim(4000, 10, SeededRng(0),
                                     schedule="exponential", init="half_normal")
        sk = [s.skewness for s in out]
        assert sk[0] > 0.5
        assert min(sk[:11]) < 0.2
        assert sk[10] < sk[0]

    def test_alternating_schedule_oscillates(self):
        out = distribution_cycle_sim(4000, 100, SeededRng(0), schedule="alternating")
        sk = np.array([s.skewness for s in out])
        flips = int(np.sum(np.sign(sk[1:]) != np.sign(sk[:-1])))
        assert flips >= 10

    def test_validation(self):
        with pytest.raises(ValueError):
            distribution_cycle_sim(0, 5, SeededRng(0))
        with pytest.raises(ValueError):
            distribution_cycle_sim(10, -1, SeededRng(0))
        with pytest.raises(ValueError):
            distribution_cycle_sim(10, 5, SeededRng(0), schedule="bogus")
        with pytest.raises(ValueError):
            distribution_cycle_sim(10, 5, SeededRng(0), init="bogus")
