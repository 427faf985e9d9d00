"""Selection-condition error estimators and the distribution cycle loop."""

import json
import math
import threading
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfcx, log_ndtr, ndtri, ndtri_exp

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
    distribution_cycle_sim,
    mc_expected_errors,
    ordering_check,
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


def ref_tilted_chunk(pop, center, rate, pop_block, til_block, rng):
    gen = rng.generator
    p_start, p_size, n_pop = pop_block
    t_start, t_size, n_til = til_block
    parts = []
    if p_size:
        parts.append(ref_quantile(pop, ref_stratified_uniforms(p_start, p_size, n_pop, gen)))
    if t_size:
        parts.append(ref_tilted_quantile(
            pop, ref_stratified_uniforms(t_start, t_size, n_til, gen), rate))
    l = np.concatenate(parts)
    y = (l - center) ** 2
    log_w = -rate * (l - center)
    n_all = n_pop + n_til
    if n_pop and n_til:
        log_w = log_w - np.logaddexp(
            math.log(n_pop / n_all),
            math.log(n_til / n_all) + ref_log_tilt_ratio(pop, l, rate),
        )
    elif n_til:
        log_w = log_w - ref_log_tilt_ratio(pop, l, rate)
    w = np.exp(log_w)
    wy = w * y
    return (
        float(np.sum(w)),
        float(np.sum(wy)),
        float(np.sum(w * w)),
        float(np.sum(w * wy)),
        float(np.sum(wy * wy)),
    )


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
                assert ordering_check(pop, rate) is Ordering.U_BEATS_P

    def test_ordering_half_normal_transcribed_direction(self):
        pop = LossPopulation(PopulationKind.HALF_NORMAL, mu=0.0, sigma=0.5)
        assert ordering_check(pop, 1.0) is Ordering.U_BEATS_P

    def test_rate_validation(self):
        pop = LossPopulation(PopulationKind.NORMAL, mu=0.0, sigma=1.0)
        with pytest.raises(ValueError):
            analytic_expected_errors(pop, 0.0)
        with pytest.raises(ValueError):
            SelectionCondition(SelectionMode.EXPONENTIAL, rate=-1.0)
        with pytest.raises(ValueError):
            SelectionCondition(SelectionMode.UNIFORM, rate=0.0)


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
        rep = mc_expected_errors(pop, SelectionCondition(SelectionMode.EXPONENTIAL, rate),
                                 20_000, SeededRng(5))
        assert abs(rep.mc_ep - truth) <= 4.0 * rep.mc_ep_stderr
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


# (kind, sigma, rate) points for the kernel references.  The normal at
# rate*sigma = 40 is left out: the reference overflows there, and the kernel
# shifts its log-weights (TestFarTail covers that point).
KERNEL_POINTS = [
    (kind, sigma, rate)
    for kind in PopulationKind for sigma in (0.1, 2.0, 20.0) for rate in (0.5, 2.0)
    if not (kind is PopulationKind.NORMAL and sigma * rate > 24.0)
]


class TestInPlaceKernels:
    """The workspace kernels against the allocating reference bodies."""

    @pytest.mark.parametrize("kind,sigma,rate", KERNEL_POINTS)
    def test_chunk_sums_are_bitwise_equal(self, kind, sigma, rate):
        pop = LossPopulation(kind, mu=0.2, sigma=sigma)
        center = pop.population_mean()
        # One workspace for every call, so values left by an earlier chunk
        # would show; each kernel also runs on its own fresh workspace.
        work = sampler._workspace(600)

        def check_uniform(start, size, n, name):
            want = ref_uniform_chunk(pop, center, start, size, n, SeededRng(5).derive(name))
            for w in (work, None):
                got = sampler._uniform_chunk(pop, center, start, size, n,
                                             SeededRng(5).derive(name), w)
                assert got == want

        def check_tilted(pop_block, til_block, name):
            want = ref_tilted_chunk(pop, center, rate, pop_block, til_block,
                                    SeededRng(5).derive(name))
            for w in (work, None):
                got = sampler._tilted_chunk(pop, center, rate, pop_block, til_block,
                                            SeededRng(5).derive(name), w)
                assert got == want

        for n in (1, 2, 1001, 9000):    # n = 1 has no tilted draws
            for i, (start, size) in enumerate(chunk_blocks(n)):
                if size:
                    check_uniform(start, size, n, f"u/{n}/{i}")
            n_pop, n_til = (n + 1) // 2, n // 2
            for i, ((ps, pz), (ts, tz)) in enumerate(zip(chunk_blocks(n_pop), chunk_blocks(n_til))):
                if pz + tz:
                    check_tilted((ps, pz, n_pop), (ts, tz, n_til), f"p/{n}/{i}")
        # chunks with no population draws; n_pop = 0 takes the tilted-only branch
        check_tilted((0, 0, 7), (3, 5, 8), "p/empty")
        check_tilted((0, 0, 0), (3, 5, 8), "p/tilted-only")

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
        # distinct threads that ran chunks, per mc_expected_errors call
        threads, per_call = set(), []
        for name in ("_uniform_chunk", "_tilted_chunk"):
            kernel = getattr(sampler, name)

            def counted(*args, _kernel=kernel):
                threads.add(threading.get_ident())
                return _kernel(*args)
            monkeypatch.setattr(sampler, name, counted)
        one_condition = sampler.mc_expected_errors

        def counted_condition(*args, **kwargs):
            threads.clear()
            report = one_condition(*args, **kwargs)
            per_call.append(len(threads))
            return report
        monkeypatch.setattr(sampler, "mc_expected_errors", counted_condition)
        pop = LossPopulation(PopulationKind.HALF_NORMAL, mu=0.1, sigma=0.7)
        results = {}
        for workers in (1, 2, 4, 32):
            r = compare_conditions(pop, 1.5, 50_000, SeededRng(7), workers=workers)
            results[workers] = (r.mc_eu, r.mc_eu_stderr, r.mc_ep, r.mc_ep_stderr)
        assert len(set(results.values())) == 1
        # a lane per requested worker would start 32 threads for 16 chunks
        assert len(per_call) == 8 and per_call[:2] == [1, 1]
        assert max(per_call) <= sampler._MC_CHUNKS

    def test_a_nan_sum_gives_a_nan_stderr(self, monkeypatch):
        # max(0.0, nan) is 0.0; a broken sum must not read as a zero error
        pop = LossPopulation(PopulationKind.NORMAL, mu=0.0, sigma=1.0)
        monkeypatch.setattr(sampler, "_uniform_chunk", lambda *a: (1.0, math.nan))
        monkeypatch.setattr(sampler, "_tilted_chunk", lambda *a: (1.0, 1.0, 1.0, math.nan, 1.0))
        for mode in SelectionMode:
            rep = mc_expected_errors(pop, SelectionCondition(mode), 1_000, SeededRng(0))
            se = rep.mc_eu_stderr if mode is SelectionMode.UNIFORM else rep.mc_ep_stderr
            assert math.isnan(se)

    def test_same_seed_reproduces_and_seeds_differ(self):
        pop = LossPopulation(PopulationKind.NORMAL, mu=0.0, sigma=1.0)
        cond = SelectionCondition(SelectionMode.EXPONENTIAL, rate=1.0)
        a = mc_expected_errors(pop, cond, 10_000, SeededRng(5))
        b = mc_expected_errors(pop, cond, 10_000, SeededRng(5))
        c = mc_expected_errors(pop, cond, 10_000, SeededRng(6))
        assert a.mc_ep == b.mc_ep and a.mc_ep_stderr == b.mc_ep_stderr
        assert a.mc_ep != c.mc_ep

    def test_error_shrinks_with_n(self):
        pop = LossPopulation(PopulationKind.NORMAL, mu=0.0, sigma=1.0)
        cond = SelectionCondition(SelectionMode.EXPONENTIAL, rate=1.0)
        truth = 2.0  # rate^2 sigma^4 + sigma^2
        small = mc_expected_errors(pop, cond, 4_000, SeededRng(11))
        big = mc_expected_errors(pop, cond, 256_000, SeededRng(11))
        assert big.mc_ep_stderr < 0.25 * small.mc_ep_stderr
        assert abs(big.mc_ep - truth) < 0.01

    def test_uniform_report_leaves_ep_unset(self):
        pop = LossPopulation(PopulationKind.NORMAL, mu=0.0, sigma=1.0)
        rep = mc_expected_errors(
            pop, SelectionCondition(SelectionMode.UNIFORM), 10_000, SeededRng(2))
        assert isinstance(rep, ErrorReport)
        assert rep.mc_eu is not None and rep.mc_ep is None
        assert rep.n_samples == 10_000 and rep.seed == 2

    def test_uniform_report_carries_its_own_rate_closed_forms(self):
        pop = LossPopulation(PopulationKind.HALF_NORMAL, mu=0.0, sigma=1.0)
        u = mc_expected_errors(pop, SelectionCondition(SelectionMode.UNIFORM, 2.0),
                               1_000, SeededRng(2))
        e_u, e_p, diamond = analytic_expected_errors(pop, 2.0)
        assert (u.analytic_eu, u.analytic_ep, u.diamond) == (e_u, e_p, diamond)
        assert u.analytic_ep == pytest.approx(0.4150, abs=1e-4)
        assert u.diamond == pytest.approx(2.3732, abs=1e-4)
        both = compare_conditions(pop, 2.0, 1_000, SeededRng(2))
        assert (both.analytic_eu, both.analytic_ep, both.diamond) == (e_u, e_p, diamond)
        assert (both.rate, both.n_samples, both.seed) == (2.0, 1_000, 2)

    def test_n_validation(self):
        pop = LossPopulation(PopulationKind.NORMAL, mu=0.0, sigma=1.0)
        with pytest.raises(ValueError):
            mc_expected_errors(pop, SelectionCondition(SelectionMode.UNIFORM), 0, SeededRng(0))


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
