"""Lambert W, loss statistics, and seeded RNG plumbing."""

import math
import time

import numpy as np
import pytest
import scipy.special

from crucial.numerics import (
    SeededRng,
    W_DOMAIN_MIN,
    derive_seed,
    lambert_w0,
    lambert_w0_array,
    loss_stats,
)


class TestLambertW:
    def test_known_values(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-15)
        assert lambert_w0(1.0) == pytest.approx(0.5671432904097838, abs=1e-15)
        assert lambert_w0(-1.0 / math.e) == -1.0

    def test_defining_equation_residual_on_grid(self):
        xs = np.linspace(W_DOMAIN_MIN, 10.0, 10_000)
        t0 = time.perf_counter()
        worst = 0.0
        for x in xs:
            w = lambert_w0(float(x))
            worst = max(worst, abs(w * math.exp(w) - x))
        elapsed = time.perf_counter() - t0
        assert worst <= 1e-12
        assert elapsed < 1.0

    def test_against_scipy_reference(self):
        # away from the branch point the problem is well conditioned
        xs = np.concatenate([
            np.linspace(-0.3, 2.0, 500),
            np.geomspace(2.0, 1e6, 200),
        ])
        for x in xs:
            ours = lambert_w0(float(x))
            ref = float(scipy.special.lambertw(float(x)).real)
            assert ours == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_against_scipy_near_branch_point(self):
        # dW/dx blows up like 1/sqrt(x + 1/e): a 1e-12 equation residual only
        # pins W to about 1e-6 at distance 1e-12 from the branch point
        for x in np.geomspace(1e-12, 1e-2, 60):
            ours = lambert_w0(W_DOMAIN_MIN + float(x))
            ref = float(scipy.special.lambertw(W_DOMAIN_MIN + float(x)).real)
            assert ours == pytest.approx(ref, abs=2e-6)

    def test_monotonic_increasing(self):
        xs = np.linspace(W_DOMAIN_MIN, 20.0, 4000)
        ws = [lambert_w0(float(x)) for x in xs]
        assert all(b > a for a, b in zip(ws, ws[1:]))

    def test_domain_error_below_branch_point(self):
        with pytest.raises(ValueError):
            lambert_w0(W_DOMAIN_MIN - 1e-9)

    def test_tiny_undershoot_is_clamped(self):
        # values inside the floating-point slack of the branch point land on -1
        assert lambert_w0(W_DOMAIN_MIN - 1e-16) == -1.0


class TestLambertWArray:
    def test_matches_the_scalar_reference(self):
        gap = np.concatenate([np.geomspace(1e-8, 1.0, 2000), np.geomspace(1.0, 1e300, 2000)])
        xs = np.concatenate([W_DOMAIN_MIN + gap, np.linspace(-0.3, 10.0, 4000), [0.0]])
        ref = np.array([lambert_w0(float(x)) for x in xs])
        assert np.max(np.abs(lambert_w0_array(xs) - ref)) <= 1e-12
        assert lambert_w0_array([0.0])[0] == 0.0

    def test_near_and_at_the_branch_point(self):
        xs = np.concatenate([W_DOMAIN_MIN + np.geomspace(1e-17, 1e-8, 500),
                             [W_DOMAIN_MIN, W_DOMAIN_MIN - 5e-16]])
        got = lambert_w0_array(xs)
        assert np.all(np.isfinite(got))
        ref = np.array([lambert_w0(float(x)) for x in xs])
        assert np.max(np.abs(got - ref)) <= 1e-7
        assert got[-2] == pytest.approx(-1.0, abs=1e-7)

    def test_domain(self):
        for bad in ([W_DOMAIN_MIN - 1e-9], [0.5, math.nan]):
            with pytest.raises(ValueError):
                lambert_w0_array(bad)


class TestLossStats:
    def test_matches_brute_force_moments(self):
        gen = np.random.default_rng(7)
        for _ in range(25):
            values = gen.gamma(2.0, 1.5, size=57)
            st = loss_stats(values)
            mean = sum(values) / len(values)
            var = sum((v - mean) ** 2 for v in values) / len(values)
            std = math.sqrt(var)
            skew = sum((v - mean) ** 3 for v in values) / (len(values) * std**3)
            assert st.mean == pytest.approx(mean, rel=1e-12)
            assert st.std == pytest.approx(std, rel=1e-12)
            assert st.skewness == pytest.approx(skew, rel=1e-10)
            assert st.n == 57

    def test_constant_input_has_zero_spread_and_skew(self):
        st = loss_stats(np.full(9, 3.25))
        assert (st.mean, st.std, st.skewness) == (3.25, 0.0, 0.0)

    def test_symmetric_input_has_zero_skew(self):
        st = loss_stats(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert st.skewness == pytest.approx(0.0, abs=1e-14)

    def test_known_skewed_example(self):
        st = loss_stats(np.array([0.2, 0.2, 0.2, 1.0]))
        assert st.mean == pytest.approx(0.4, abs=1e-15)
        assert st.skewness == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-12)

    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(ValueError):
            loss_stats(np.array([]))
        with pytest.raises(ValueError):
            loss_stats(np.array([1.0, math.nan]))
        with pytest.raises(ValueError):
            loss_stats(np.array([1.0, math.inf]))


class TestSeededRng:
    def test_derive_seed_is_stable_and_name_sensitive(self):
        a = derive_seed(42, "alpha")
        assert a == derive_seed(42, "alpha")
        assert a != derive_seed(42, "beta")
        assert a != derive_seed(43, "alpha")
        assert 0 <= a < 2**64

    def test_substreams_reproduce_and_diverge(self):
        r1 = SeededRng(5).derive("x")
        r2 = SeededRng(5).derive("x")
        r3 = SeededRng(5).derive("y")
        a, b, c = (r.generator.random(8) for r in (r1, r2, r3))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            SeededRng(-1)
        with pytest.raises(ValueError):
            SeededRng(2**64)

    def test_algorithm_tag(self):
        assert type(SeededRng(0).generator.bit_generator) is np.random.PCG64
