"""Confidence-weighted loss family: closed form, ADP and SIN variants."""

import csv
import math
import signal
import subprocess
import sys
import tracemalloc
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np
import pytest

import crucial.loss as loss_module
from crucial.loss import (
    CAP_BETA,
    KAPPA_CAP,
    CrucialConfig,
    LossTraceWriter,
    ModulatedLoss,
    Variant,
    advance_epoch_adp,
    crucial_adp,
    crucial_sin,
    kappa_and_value,
    kappa_star,
    modulate_epoch,
    modulated_value,
    shell_value,
    write_loss_trace,
)
from crucial.numerics import W_DOMAIN_MIN, SeededRng
from crucial.tracetext import CHUNK_ROWS, COLUMNS, HEADER


def golden_min(f, lo, hi, tol=1e-12):
    """Test-local golden-section minimizer (independent of the package)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    while b - a > tol:
        if f(c) < f(d):
            b, d = d, c
            c = b - invphi * (b - a)
        else:
            a, c = c, d
            d = a + invphi * (b - a)
    return 0.5 * (a + b)


def shell(loss, threshold, lam):
    """The objective kappa_star minimizes, as a function of kappa."""
    return lambda k: k * (loss - threshold) + lam * math.log(k) ** 2


class TestKappaStar:
    def test_unit_confidence_at_threshold(self):
        assert kappa_star(0.7, 0.7, 0.01) == 1.0
        assert kappa_star(-3.0, -3.0, 1.0) == 1.0

    def test_cap_at_boundary_and_below(self):
        lam = 0.01
        eps = 1.0
        boundary = eps + lam * CAP_BETA  # loss - eps = -2 lam / e
        assert kappa_star(boundary, eps, lam) == KAPPA_CAP
        assert kappa_star(boundary - 0.5, eps, lam) == KAPPA_CAP

    def test_pinned_example_half_unit_gap(self):
        # loss 1.0, threshold 0.5, lam 0.01
        got = kappa_star(1.0, 0.5, 0.01)
        assert got == pytest.approx(0.09440601822090658, abs=1e-15)
        oracle = golden_min(shell(1.0, 0.5, 0.01), 1e-8, math.e)
        assert got == pytest.approx(oracle, abs=1e-8)

    def test_matches_golden_section_on_random_triples(self):
        gen = SeededRng(202).generator
        worst = 0.0
        for _ in range(1000):
            l = float(gen.uniform(0.0, 2.0))
            eps = float(gen.uniform(0.0, 2.0))
            lam = float(gen.uniform(1e-3, 1.0))
            got = kappa_star(l, eps, lam)
            oracle = golden_min(shell(l, eps, lam), 1e-9, math.e)
            worst = max(worst, abs(got - oracle))
        assert worst <= 1e-6

    def test_monotonic_in_loss(self):
        ks = [kappa_star(l, 1.0, 0.01) for l in np.linspace(0.0, 3.0, 301)]
        assert all(b <= a for a, b in zip(ks, ks[1:]))

    def test_bounds(self):
        gen = SeededRng(17).generator
        for _ in range(500):
            k = kappa_star(float(gen.uniform(-5, 5)), float(gen.uniform(-5, 5)),
                           float(gen.uniform(1e-4, 2.0)))
            assert 0.0 < k <= KAPPA_CAP

    def test_lambda_validation(self):
        with pytest.raises(ValueError):
            kappa_star(1.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            kappa_star(1.0, 0.5, -0.1)


class TestAdp:
    def test_first_epoch_pinned_example(self):
        cfg = CrucialConfig(Variant.ADP, lam=0.01)
        m = crucial_adp(0.7, None, cfg)  # a first epoch: no previous losses
        assert m.threshold == 0.0
        # beta = 0.7/0.01 = 70, argmin weight is e^{-W(35)}
        assert m.kappa == pytest.approx(0.07428234290062577, abs=1e-15)
        expected = m.kappa * 0.7 + 0.01 * math.log(m.kappa) ** 2
        assert m.value == pytest.approx(expected, abs=1e-15)
        assert m.value == pytest.approx(0.11959150424881332, abs=1e-14)
        assert m.selected is True

    def test_loss_at_threshold_gives_zero_value(self):
        cfg = CrucialConfig(Variant.ADP, lam=0.01)
        prev = [0.2, 0.2, 0.2, 1.0]
        m = crucial_adp(advance_epoch_adp(prev), prev, cfg)
        assert m.kappa == 1.0
        assert m.value == 0.0

    def test_threshold_is_skewness_times_mean(self):
        threshold = advance_epoch_adp([0.2, 0.2, 0.2, 1.0])
        sk = 2.0 / math.sqrt(3.0)  # brute-force third standardized moment
        assert threshold == pytest.approx(sk * 0.4, rel=1e-12)
        assert threshold == pytest.approx(0.46188, abs=5e-6)

    def test_threshold_sign_follows_skew_sign(self):
        assert advance_epoch_adp([1.0, 2.0, 3.0]) == pytest.approx(0.0, abs=1e-12)
        assert advance_epoch_adp([0.2, 0.2, 0.2, 1.0]) > 0.0
        assert advance_epoch_adp([1.0, 1.8, 1.8, 1.8]) < 0.0

    def test_empty_epoch_rejected(self):
        with pytest.raises(ValueError):
            advance_epoch_adp([])

    def test_never_gates_out(self):
        cfg = CrucialConfig(Variant.ADP, lam=0.01)
        prev = [0.5, 1.5, 4.0, 0.1]
        for l in (0.0, 0.01, 0.5, 2.0, 10.0):
            assert crucial_adp(l, prev, cfg).selected is True


class TestSin:
    CFG = CrucialConfig(Variant.SIN, lam=0.01, omega=math.pi / 4.0, phase=0.0)

    def test_full_cycle_epoch_returns_centered_loss(self):
        for t in (0, 4, 8, 4 * 1000):
            for l in (0.0, 0.3, 0.9, 5.0):
                m = crucial_sin(l, t, 1.2, self.CFG)
                assert m.value == l - 1.2
                assert m.kappa == 1.0
                assert m.selected is True

    def test_zero_epoch_kills_value(self):
        for t in (2, 6, 10):
            m = crucial_sin(0.8, t, 1.0, self.CFG)  # 0.8 >= mu/2
            assert m.value == 0.0
            assert m.selected is True
            assert m.kappa == 0.0

    def test_quarter_gate_drops_easy_samples(self):
        mu = 1.0
        m = crucial_sin(0.249, 1, mu, self.CFG)  # below mu/4
        assert m.selected is False
        assert m.value == 0.0
        assert m.kappa == 0.0
        m2 = crucial_sin(0.251, 1, mu, self.CFG)
        assert m2.selected is True

    def test_half_cycle_epoch_parameters(self):
        mu = 1.0
        m = crucial_sin(0.6, 1, mu, self.CFG)
        # F = 1/2: threshold (F-1)mu = -mu/2, per-epoch lambda = ln 2
        assert m.threshold == pytest.approx(-0.5, abs=1e-12)
        assert m.selected == (not 0.6 < 0.5 * 0.5 * mu)  # ~(loss < F*mu/2)
        lam_t = math.log(2.0)
        k = kappa_star(0.6, -0.5, lam_t)
        assert m.kappa == pytest.approx(k, abs=1e-15)
        assert m.value == pytest.approx(k * 1.1 + lam_t * math.log(k) ** 2, abs=1e-14)

    def test_period_four_bit_identity(self):
        gen = SeededRng(99).generator
        for _ in range(250):
            l = float(gen.uniform(0.0, 3.0))
            mu = float(gen.uniform(0.1, 2.0))
            t = int(gen.integers(0, 50))
            assert crucial_sin(l, t, mu, self.CFG) == crucial_sin(l, t + 4, mu, self.CFG)

    def test_generic_omega_limits(self):
        cfg = CrucialConfig(Variant.SIN, lam=0.01, omega=0.37, phase=0.0)
        m0 = crucial_sin(0.9, 0, 1.0, cfg)  # F = sin^2(0) = 0 exactly
        assert (m0.kappa, m0.value, m0.selected) == (1.0, 0.9 - 1.0, True)

    def test_subnormal_omega_has_no_integer_period(self):
        # pi/omega overflows to inf; the cycle factor is sin^2 of a tiny angle
        cfg = CrucialConfig(Variant.SIN, lam=0.01, omega=1e-320)
        m = crucial_sin(0.9, 3, 1.0, cfg)
        assert (m.kappa, m.value, m.selected) == (1.0, 0.9 - 1.0, True)

    def test_mu_validation(self):
        # a zero mean (-0.0 from a saturated softmax included) takes the
        # limit values on a zero loss: epoch 1 is mid-cycle, 2 has F == 1
        # and 4 has F == 0
        for mu in (0.0, -0.0):
            for t, kappa in ((1, 1.0), (2, 0.0), (4, 1.0)):
                m = crucial_sin(0.0, t, mu, self.CFG)
                assert (m.kappa, m.value, m.selected) == (kappa, 0.0, True)
        for mu in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                crucial_sin(0.5, 1, mu, self.CFG)


def baseline(losses, threshold, lam):
    """One epoch wrapped against a fixed, caller-supplied threshold."""
    cfg = CrucialConfig(Variant.BASELINE, lam=lam, threshold=threshold)
    return modulate_epoch(losses, cfg)


class TestBaseline:
    def test_two_class_threshold_examples(self):
        ln2 = math.log(2.0)
        m = baseline([ln2, 5.0, 0.05], ln2, 0.01)
        assert m.kappa[0] == 1.0 and m.value[0] == 0.0
        assert m.kappa[1] < 1.0 < m.kappa[2]

    def test_matches_shell_minimum(self):
        m = baseline([1.3], 0.4, 0.05)
        oracle = golden_min(shell(1.3, 0.4, 0.05), 1e-8, math.e)
        assert m.kappa[0] == pytest.approx(oracle, abs=1e-7)


class TestGradientFactor:
    def test_selected_false_zeroes_gradient(self):
        cfg = CrucialConfig(Variant.SIN, lam=0.01, omega=math.pi / 4.0)
        m = crucial_sin(0.1, 1, 1.0, cfg)
        assert m.selected is False and m.kappa == 0.0

    def test_unit_at_threshold(self):
        assert baseline([0.9], 0.9, 0.01).kappa[0] == 1.0

    def test_envelope_matches_finite_difference(self):
        # d/dl of the modulated value equals kappa at the inner minimum
        cfg = CrucialConfig(Variant.ADP, lam=0.01)
        prev = [0.3, 0.5, 0.9, 2.0]
        threshold = advance_epoch_adp(prev)
        gen = SeededRng(31).generator
        h = 1e-7
        for _ in range(200):
            l = float(gen.uniform(0.0, 2.5))
            if abs((l - threshold) / cfg.lam - CAP_BETA) < 1e-3:
                continue  # the cap corner itself is only one-sided smooth
            up = crucial_adp(l + h, prev, cfg).value
            dn = crucial_adp(l - h, prev, cfg).value
            fd = (up - dn) / (2.0 * h)
            factor = crucial_adp(l, prev, cfg).kappa
            assert fd == pytest.approx(factor, abs=1e-6)


def _rows(m):
    """The rows of a record of arrays, each as a one-sample record's fields."""
    return list(zip(m.input_loss.tolist(), m.kappa.tolist(), m.threshold.tolist(),
                    m.value.tolist(), m.selected.tolist()))


class TestModulateEpoch:
    LOSSES = np.concatenate([SeededRng(5).generator.uniform(0.0, 3.0, 200),
                             [0.0, 0.7, 1e-3, 2.9]])

    def test_kappa_matches_kappa_star(self):
        gen = SeededRng(8).generator
        for _ in range(20):
            thr = float(gen.uniform(0.0, 2.0))
            lam = float(gen.uniform(1e-3, 1.0))
            losses = np.concatenate([self.LOSSES, [thr, thr + 2.0 * lam * CAP_BETA]])
            cfg = CrucialConfig(Variant.BASELINE, lam=lam, threshold=thr)
            m = modulate_epoch(losses, cfg)
            ref = np.array([kappa_star(float(l), thr, lam) for l in losses])
            beta = (losses - thr) / lam
            away = np.abs(beta / 2.0 - W_DOMAIN_MIN) >= 1e-8
            assert np.max(np.abs(m.kappa - ref)[away]) <= 1e-12
            assert m.kappa[-2] == 1.0 and m.value[-2] == 0.0
            assert np.all(m.kappa[beta <= CAP_BETA] == KAPPA_CAP)
            assert m.kappa[-1] == KAPPA_CAP
            values = [modulated_value(float(l), thr, lam, float(k)) for l, k in zip(losses, m.kappa)]
            assert np.max(np.abs(m.value - values)) <= 1e-12

    def test_kernel_broadcasts_threshold_and_lam_per_entry(self):
        gen = SeededRng(4).generator
        thr = gen.uniform(0.0, 2.0, self.LOSSES.size)
        lam = gen.uniform(1e-3, 1.0, self.LOSSES.size)
        kappa, value = kappa_and_value(self.LOSSES, thr, lam)
        for i, l in enumerate(self.LOSSES.tolist()):
            one = modulate_epoch([l], CrucialConfig(
                Variant.BASELINE, lam=float(lam[i]), threshold=float(thr[i])))
            assert (kappa[i], value[i]) == (one.kappa[0], one.value[0])
        assert value.tobytes() == shell_value(self.LOSSES - thr, lam, kappa).tobytes()

    def test_adp_and_baseline_match_the_per_sample_wrappers(self):
        cfg = CrucialConfig(Variant.ADP, lam=0.01)
        prev = [0.2, 0.2, 0.2, 1.0]
        m = modulate_epoch(self.LOSSES, cfg, 1, prev)
        assert _rows(m) == [astuple(crucial_adp(float(l), prev, cfg)) for l in self.LOSSES]
        assert m.threshold.tolist() == [advance_epoch_adp(prev)] * self.LOSSES.size
        m = baseline(self.LOSSES, 0.9, 0.05)
        assert _rows(m) == [_rows(baseline([l], 0.9, 0.05))[0] for l in self.LOSSES]

    def test_sin_matches_the_per_sample_wrapper(self):
        cfg = CrucialConfig(Variant.SIN, lam=0.01, omega=math.pi / 4.0)
        mu = float(np.mean(self.LOSSES))
        for t in range(8):  # F = 0, 1/2, 1, 1/2, then again
            m = modulate_epoch(self.LOSSES, cfg, t)
            assert _rows(m) == [astuple(crucial_sin(float(l), t, mu, cfg)) for l in self.LOSSES]
            f = math.sin(math.pi / 4.0 * (t % 4)) ** 2  # the period is 4 epochs
            assert np.array_equal(m.selected, ~(self.LOSSES < f * mu / 2.0))
            if t % 2:
                assert 0 < np.count_nonzero(~m.selected) < self.LOSSES.size

    def test_gated_rows_carry_zero_weight(self):
        cfg = CrucialConfig(Variant.SIN, lam=0.01, omega=0.37, phase=0.4, mu_fixed=1.3)
        for t in range(12):
            m = modulate_epoch(self.LOSSES, cfg, t)
            f = math.sin(0.37 * t + 0.4) ** 2
            assert np.array_equal(m.selected, ~(self.LOSSES < f * 1.3 / 2.0))
            assert np.all(m.kappa[~m.selected] == 0.0)
            assert np.all(m.value[~m.selected] == 0.0)

    def test_all_zero_sin_epoch_takes_the_limit_values(self):
        # a saturated softmax gives -log(1.0) = -0.0 on every sample, so the
        # epoch's mean loss is zero
        cfg = CrucialConfig(Variant.SIN, lam=0.01, omega=math.pi / 4.0)
        losses = np.full(6, -0.0)
        for t in range(8):  # F = 0, 1/2, 1, 1/2, then again
            m = modulate_epoch(losses, cfg, t)
            assert np.all(m.selected) and np.all(m.value == 0.0)
            assert np.all(m.kappa == (0.0 if t % 4 == 2 else 1.0))

    def test_no_wrapper_is_the_neutral_record(self):
        m = modulate_epoch(self.LOSSES, None)
        assert np.all(m.kappa == 1.0) and np.all(m.threshold == 0.0) and np.all(m.selected)
        assert np.array_equal(m.value, self.LOSSES)


class TestOverflowingBeta:
    """beta = gap/lam beyond the float range: w solves w + ln w = ln gap - ln(2 lam)."""

    # (loss, threshold, lam): a tiny lam, a far threshold, a far loss
    POINTS = [(5.0, 0.0, 2.5e-308), (0.5, -1e308, 0.01), (1e308, 0.7, 0.01),
              (1e10, 1.0, 1e-300)]

    @pytest.mark.parametrize("loss,threshold,lam", POINTS)
    def test_weight_solves_the_stationarity_equation(self, loss, threshold, lam):
        gap = loss - threshold
        assert gap / lam == math.inf
        kappa, value = kappa_and_value(np.array([loss]), threshold, lam)
        k, v = float(kappa[0]), float(value[0])
        assert 0.0 < k < 1.0 and math.isfinite(v)
        w = -math.log(k)
        target = math.log(gap) - math.log(2.0 * lam)
        assert abs(w + math.log(w) - target) <= 1e-12 * target
        # the shell at kappa, with kappa*gap = 2*lam*w at the minimizer
        assert v == pytest.approx(k * gap + lam * w * w, rel=1e-12)
        assert k * gap == pytest.approx(2.0 * lam * w, rel=1e-12)

    def test_finite_beta_entries_keep_their_bits(self):
        losses = np.array([0.1, 0.7, 2.5, 1e10, 0.69, 1e-3])
        kappa, value = kappa_and_value(losses, 0.69, 1e-300)
        finite = np.array([True, True, True, False, True, True])
        k_ref, v_ref = kappa_and_value(losses[finite], 0.69, 1e-300)
        assert kappa[finite].tobytes() == k_ref.tobytes()
        assert value[finite].tobytes() == v_ref.tobytes()
        assert 0.0 < kappa[3] < 1.0 and np.isfinite(value).all()

    def test_tiny_lam_trace_rows_stay_finite(self):
        # trace-loss --lam 1e-320: the hard sample's beta overflows
        m = modulate_epoch(np.array([0.25, 2.5]),
                           CrucialConfig(Variant.BASELINE, lam=1e-320, threshold=math.log(2.0)))
        assert m.kappa[0] == KAPPA_CAP
        assert 0.0 < m.kappa[1] < 1e-300 and 0.0 < m.value[1] < 1e-300


class TestConfigValidation:
    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            CrucialConfig(Variant.ADP, lam=0.0)

    def test_sin_needs_nonzero_omega(self):
        with pytest.raises(ValueError):
            CrucialConfig(Variant.SIN, lam=0.01, omega=0.0)

    def test_fixed_mu_must_be_positive(self):
        with pytest.raises(ValueError):
            CrucialConfig(Variant.SIN, lam=0.01, omega=1.0, mu_fixed=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", ["omega", "phase", "threshold", "mu_fixed"])
    def test_values_must_be_finite(self, key, bad):
        for variant in Variant:
            with pytest.raises(ValueError, match=key if key != "mu_fixed" else "fixed mu"):
                CrucialConfig(variant, **{key: bad})

    def test_threshold_at_most_float_max_over_e(self):
        # above it a capped zero loss has value e*(0 - threshold) = -inf
        top = sys.float_info.max / math.e
        for variant in Variant:
            with pytest.raises(ValueError, match="threshold"):
                CrucialConfig(variant, threshold=np.nextafter(top, math.inf))
        m = modulate_epoch([0.0], CrucialConfig(Variant.BASELINE, threshold=top))
        assert m.kappa[0] == KAPPA_CAP and np.isfinite(m.value[0])

    def test_modulated_value_rejects_nonpositive_kappa(self):
        with pytest.raises(ValueError):
            modulated_value(1.0, 0.5, 0.01, 0.0)


class TestTraceExport:
    def test_csv_bytes_are_stable(self, tmp_path):
        cfg = CrucialConfig(Variant.ADP, lam=0.01)
        mod = modulate_epoch([0.25, 2.5], cfg)
        path = tmp_path / "trace.csv"
        write_loss_trace(path, [0, 0], [0, 1], mod)
        text = path.read_text(encoding="utf-8")
        lines = text.strip().split("\n")
        assert lines[0] == "epoch,sample_id,input_loss,kappa,threshold,value,selected"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert first[2] == repr(0.25)
        assert first[3] == repr(crucial_adp(0.25, None, cfg).kappa)
        assert first[6] == "true"
        # rewriting produces identical bytes
        path2 = tmp_path / "trace2.csv"
        write_loss_trace(path2, [0, 0], [0, 1], mod)
        assert path2.read_bytes() == path.read_bytes()
        with pytest.raises(ValueError):
            write_loss_trace(path2, [0, 0, 0], [0, 1, 2], mod)

    def test_long_trace_keeps_every_row_in_order(self, tmp_path):
        cfg = CrucialConfig(Variant.SIN, lam=0.01, omega=math.pi / 4.0, mu_fixed=1.0)
        losses = SeededRng(4).generator.uniform(0.0, 2.0, 10_000)
        mod = modulate_epoch(losses, cfg, 1)
        path = tmp_path / "trace.csv"
        write_loss_trace(path, np.full(losses.size, 3), np.arange(losses.size), mod)
        lines = path.read_text(encoding="utf-8").strip().split("\n")[1:]
        assert len(lines) == losses.size
        for i in (0, 4095, 4096, 8192, 9999):
            m = crucial_sin(float(losses[i]), 1, 1.0, cfg)
            assert lines[i] == ",".join(["3", str(i), repr(m.input_loss), repr(m.kappa),
                                         repr(m.threshold), repr(m.value),
                                         str(m.selected).lower()])


def csv_loss_trace(path, epochs, sample_ids, modulated):
    """The byte reference for write_loss_trace: the same rows through csv.writer."""
    m = modulated
    cols = [np.asarray(c) for c in (epochs, sample_ids, m.input_loss, m.kappa,
                                    m.threshold, m.value, m.selected)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["epoch", "sample_id", "input_loss", "kappa", "threshold", "value", "selected"]
        )
        epoch, sample_id, *floats, selected = cols
        writer.writerows(zip(
            epoch.tolist(), sample_id.tolist(),
            *(map(repr, c.astype(np.float64).tolist()) for c in floats),
            np.where(selected, "true", "false").tolist(),
        ))


def random_record(n, seed, thresholds=(0.25, -1.5)):
    """A record of n rows: random floats, a threshold drawn from thresholds."""
    gen = SeededRng(seed).generator
    return ModulatedLoss(
        input_loss=gen.gamma(2.0, 0.5, n),
        kappa=gen.uniform(0.0, KAPPA_CAP, n),
        threshold=np.asarray(thresholds, dtype=np.float64)[gen.integers(0, len(thresholds), n)],
        value=gen.standard_normal(n),
        selected=gen.random(n) < 0.8,
    )


class TestTraceMatchesCsvReference:
    def assert_same_bytes(self, tmp_path, epochs, sample_ids, modulated):
        write_loss_trace(tmp_path / "new.csv", epochs, sample_ids, modulated)
        csv_loss_trace(tmp_path / "ref.csv", epochs, sample_ids, modulated)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 4095, 4096, 4097, 8193])
    def test_row_counts_around_chunk_edges(self, tmp_path, n):
        self.assert_same_bytes(tmp_path, np.arange(n) // 512, np.arange(n) % 512,
                               random_record(n, n))

    def test_signed_zero_thresholds_in_one_chunk(self, tmp_path):
        m = random_record(300, 1, thresholds=(-0.0, 0.0))
        assert np.signbit(m.threshold).any() and not np.signbit(m.threshold).all()
        self.assert_same_bytes(tmp_path, np.zeros(300, dtype=int), np.arange(300), m)
        text = (tmp_path / "new.csv").read_text(encoding="utf-8")
        assert ",-0.0," in text and ",0.0," in text

    def test_special_floats_in_every_float_column(self, tmp_path):
        special = np.array([math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-5, -0.0, 0.1])
        m = ModulatedLoss(special, special[::-1].copy(), special, np.roll(special, 3),
                          np.arange(8) % 3 == 0)
        self.assert_same_bytes(tmp_path, np.zeros(8, dtype=int), np.arange(8), m)

    def test_float32_columns(self, tmp_path):
        m = random_record(2000, 2)
        m32 = ModulatedLoss(*(c.astype(np.float32) if c.dtype == np.float64 else c
                              for c in astuple(m)))
        self.assert_same_bytes(tmp_path, np.arange(2000) // 100, np.arange(2000) % 100, m32)

    def test_epochs_and_ids_as_lists(self, tmp_path):
        m = random_record(1500, 3)
        self.assert_same_bytes(tmp_path, [i // 500 for i in range(1500)],
                               [i % 500 for i in range(1500)], m)

    def test_sin_epoch_with_gated_rows(self, tmp_path):
        cfg = CrucialConfig(Variant.SIN, lam=0.01, omega=math.pi / 4.0, mu_fixed=1.0)
        losses = SeededRng(4).generator.uniform(0.0, 2.0, 3000)
        m = modulate_epoch(losses, cfg, 1)
        assert 0 < int(m.selected.sum()) < losses.size
        self.assert_same_bytes(tmp_path, np.full(losses.size, 1), np.arange(losses.size), m)


MIN_BLOCK_ROWS = loss_module._TRACE_MIN_BLOCK_ROWS
# The streaming writer's traced peak over 512-row appends, whatever its block
# size: 256 KiB, under two thirds of one minimum block's columns (49 bytes a
# row).  It reads about 160 kB on Python 3.11.
TRACE_WRITER_PEAK_BYTES = 1 << 18
SPECIAL = np.array([math.nan, math.inf, -math.inf, 5e-324, -0.0, 0.0, 1e16, 0.1])
ROW_BYTES = sum(np.dtype(code).itemsize for _, code in COLUMNS)


def block_splits(n, cpus):
    """The rows where the helper blocks of an n-row trace on cpus CPUs meet."""
    lanes = min(cpus, n // MIN_BLOCK_ROWS)
    block = min(loss_module._TRACE_MAX_BLOCK_ROWS, -(-n // lanes))
    return list(range(block, n, block))


def record_with_specials_at_splits(n, cpus):
    """A record whose float columns hold every special value on both sides of
    each block split of an n-row trace on cpus CPUs."""
    m = random_record(n, n, thresholds=(-0.0, 0.0))
    for split in block_splits(n, cpus):
        rows = slice(split - SPECIAL.size // 2, split + SPECIAL.size // 2)
        for column, shift in ((m.input_loss, 0), (m.kappa, 3), (m.threshold, 5), (m.value, 6)):
            column[rows] = np.roll(SPECIAL, shift)
    return m


def append_in_pieces(path, epochs, sample_ids, modulated, rows, declared=None):
    """Write a trace through LossTraceWriter, rows rows per append, declaring
    declared rows (default: as many as there are)."""
    epochs, sample_ids = np.asarray(epochs), np.asarray(sample_ids)
    columns = [getattr(modulated, f.name) for f in fields(ModulatedLoss)]
    with LossTraceWriter(path, epochs.size if declared is None else declared) as trace:
        for a in range(0, epochs.size, rows):
            piece = slice(a, a + rows)
            trace.append(epochs[piece], sample_ids[piece],
                         ModulatedLoss(*(c[piece] for c in columns)))


def assert_left_clean(directory, started, names=()):
    """The trace's directory holds only names, and no helper or pipe is left open."""
    assert sorted(p.name for p in directory.iterdir()) == sorted(names)
    assert started.all_reaped()


# Feeds a bare helper (argv: tracetext.py, rows, rows per batch) and prints
# its exit status, the lines it wrote and its ru_maxrss in KiB.
HELPER_LAUNCHER = """
import array, os, subprocess, sys
path, n, batch_rows = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
sys.path.insert(0, os.path.dirname(path))
import tracetext
rows = range(n)
cols = [array.array("q", (i // 512 for i in rows)), array.array("q", (i % 512 for i in rows)),
        array.array("d", (i / 7.0 for i in rows)), array.array("d", (1.0 / (i + 1) for i in rows)),
        array.array("d", (i // 512 * 0.1 for i in rows)), array.array("d", (i / 3.0 for i in rows)),
        array.array("B", (i % 2 for i in rows))]
proc = subprocess.Popen([sys.executable, "-I", "-S", path], stdin=subprocess.PIPE,
                        stdout=subprocess.PIPE)
for a in range(0, n, batch_rows):
    proc.stdin.writelines(tracetext.batch(cols, a, min(a + batch_rows, n)))
proc.stdin.close()
lines = proc.stdout.read().count(b"\\n")
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, lines, usage.ru_maxrss)
"""


class TestTraceLanes:
    """Traces long enough to be split between helper processes.

    epoch_rows None writes a trace in one write_loss_trace call; 512 streams
    it one 512-row epoch at a time, so block bounds fall inside an epoch.  A
    trace of more than one lane gives each of its blocks to a helper of its
    own; a trace of one lane is formatted in this process.
    """

    def assert_same_bytes(self, tmp_path, epochs, sample_ids, modulated, epoch_rows):
        if epoch_rows is None:
            write_loss_trace(tmp_path / "new.csv", epochs, sample_ids, modulated)
        else:
            append_in_pieces(tmp_path / "new.csv", epochs, sample_ids, modulated, epoch_rows)
        csv_loss_trace(tmp_path / "ref.csv", epochs, sample_ids, modulated)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    # 1001-row appends send the helpers batches whose 8-byte columns sit at
    # offsets that are not multiples of 8 in the helper's input.
    @pytest.mark.parametrize("epoch_rows", [None, 512, 1001])
    @pytest.mark.parametrize("cpus, n, split_at_chunk_edge", [
        (2, 2 * MIN_BLOCK_ROWS, True),
        (2, 2 * MIN_BLOCK_ROWS + 2 * CHUNK_ROWS - 1, True),  # odd total, blocks of 9 chunks
        (2, 2 * MIN_BLOCK_ROWS + 1001, False),  # odd total, split inside a chunk
        (3, 3 * MIN_BLOCK_ROWS + 7, False),
    ])
    def test_lanes_write_the_csv_reference_bytes(self, tmp_path, monkeypatch, started, cpus, n,
                                                 split_at_chunk_edge, epoch_rows):
        monkeypatch.setattr(loss_module, "_usable_cpus", lambda: cpus)
        splits = block_splits(n, cpus)
        assert all((s % CHUNK_ROWS == 0) == split_at_chunk_edge for s in splits)
        m = record_with_specials_at_splits(n, cpus)
        sample_ids = np.arange(n) % 512
        sample_ids[splits[0] - 1:splits[0] + 1] = (-5, np.iinfo(np.int64).max)
        self.assert_same_bytes(tmp_path, np.arange(n) // 512, sample_ids, m, epoch_rows)
        text = (tmp_path / "new.csv").read_text(encoding="utf-8")
        assert ",-0.0," in text and ",0.0," in text and ",5e-324," in text
        assert len(started) == cpus
        assert all(proc.returncode == 0 for proc in started)
        assert_left_clean(tmp_path, started, ["new.csv", "ref.csv"])

    @pytest.mark.parametrize("epoch_rows", [None, 512])
    def test_a_long_trace_is_written_in_blocks_of_bounded_lanes(self, tmp_path, monkeypatch,
                                                                 started, epoch_rows):
        monkeypatch.setattr(loss_module, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(loss_module, "_TRACE_MAX_BLOCK_ROWS", MIN_BLOCK_ROWS + 100)
        # Blocks of MIN_BLOCK_ROWS + 100 rows, each with a helper of its own:
        # four full ones, then a short fifth.
        n = 5 * MIN_BLOCK_ROWS + 123
        assert (MIN_BLOCK_ROWS + 100) % 512
        m = record_with_specials_at_splits(n, 2)
        self.assert_same_bytes(tmp_path, np.arange(n) // 512, np.arange(n) % 512, m, epoch_rows)
        assert len(started) == 5
        assert all(proc.returncode == 0 for proc in started)
        assert_left_clean(tmp_path, started, ["new.csv", "ref.csv"])

    @pytest.mark.parametrize("epoch_rows", [None, 512])
    def test_a_trace_below_the_lane_minimum_starts_no_process(self, tmp_path, monkeypatch,
                                                               started, epoch_rows):
        monkeypatch.setattr(loss_module, "_usable_cpus", lambda: 2)
        n = 2 * MIN_BLOCK_ROWS - 1
        self.assert_same_bytes(tmp_path, np.zeros(n, dtype=int), np.arange(n),
                               random_record(n, 5), epoch_rows)
        assert started == []

    @pytest.mark.parametrize("script", [
        "import sys; sys.stdin.buffer.read(); sys.exit(3)",
        "import sys; sys.exit(3)",  # gone before its rows are sent
    ])
    def test_a_failing_helper_raises_and_leaves_no_process(self, tmp_path, monkeypatch,
                                                           started, script):
        monkeypatch.setattr(loss_module, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(loss_module, "_TRACE_HELPER", (sys.executable, "-c", script))
        n = 3 * MIN_BLOCK_ROWS
        with pytest.raises(RuntimeError, match="status 3"):
            write_loss_trace(tmp_path / "t.csv", np.zeros(n, dtype=int), np.arange(n),
                             random_record(n, 6))
        assert len(started) == 3
        assert_left_clean(tmp_path, started)

    @pytest.mark.parametrize("cut", [
        lambda parts: [*parts[:-1], parts[-1][:-1]],  # the last column a byte short
        lambda parts: [parts[0][:5]],                 # the row count itself
    ], ids=["column", "row_count"])
    def test_a_batch_cut_short_fails_its_helper(self, tmp_path, monkeypatch, started, capfd,
                                                cut):
        batch = loss_module.tracetext.batch
        monkeypatch.setattr(loss_module.tracetext, "batch", lambda *args: cut(batch(*args)))
        monkeypatch.setattr(loss_module, "_usable_cpus", lambda: 2)
        n = 2 * MIN_BLOCK_ROWS
        with pytest.raises(RuntimeError, match="status 1"):
            write_loss_trace(tmp_path / "t.csv", np.zeros(n, dtype=int), np.arange(n),
                             random_record(n, 9))
        assert "cut short" in capfd.readouterr().err
        assert len(started) == 2
        assert_left_clean(tmp_path, started)

    # 6 * MIN_BLOCK_ROWS rows in blocks of MIN_BLOCK_ROWS: one row fewer
    # declared leaves the sixth block a row short, and the error comes on the
    # last append; one more is missed when the writer closes, before a
    # seventh block starts.
    @pytest.mark.parametrize("declared_extra, helpers", [(-1, 6), (1, 6)])
    def test_rows_other_than_declared_raise_and_leave_no_file(self, tmp_path, monkeypatch,
                                                              started, declared_extra, helpers):
        monkeypatch.setattr(loss_module, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(loss_module, "_TRACE_MAX_BLOCK_ROWS", MIN_BLOCK_ROWS)
        n = 6 * MIN_BLOCK_ROWS
        with pytest.raises(ValueError, match="declared"):
            append_in_pieces(tmp_path / "t.csv", np.arange(n) // 512, np.arange(n) % 512,
                             random_record(n, 10), 512, declared=n + declared_extra)
        assert len(started) == helpers
        assert_left_clean(tmp_path, started)

    def test_an_error_in_this_process_kills_the_helpers(self, tmp_path, monkeypatch, started):
        class Interrupted(Exception):
            pass

        monkeypatch.setattr(loss_module, "_usable_cpus", lambda: 2)
        n, rows = 2 * MIN_BLOCK_ROWS, MIN_BLOCK_ROWS + 512
        columns = astuple(random_record(n, 7))
        with pytest.raises(Interrupted):
            with LossTraceWriter(tmp_path / "t.csv", n) as trace:
                # the first block and the first 512 rows of the second
                trace.append(np.zeros(rows, dtype=int), np.arange(rows),
                             ModulatedLoss(*(c[:rows] for c in columns)))
                assert started[0].stdin.closed and not started[1].stdin.closed
                raise Interrupted
        # Nothing reads the first helper's text, which overflows its pipe,
        # and the second never gets the end of its input, so neither can
        # have finished on its own.
        assert [proc.returncode for proc in started] == [-signal.SIGKILL] * 2
        assert_left_clean(tmp_path, started)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_missing_directory_fails_before_any_helper_starts(self, tmp_path, monkeypatch,
                                                                 started, cpus):
        monkeypatch.setattr(loss_module, "_usable_cpus", lambda: cpus)
        n = 2 * MIN_BLOCK_ROWS
        with pytest.raises(FileNotFoundError):
            write_loss_trace(tmp_path / "missing" / "t.csv", np.zeros(n, dtype=int),
                             np.arange(n), random_record(n, 11))
        assert started == []
        assert_left_clean(tmp_path, started)

    def test_a_helper_gets_eof_once_its_range_is_complete(self, tmp_path, monkeypatch, started):
        # Two 8,192-row blocks appended one 512-row epoch at a time: the first
        # helper's stdin closes with the 16th epoch, so it formats its block
        # while the other 16 arrive.
        monkeypatch.setattr(loss_module, "_usable_cpus", lambda: 2)
        n, epoch_rows = 2 * MIN_BLOCK_ROWS, 512
        columns = astuple(random_record(n, 12))
        closed = []
        with LossTraceWriter(tmp_path / "t.csv", n) as trace:
            for a in range(0, n, epoch_rows):
                piece = slice(a, a + epoch_rows)
                trace.append(np.full(epoch_rows, a // epoch_rows), np.arange(epoch_rows),
                             ModulatedLoss(*(c[piece] for c in columns)))
                closed.append(started[0].stdin.closed)
                if a + epoch_rows < n:
                    assert started[0].returncode is None  # not reaped before the writer closes
        assert closed == [a + epoch_rows >= MIN_BLOCK_ROWS for a in range(0, n, epoch_rows)]
        assert [proc.returncode for proc in started] == [0, 0]
        assert_left_clean(tmp_path, started, ["t.csv"])

    def test_each_block_starts_its_own_helper(self, tmp_path, monkeypatch, started):
        # Four blocks of MIN_BLOCK_ROWS rows on 2 CPUs, appended one 512-row
        # epoch at a time: each block's first row starts its helper, and the
        # third and fourth blocks first copy and reap the oldest open one.
        monkeypatch.setattr(loss_module, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(loss_module, "_TRACE_MAX_BLOCK_ROWS", MIN_BLOCK_ROWS)
        n, epoch_rows = 4 * MIN_BLOCK_ROWS, 512
        m = record_with_specials_at_splits(n, 2)
        epochs, sample_ids = np.arange(n) // epoch_rows, np.arange(n) % epoch_rows
        columns = astuple(m)
        with LossTraceWriter(tmp_path / "new.csv", n) as trace:
            for a in range(0, n, epoch_rows):
                piece = slice(a, a + epoch_rows)
                trace.append(epochs[piece], sample_ids[piece],
                             ModulatedLoss(*(c[piece] for c in columns)))
                assert len(started) == a // MIN_BLOCK_ROWS + 1  # the blocks reached
                unreaped = min(len(started), 2)
                assert ([proc.returncode is not None for proc in started]
                        == [True] * (len(started) - unreaped) + [False] * unreaped)
        csv_loss_trace(tmp_path / "ref.csv", epochs, sample_ids, m)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert [proc.returncode for proc in started] == [0] * 4
        assert_left_clean(tmp_path, started, ["new.csv", "ref.csv"])

    def test_a_204800_row_trace_on_2_cpus_is_two_blocks_of_102400_rows(self, tmp_path,
                                                                        monkeypatch, started):
        # 400 epochs of 512 rows, the bench's wrapped regression trace; each
        # helper here writes the byte count of its input instead of its text.
        monkeypatch.setattr(loss_module, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(loss_module, "_TRACE_HELPER", (
            sys.executable, "-c", "import sys; print(len(sys.stdin.buffer.read()), end=';')"))
        epoch_rows = 512
        columns = astuple(random_record(epoch_rows, 14))
        helpers = []
        with LossTraceWriter(tmp_path / "t.csv", 400 * epoch_rows) as trace:
            for epoch in range(400):
                trace.append(np.full(epoch_rows, epoch), np.arange(epoch_rows),
                             ModulatedLoss(*columns))
                helpers.append(len(started))
        assert helpers == [1] * 200 + [2] * 200  # the second starts with row 102,400
        block_bytes = 200 * (8 + epoch_rows * ROW_BYTES)  # a row count and columns a batch
        assert (tmp_path / "t.csv").read_bytes() == HEADER + f"{block_bytes};".encode() * 2
        assert [proc.returncode for proc in started] == [0, 0]
        assert_left_clean(tmp_path, started, ["t.csv"])

    # A 2-CPU trace appended one epoch at a time, in blocks of 8,192 or
    # 32,768 rows: this process keeps no block's columns (49 bytes a row,
    # 401 kB at the smaller block), only an epoch's rows at a time.
    @pytest.mark.parametrize("max_block_rows", [MIN_BLOCK_ROWS, 4 * MIN_BLOCK_ROWS])
    def test_the_writer_holds_no_lane_of_rows(self, tmp_path, monkeypatch, started,
                                              max_block_rows):
        monkeypatch.setattr(loss_module, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(loss_module, "_TRACE_MAX_BLOCK_ROWS", max_block_rows)
        n = 8 * MIN_BLOCK_ROWS
        m = random_record(n, 13)
        epochs, sample_ids = np.arange(n) // 512, np.arange(n) % 512
        tracemalloc.start()
        try:
            append_in_pieces(tmp_path / "t.csv", epochs, sample_ids, m, 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(started) == n // max_block_rows
        assert peak < TRACE_WRITER_PEAK_BYTES, peak
        assert_left_clean(tmp_path, started, ["t.csv"])

    def test_a_bare_helper_peaks_under_32_mb(self):
        # 102,400 rows in 512-row batches: 5 MB of columns and about 9 MB of
        # text.  The helper's peak RSS is read with os.wait4 in a launcher
        # that imports only the stdlib, so no numpy parent's pages count.
        launched = subprocess.run(
            [sys.executable, "-I", "-S", "-c", HELPER_LAUNCHER, loss_module.tracetext.__file__,
             str(200 * 512), "512"], capture_output=True, text=True, check=True)
        status, lines, maxrss_kb = map(int, launched.stdout.split())
        assert (status, lines) == (0, 200 * 512)
        assert maxrss_kb < 32 * 1024, maxrss_kb

    def test_the_readme_states_the_block_bounds(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        for rows in (loss_module._TRACE_MIN_BLOCK_ROWS, loss_module._TRACE_MAX_BLOCK_ROWS):
            assert f"{rows:,}" in readme

    @pytest.mark.parametrize("column", ["epochs", "sample_ids"])
    @pytest.mark.parametrize("values", [[3.0, 3.0], [True, False],
                                        np.array([1, 2], dtype=np.uint64)])
    def test_non_integer_epochs_and_ids_are_refused(self, tmp_path, column, values):
        columns = {"epochs": [0, 0], "sample_ids": [0, 1], column: values}
        with pytest.raises(ValueError, match=column):
            write_loss_trace(tmp_path / "t.csv", columns["epochs"], columns["sample_ids"],
                             random_record(2, 8))
        assert not (tmp_path / "t.csv").exists()
