"""Confidence-weighted loss family: closed form, ADP and SIN variants."""

import csv
import math
import signal
import subprocess
import sys
from dataclasses import astuple

import numpy as np
import pytest

import crucial.loss as loss_module
from crucial.loss import (
    CAP_BETA,
    KAPPA_CAP,
    CrucialConfig,
    EpochState,
    KappaFormula,
    ModulatedLoss,
    Variant,
    advance_epoch_adp,
    baseline_confidence_loss,
    crucial_adp,
    crucial_sin,
    initial_epoch_state,
    kappa_and_value,
    kappa_star,
    modulate_epoch,
    modulated_value,
    shell_value,
    write_loss_trace,
)
from crucial.numerics import W_DOMAIN_MIN, SeededRng
from crucial.tracetext import CHUNK_ROWS


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

    def test_compat_formula_differs_and_is_not_the_argmin(self):
        a = kappa_star(1.0, 0.5, 0.01, KappaFormula.ARGMIN)
        h = kappa_star(1.0, 0.5, 0.01, KappaFormula.HALF_W)
        assert h != pytest.approx(a, rel=1e-3)
        oracle = golden_min(shell(1.0, 0.5, 0.01), 1e-8, math.e)
        assert abs(h - oracle) > 1e-3
        # the compat rendering agrees at the fixed point l == threshold
        assert kappa_star(2.0, 2.0, 0.01, KappaFormula.HALF_W) == 1.0

    def test_lambda_validation(self):
        with pytest.raises(ValueError):
            kappa_star(1.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            kappa_star(1.0, 0.5, -0.1)


class TestAdp:
    def test_first_epoch_pinned_example(self):
        cfg = CrucialConfig(Variant.ADP, lam=0.01)
        state = initial_epoch_state()
        assert state.threshold == 0.0 and state.epoch_index == 0
        m = crucial_adp(0.7, state, cfg)
        # beta = 0.7/0.01 = 70, argmin weight is e^{-W(35)}
        assert m.kappa == pytest.approx(0.07428234290062577, abs=1e-15)
        expected = m.kappa * 0.7 + 0.01 * math.log(m.kappa) ** 2
        assert m.value == pytest.approx(expected, abs=1e-15)
        assert m.value == pytest.approx(0.11959150424881332, abs=1e-14)
        assert m.selected is True

    def test_loss_at_threshold_gives_zero_value(self):
        cfg = CrucialConfig(Variant.ADP, lam=0.01)
        state = advance_epoch_adp([0.2, 0.2, 0.2, 1.0], cfg)
        m = crucial_adp(state.threshold, state, cfg)
        assert m.kappa == 1.0
        assert m.value == 0.0

    def test_threshold_is_skewness_times_mean(self):
        cfg = CrucialConfig(Variant.ADP, lam=0.01)
        state = advance_epoch_adp([0.2, 0.2, 0.2, 1.0], cfg)
        sk = 2.0 / math.sqrt(3.0)  # brute-force third standardized moment
        assert state.threshold == pytest.approx(sk * 0.4, rel=1e-12)
        assert state.threshold == pytest.approx(0.46188, abs=5e-6)
        assert state.epoch_index == 1

    def test_threshold_sign_follows_skew_sign(self):
        cfg = CrucialConfig(Variant.ADP, lam=0.01)
        assert advance_epoch_adp([1.0, 2.0, 3.0], cfg).threshold == pytest.approx(0.0, abs=1e-12)
        assert advance_epoch_adp([0.2, 0.2, 0.2, 1.0], cfg).threshold > 0.0
        assert advance_epoch_adp([1.0, 1.8, 1.8, 1.8], cfg).threshold < 0.0

    def test_empty_epoch_rejected(self):
        with pytest.raises(ValueError):
            advance_epoch_adp([], CrucialConfig(Variant.ADP, lam=0.01))

    def test_never_gates_out(self):
        cfg = CrucialConfig(Variant.ADP, lam=0.01)
        state = advance_epoch_adp([0.5, 1.5, 4.0, 0.1], cfg)
        for l in (0.0, 0.01, 0.5, 2.0, 10.0):
            assert crucial_adp(l, state, cfg).selected is True


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
        assert m.gate == pytest.approx(0.25, abs=1e-12)
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

    def test_mu_validation(self):
        with pytest.raises(ValueError):
            crucial_sin(0.5, 1, 0.0, self.CFG)
        with pytest.raises(ValueError):
            crucial_sin(0.5, 1, -1.0, self.CFG)


class TestBaseline:
    def test_two_class_threshold_examples(self):
        ln2 = math.log(2.0)
        m = baseline_confidence_loss(ln2, ln2, 0.01)
        assert m.kappa == 1.0 and m.value == 0.0
        hard = baseline_confidence_loss(5.0, ln2, 0.01)
        easy = baseline_confidence_loss(0.05, ln2, 0.01)
        assert hard.kappa < 1.0 < easy.kappa

    def test_matches_shell_minimum(self):
        m = baseline_confidence_loss(1.3, 0.4, 0.05)
        oracle = golden_min(shell(1.3, 0.4, 0.05), 1e-8, math.e)
        assert m.kappa == pytest.approx(oracle, abs=1e-7)


class TestGradientFactor:
    def test_selected_false_zeroes_gradient(self):
        cfg = CrucialConfig(Variant.SIN, lam=0.01, omega=math.pi / 4.0)
        m = crucial_sin(0.1, 1, 1.0, cfg)
        assert m.selected is False and m.kappa == 0.0

    def test_unit_at_threshold(self):
        m = baseline_confidence_loss(0.9, 0.9, 0.01)
        assert m.kappa == 1.0

    def test_envelope_matches_finite_difference(self):
        # d/dl of the modulated value equals kappa at the inner minimum
        cfg = CrucialConfig(Variant.ADP, lam=0.01)
        state = advance_epoch_adp([0.3, 0.5, 0.9, 2.0], cfg)
        gen = SeededRng(31).generator
        h = 1e-7
        for _ in range(200):
            l = float(gen.uniform(0.0, 2.5))
            if abs((l - state.threshold) / cfg.lam - CAP_BETA) < 1e-3:
                continue  # the cap corner itself is only one-sided smooth
            up = crucial_adp(l + h, state, cfg).value
            dn = crucial_adp(l - h, state, cfg).value
            fd = (up - dn) / (2.0 * h)
            factor = crucial_adp(l, state, cfg).kappa
            assert fd == pytest.approx(factor, abs=1e-6)


def _rows(m):
    """The rows of a record of arrays, each as a one-sample record's fields."""
    return list(zip(m.input_loss.tolist(), m.kappa.tolist(), m.threshold.tolist(),
                    m.gate.tolist(), m.value.tolist(), m.selected.tolist()))


class TestModulateEpoch:
    LOSSES = np.concatenate([SeededRng(5).generator.uniform(0.0, 3.0, 200),
                             [0.0, 0.7, 1e-3, 2.9]])

    @pytest.mark.parametrize("formula", list(KappaFormula))
    def test_kappa_matches_kappa_star(self, formula):
        gen = SeededRng(8).generator
        for _ in range(20):
            thr = float(gen.uniform(0.0, 2.0))
            lam = float(gen.uniform(1e-3, 1.0))
            losses = np.concatenate([self.LOSSES, [thr, thr + 2.0 * lam * CAP_BETA]])
            cfg = CrucialConfig(Variant.BASELINE, lam=lam, threshold=thr, kappa_formula=formula)
            m = modulate_epoch(losses, initial_epoch_state(), cfg)
            ref = np.array([kappa_star(float(l), thr, lam, formula) for l in losses])
            beta = (losses - thr) / lam
            x = beta / 2.0 if formula is KappaFormula.ARGMIN else beta
            away = np.abs(x - W_DOMAIN_MIN) >= 1e-8
            assert np.max(np.abs(m.kappa - ref)[away]) <= 1e-12
            assert m.kappa[-2] == 1.0 and m.value[-2] == 0.0
            if formula is KappaFormula.ARGMIN:
                assert np.all(m.kappa[beta <= CAP_BETA] == KAPPA_CAP)
                assert m.kappa[-1] == KAPPA_CAP
            values = [modulated_value(float(l), thr, lam, float(k)) for l, k in zip(losses, m.kappa)]
            assert np.max(np.abs(m.value - values)) <= 1e-12

    @pytest.mark.parametrize("formula", list(KappaFormula))
    def test_kernel_broadcasts_threshold_and_lam_per_entry(self, formula):
        gen = SeededRng(4).generator
        thr = gen.uniform(0.0, 2.0, self.LOSSES.size)
        lam = gen.uniform(1e-3, 1.0, self.LOSSES.size)
        kappa, value = kappa_and_value(self.LOSSES, thr, lam, formula)
        for i, l in enumerate(self.LOSSES.tolist()):
            one = modulate_epoch([l], initial_epoch_state(), CrucialConfig(
                Variant.BASELINE, lam=float(lam[i]), threshold=float(thr[i]), kappa_formula=formula))
            assert (kappa[i], value[i]) == (one.kappa[0], one.value[0])
        assert value.tobytes() == shell_value(self.LOSSES - thr, lam, kappa).tobytes()

    def test_adp_and_baseline_match_the_per_sample_wrappers(self):
        cfg = CrucialConfig(Variant.ADP, lam=0.01)
        state = advance_epoch_adp([0.2, 0.2, 0.2, 1.0], cfg)
        m = modulate_epoch(self.LOSSES, state, cfg)
        assert _rows(m) == [astuple(crucial_adp(float(l), state, cfg)) for l in self.LOSSES]
        assert m.threshold.tolist() == [state.threshold] * self.LOSSES.size
        base = CrucialConfig(Variant.BASELINE, lam=0.05, threshold=0.9)
        m = modulate_epoch(self.LOSSES, state, base)
        assert _rows(m) == [astuple(baseline_confidence_loss(float(l), 0.9, 0.05))
                            for l in self.LOSSES]

    @pytest.mark.parametrize("formula", list(KappaFormula))
    def test_sin_matches_the_per_sample_wrapper(self, formula):
        cfg = CrucialConfig(Variant.SIN, lam=0.01, omega=math.pi / 4.0, kappa_formula=formula)
        mu = float(np.mean(self.LOSSES))
        for t in range(8):  # F = 0, 1/2, 1, 1/2, then again
            m = modulate_epoch(self.LOSSES, EpochState(epoch_index=t, threshold=0.0), cfg)
            assert _rows(m) == [astuple(crucial_sin(float(l), t, mu, cfg)) for l in self.LOSSES]
            if t % 2:
                assert 0 < np.count_nonzero(~m.selected) < self.LOSSES.size

    def test_gated_rows_carry_zero_weight(self):
        cfg = CrucialConfig(Variant.SIN, lam=0.01, omega=0.37, phase=0.4, mu_fixed=1.3)
        for t in range(12):
            m = modulate_epoch(self.LOSSES, EpochState(epoch_index=t, threshold=0.0), cfg)
            assert np.all(m.kappa[~m.selected] == 0.0)
            assert np.all(m.value[~m.selected] == 0.0)

    def test_no_wrapper_is_the_neutral_record(self):
        m = modulate_epoch(self.LOSSES, initial_epoch_state(), None)
        assert np.all(m.kappa == 1.0) and np.all(m.threshold == 0.0) and np.all(m.selected)
        assert np.array_equal(m.value, self.LOSSES)

    def test_concat_keeps_row_order(self):
        cfg = CrucialConfig(Variant.ADP, lam=0.01)
        a = modulate_epoch(self.LOSSES[:3], initial_epoch_state(), cfg)
        b = modulate_epoch(self.LOSSES[3:5], initial_epoch_state(), None)
        both = ModulatedLoss.concat([a, b])
        assert _rows(both) == _rows(a) + _rows(b)


class TestConfigValidation:
    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            CrucialConfig(Variant.ADP, lam=0.0)

    def test_sin_needs_nonzero_omega(self):
        with pytest.raises(ValueError):
            CrucialConfig(Variant.SIN, lam=0.01, omega=0.0)

    def test_theorem_mode_bounds_lambda(self):
        with pytest.raises(ValueError):
            CrucialConfig(Variant.ADP, lam=0.02, theorem_mode=True)
        CrucialConfig(Variant.ADP, lam=0.01, theorem_mode=True)

    def test_fixed_mu_must_be_positive(self):
        with pytest.raises(ValueError):
            CrucialConfig(Variant.SIN, lam=0.01, omega=1.0, mu_fixed=0.0)

    def test_modulated_value_rejects_nonpositive_kappa(self):
        with pytest.raises(ValueError):
            modulated_value(1.0, 0.5, 0.01, 0.0)


class TestTraceExport:
    def test_csv_bytes_are_stable(self, tmp_path):
        cfg = CrucialConfig(Variant.ADP, lam=0.01)
        state = initial_epoch_state()
        mod = modulate_epoch([0.25, 2.5], state, cfg)
        path = tmp_path / "trace.csv"
        write_loss_trace(path, [0, 0], [0, 1], mod)
        text = path.read_text(encoding="utf-8")
        lines = text.strip().split("\n")
        assert lines[0] == "epoch,sample_id,input_loss,kappa,threshold,value,selected"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert first[2] == repr(0.25)
        assert first[3] == repr(crucial_adp(0.25, state, cfg).kappa)
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
        mod = modulate_epoch(losses, EpochState(epoch_index=1, threshold=0.0), cfg)
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
        gate=np.full(n, -math.inf),
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
        m = ModulatedLoss(special, special[::-1].copy(), special, np.full(8, -math.inf),
                          np.roll(special, 3), np.arange(8) % 3 == 0)
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
        m = modulate_epoch(losses, EpochState(epoch_index=1, threshold=0.0), cfg)
        assert 0 < int(m.selected.sum()) < losses.size
        self.assert_same_bytes(tmp_path, np.full(losses.size, 1), np.arange(losses.size), m)


MIN_LANE_ROWS = loss_module._TRACE_MIN_LANE_ROWS
SPECIAL = np.array([math.nan, math.inf, -math.inf, 5e-324, -0.0, 0.0, 1e16, 0.1])


@pytest.fixture
def started(monkeypatch):
    """Every process started through subprocess.Popen during the test, in order."""
    procs = []
    real_popen = subprocess.Popen

    def recording_popen(*args, **kwargs):
        procs.append(real_popen(*args, **kwargs))
        return procs[-1]

    monkeypatch.setattr(subprocess, "Popen", recording_popen)
    return procs


def lane_splits(n, lanes):
    return [n * i // lanes for i in range(1, lanes)]


def record_with_specials_at_splits(n, lanes):
    """A record whose float columns hold every special value on both sides of each split."""
    m = random_record(n, n, thresholds=(-0.0, 0.0))
    for split in lane_splits(n, lanes):
        rows = slice(split - SPECIAL.size // 2, split + SPECIAL.size // 2)
        for column, shift in ((m.input_loss, 0), (m.kappa, 3), (m.threshold, 5), (m.value, 6)):
            column[rows] = np.roll(SPECIAL, shift)
    return m


class TestTraceLanes:
    """Traces long enough to be split between this process and helper processes."""

    assert_same_bytes = TestTraceMatchesCsvReference.assert_same_bytes

    @pytest.mark.parametrize("lanes, n, split_at_chunk_edge", [
        (2, 2 * MIN_LANE_ROWS, True),
        (2, 2 * MIN_LANE_ROWS + 1, True),            # odd total
        (2, 2 * MIN_LANE_ROWS + 1001, False),         # odd total, split inside a chunk
        (3, 3 * MIN_LANE_ROWS + 7, False),
    ])
    def test_lanes_write_the_csv_reference_bytes(self, tmp_path, monkeypatch, started,
                                                 lanes, n, split_at_chunk_edge):
        monkeypatch.setattr(loss_module, "_usable_cpus", lambda: lanes)
        splits = lane_splits(n, lanes)
        assert all((s % CHUNK_ROWS == 0) == split_at_chunk_edge for s in splits)
        m = record_with_specials_at_splits(n, lanes)
        sample_ids = np.arange(n) % 512
        sample_ids[splits[0] - 1:splits[0] + 1] = (-5, np.iinfo(np.int64).max)
        self.assert_same_bytes(tmp_path, np.arange(n) // 512, sample_ids, m)
        text = (tmp_path / "new.csv").read_text(encoding="utf-8")
        assert ",-0.0," in text and ",0.0," in text and ",5e-324," in text
        assert len(started) == lanes - 1
        assert all(proc.returncode == 0 for proc in started)

    def test_a_long_trace_is_written_in_blocks_of_bounded_lanes(self, tmp_path, monkeypatch,
                                                                 started):
        monkeypatch.setattr(loss_module, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(loss_module, "_TRACE_MAX_LANE_ROWS", MIN_LANE_ROWS + 100)
        # Blocks of 2 * (MIN_LANE_ROWS + 100) rows: two of two lanes, then a
        # last block too short to split.
        n = 5 * MIN_LANE_ROWS + 123
        m = record_with_specials_at_splits(n, 5)
        self.assert_same_bytes(tmp_path, np.arange(n) // 512, np.arange(n) % 512, m)
        assert len(started) == 2
        assert all(proc.returncode == 0 for proc in started)

    def test_a_trace_below_the_lane_minimum_starts_no_process(self, tmp_path, monkeypatch,
                                                               started):
        monkeypatch.setattr(loss_module, "_usable_cpus", lambda: 2)
        n = 2 * MIN_LANE_ROWS - 1
        self.assert_same_bytes(tmp_path, np.zeros(n, dtype=int), np.arange(n),
                               random_record(n, 5))
        assert started == []

    @pytest.mark.parametrize("script", [
        "import sys; sys.stdin.buffer.read(); sys.exit(3)",
        "import sys; sys.exit(3)",  # gone before its rows are sent
    ])
    def test_a_failing_helper_raises_and_leaves_no_process(self, tmp_path, monkeypatch,
                                                           started, script):
        monkeypatch.setattr(loss_module, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(loss_module, "_TRACE_HELPER", (sys.executable, "-c", script))
        n = 3 * MIN_LANE_ROWS
        with pytest.raises(RuntimeError, match="status 3"):
            write_loss_trace(tmp_path / "t.csv", np.zeros(n, dtype=int), np.arange(n),
                             random_record(n, 6))
        assert len(started) == 2
        for proc in started:
            assert proc.returncode is not None and proc.stdin.closed and proc.stdout.closed

    def test_an_error_in_this_process_kills_the_helpers(self, tmp_path, monkeypatch, started):
        def failing_chunks(*args):
            raise OSError("no space left")
            yield

        monkeypatch.setattr(loss_module, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(loss_module.tracetext, "encoded_chunks", failing_chunks)
        n = 2 * MIN_LANE_ROWS
        with pytest.raises(OSError, match="no space left"):
            write_loss_trace(tmp_path / "t.csv", np.zeros(n, dtype=int), np.arange(n),
                             random_record(n, 7))
        # Nothing reads the helper's text, which overflows its pipe, so the
        # helper cannot have finished on its own.
        assert [proc.returncode for proc in started] == [-signal.SIGKILL]
        assert started[0].stdin.closed and started[0].stdout.closed

    @pytest.mark.parametrize("column", ["epochs", "sample_ids"])
    @pytest.mark.parametrize("values", [[3.0, 3.0], [True, False],
                                        np.array([1, 2], dtype=np.uint64)])
    def test_non_integer_epochs_and_ids_are_refused(self, tmp_path, column, values):
        columns = {"epochs": [0, 0], "sample_ids": [0, 1], column: values}
        with pytest.raises(ValueError, match=column):
            write_loss_trace(tmp_path / "t.csv", columns["epochs"], columns["sample_ids"],
                             random_record(2, 8))
        assert not (tmp_path / "t.csv").exists()
