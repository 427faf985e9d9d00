"""Executable invariant suites.

Each suite returns (passed, detail) and is deterministic given a seed, so
the CLI can emit a machine-readable pass/fail report and the test suite can
assert the same facts.  The confidence-weight suites check the closed form
against an independent golden-section minimizer of the raw objective
kappa*(l - eps) + lam*(ln kappa)^2, never against the closed form itself.
"""

from __future__ import annotations

import math

import numpy as np

from .data import gen_drift_classification, gen_sine_regression, load_csv, save_csv
from .loss import (
    CrucialConfig,
    KappaFormula,
    Variant,
    crucial_sin,
    kappa_star,
    modulated_value,
)
from .numerics import SeededRng, erfc, lambert_w0, loss_stats
from .trainer import forward_backward, make_model

__all__ = [
    "SUITES",
    "golden_section_min",
    "run_suites",
]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_min(f, lo: float, hi: float, tol: float = 1e-11) -> float:
    """Golden-section minimum of a unimodal f on [lo, hi].

    Converges to boundary points as well, so it doubles as the oracle for
    the capped region where the constrained minimizer sits at the upper
    bound.  Interval is shrunk until narrower than tol.
    """
    a, b = float(lo), float(hi)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _shell(loss, threshold, lam):
    return lambda k: k * (loss - threshold) + lam * math.log(k) ** 2


def suite_lambert_w_residual(rng: SeededRng, formula: KappaFormula):
    """Max |w*exp(w) - x| over 10^4 grid points in [-1/e, 10] is <= 1e-12."""
    xs = np.linspace(-math.exp(-1.0), 10.0, 10_000)
    worst = 0.0
    for x in xs:
        w = lambert_w0(float(x))
        worst = max(worst, abs(w * math.exp(w) - float(x)))
    return worst <= 1e-12, f"max residual {worst:.3e} over 10^4 grid points"


def suite_lambert_w_monotonic(rng: SeededRng, formula: KappaFormula):
    """W is strictly increasing on its domain (checked on a dense grid)."""
    xs = np.linspace(-math.exp(-1.0), 10.0, 4_000)
    ws = [lambert_w0(float(x)) for x in xs]
    bad = sum(1 for a, b in zip(ws, ws[1:]) if not b > a)
    return bad == 0, f"{bad} non-increasing steps on 4000-point grid"


def suite_erfc_reflection(rng: SeededRng, formula: KappaFormula):
    """erfc(-x) + erfc(x) = 2 to 1e-10 on |x| <= 6."""
    xs = np.linspace(0.0, 6.0, 2_000)
    worst = max(abs(erfc(float(-x)) + erfc(float(x)) - 2.0) for x in xs)
    return worst <= 1e-10, f"max reflection defect {worst:.3e}"


def suite_loss_stats_invariance(rng: SeededRng, formula: KappaFormula):
    """Shift leaves std/skewness unchanged; positive scaling leaves skewness."""
    gen = rng.derive("loss-stats").generator
    worst = 0.0
    for _ in range(200):
        v = gen.normal(0.0, 1.0, 64) + gen.exponential(1.0, 64)
        base = loss_stats(v)
        shifted = loss_stats(v + 3.7)
        scaled = loss_stats(v * 2.5)
        worst = max(
            worst,
            abs(shifted.std - base.std) / max(base.std, 1e-30),
            abs(shifted.skewness - base.skewness) / max(abs(base.skewness), 1e-12),
            abs(scaled.skewness - base.skewness) / max(abs(base.skewness), 1e-12),
        )
    return worst <= 1e-9, f"max relative drift {worst:.3e} over 200 draws"


def suite_kappa_argmin_oracle(rng: SeededRng, formula: KappaFormula):
    """Closed-form weight vs. golden-section minimization of the raw shell.

    1000 random (l, eps, lam in [1e-3, 1]) triples must agree to 1e-6 in
    kappa; kappa(l = eps) must be exactly 1; the capped region at
    beta <= -2/e must return exactly e (the boundary is the constrained
    minimizer there, which the bounded oracle confirms).
    """
    gen = rng.derive("kappa-argmin").generator
    worst = 0.0
    for _ in range(1000):
        l = float(gen.uniform(0.0, 2.0))
        eps = float(gen.uniform(0.0, 2.0))
        lam = float(gen.uniform(1e-3, 1.0))
        k = kappa_star(l, eps, lam, formula)
        k_oracle = golden_section_min(_shell(l, eps, lam), 1e-8, math.e)
        worst = max(worst, abs(k - k_oracle))
    exact_one = kappa_star(1.25, 1.25, 0.01, formula) == 1.0
    capped = kappa_star(0.0, 2.0 * 0.01 / math.e + 1e-9, 0.01, formula) == math.e
    ok = worst <= 1e-6 and exact_one and capped
    return ok, (
        f"max |closed form - golden section| {worst:.3e}; "
        f"exact 1 at l=eps: {exact_one}; cap==e below -2/e: {capped}"
    )


def suite_property1_translation(rng: SeededRng, formula: KappaFormula):
    """Adding C to both loss and threshold changes nothing (to 1e-12)."""
    gen = rng.derive("p1").generator
    worst = 0.0
    for _ in range(1000):
        l = float(gen.uniform(0.0, 2.0))
        eps = float(gen.uniform(0.0, 2.0))
        lam = float(gen.uniform(1e-3, 1.0))
        c = float(gen.uniform(-5.0, 5.0))
        k0 = kappa_star(l, eps, lam, formula)
        k1 = kappa_star(l + c, eps + c, lam, formula)
        v0 = modulated_value(l, eps, lam, k0)
        v1 = modulated_value(l + c, eps + c, lam, k1)
        worst = max(worst, abs(k1 - k0), abs(v1 - v0))
    return worst <= 1e-12, f"max translation drift {worst:.3e} over 1000 draws"


def suite_property2_homogeneity(rng: SeededRng, formula: KappaFormula):
    """(C*l, C*eps, C*lam) scales the value by exactly C (1e-10 relative)."""
    gen = rng.derive("p2").generator
    worst = 0.0
    for _ in range(1000):
        l = float(gen.uniform(0.0, 2.0))
        eps = float(gen.uniform(0.0, 2.0))
        lam = float(gen.uniform(1e-3, 1.0))
        c = float(gen.uniform(0.1, 10.0))
        k0 = kappa_star(l, eps, lam, formula)
        v0 = modulated_value(l, eps, lam, k0)
        k1 = kappa_star(c * l, c * eps, c * lam, formula)
        v1 = modulated_value(c * l, c * eps, c * lam, k1)
        denom = max(abs(c * v0), 1e-30)
        worst = max(worst, abs(v1 - c * v0) / denom)
    return worst <= 1e-10, f"max relative homogeneity defect {worst:.3e}"


def suite_property3_unit_confidence(rng: SeededRng, formula: KappaFormula):
    """Forcing kappa = 1 reduces the shell to l - eps exactly."""
    gen = rng.derive("p3").generator
    for _ in range(1000):
        l = float(gen.uniform(-2.0, 2.0))
        eps = float(gen.uniform(-2.0, 2.0))
        lam = float(gen.uniform(1e-3, 1.0))
        if modulated_value(l, eps, lam, 1.0) != l - eps:
            return False, f"value != l - eps at l={l}, eps={eps}, lam={lam}"
    return True, "value == l - eps exactly on 1000 draws"


def suite_property4_differentiated_scaling(rng: SeededRng, formula: KappaFormula):
    """Easy samples are amplified more than hard ones are kept.

    For pairs l_i < eps < l_j (lam = 0.01, 1000 pairs, gaps at least 0.01
    so neither side degenerates to the l = eps fixed point):
    L_i/(l_i - eps) > L_j/(l_j - eps) and kappa_i > 1 > kappa_j.
    """
    gen = rng.derive("p4").generator
    lam = 0.01
    for _ in range(1000):
        eps = float(gen.uniform(0.5, 1.5))
        l_easy = eps - float(gen.uniform(0.01, eps * 0.98))
        l_hard = eps + float(gen.uniform(0.01, 2.0))
        k_e = kappa_star(l_easy, eps, lam, formula)
        k_h = kappa_star(l_hard, eps, lam, formula)
        r_e = modulated_value(l_easy, eps, lam, k_e) / (l_easy - eps)
        r_h = modulated_value(l_hard, eps, lam, k_h) / (l_hard - eps)
        if not (r_e > r_h and k_e > 1.0 > k_h):
            return False, (
                f"violated at eps={eps:.4f}, l_i={l_easy:.4f}, l_j={l_hard:.4f}: "
                f"ratios {r_e:.6f} vs {r_h:.6f}, kappas {k_e:.6f} vs {k_h:.6f}"
            )
    return True, "ratio ordering and kappa bracketing held on 1000 pairs"


def suite_sin_period_identity(rng: SeededRng, formula: KappaFormula):
    """omega = pi/4 outputs at epochs t and t+4 are bit-identical."""
    gen = rng.derive("sin-period").generator
    cfg = CrucialConfig(variant=Variant.SIN, omega=math.pi / 4.0, phase=0.0,
                        kappa_formula=formula)
    for _ in range(250):
        loss = float(gen.uniform(0.0, 3.0))
        mu = float(gen.uniform(0.2, 2.0))
        t = int(gen.integers(0, 64))
        a = crucial_sin(loss, t, mu, cfg)
        b = crucial_sin(loss, t + 4, mu, cfg)
        if a != b:
            return False, f"epoch {t} vs {t + 4} differ for loss={loss}, mu={mu}"
    return True, "250 random (loss, mu, epoch) draws bit-identical at t and t+4"


def suite_kappa_bounds(rng: SeededRng, formula: KappaFormula):
    """0 < kappa <= e for every finite input, across all variants."""
    gen = rng.derive("kappa-bounds").generator
    cfg = CrucialConfig(variant=Variant.SIN, kappa_formula=formula)
    for _ in range(1000):
        l = float(gen.uniform(-10.0, 10.0))
        eps = float(gen.uniform(-10.0, 10.0))
        lam = float(gen.uniform(1e-4, 10.0))
        k = kappa_star(l, eps, lam, formula)
        if not (0.0 < k <= math.e):
            return False, f"kappa_star out of (0, e]: {k} at l={l}, eps={eps}, lam={lam}"
        m = crucial_sin(abs(l), int(gen.integers(0, 16)), abs(eps) + 0.1, cfg)
        if not (0.0 <= m.kappa <= math.e):
            return False, f"cycled kappa out of [0, e]: {m.kappa}"
    return True, "all weights inside (0, e] (0 only as the explicit flag)"


def suite_gradient_finite_difference(rng: SeededRng, formula: KappaFormula):
    """Analytic per-sample gradients match centered finite differences.

    For each model kind, random parameters and a random direction: the
    directional derivative of the mean base loss agrees with the centered
    difference to 1e-4 relative, over 100 draws.
    """
    h = 1e-6
    for kind, base_loss, n_out in (("linear", "mse", 1),
                                   ("mlp", "cross_entropy", 2),
                                   ("elman_rnn", "mse", 1)):
        sub = rng.derive(f"fd/{kind}")
        gen = sub.derive("draws").generator
        worst = 0.0
        for i in range(100):
            model = make_model(kind, 6, n_out, sub.derive(f"model{i}"), hidden=(5,) if kind == "mlp" else 4)
            n = 3
            X = gen.normal(0.0, 1.0, (n, 6))
            if base_loss == "mse":
                y = gen.normal(0.0, 1.0, n)
            else:
                y = gen.integers(0, n_out, n)
            losses, grads = forward_backward(model, X, y, base_loss)
            g = np.mean(grads, axis=0)
            d = gen.normal(0.0, 1.0, model.n_params)
            d /= np.linalg.norm(d)
            saved = model.params.copy()
            model.params = saved + h * d
            lp = float(np.mean(forward_backward(model, X, y, base_loss)[0]))
            model.params = saved - h * d
            lm = float(np.mean(forward_backward(model, X, y, base_loss)[0]))
            model.params = saved
            fd = (lp - lm) / (2.0 * h)
            an = float(g @ d)
            rel = abs(an - fd) / max(abs(an), abs(fd), 1e-8)
            worst = max(worst, rel)
        if worst > 1e-4:
            return False, f"{kind}: worst relative gradient error {worst:.3e}"
    return True, "all three model kinds within 1e-4 of centered differences"


def suite_csv_round_trip(rng: SeededRng, formula: KappaFormula):
    """save_csv -> load_csv reproduces ids, labels, and values bit-exactly."""
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "round.csv"
        ds = gen_sine_regression(16, 12, 0.05, rng.derive("csv-sine"))
        save_csv(path, ds)
        back = load_csv(path)
        if back.rejected:
            return False, f"round trip rejected rows: {back.rejected}"
        for a, b in zip(ds.samples, back.dataset.samples):
            if a.id != b.id or a.label != b.label or not np.array_equal(a.values, b.values):
                return False, f"sample {a.id} not identical after round trip"
        ds2 = gen_drift_classification(16, 12, 0.5, 0.25, rng.derive("csv-drift"))
        path2 = Path(tmp) / "round2.csv"
        save_csv(path2, ds2)
        back2 = load_csv(path2)
        same = all(
            a.id == b.id and a.label == b.label and np.array_equal(a.values, b.values)
            for a, b in zip(ds2.samples, back2.dataset.samples)
        )
        if not same or back2.rejected:
            return False, "classification dataset not identical after round trip"
    return True, "two generated datasets round-tripped bit-exactly"


SUITES = {
    "lambert_w_residual": suite_lambert_w_residual,
    "lambert_w_monotonic": suite_lambert_w_monotonic,
    "erfc_reflection": suite_erfc_reflection,
    "loss_stats_invariance": suite_loss_stats_invariance,
    "kappa_argmin_oracle": suite_kappa_argmin_oracle,
    "property1_translation": suite_property1_translation,
    "property2_homogeneity": suite_property2_homogeneity,
    "property3_unit_confidence": suite_property3_unit_confidence,
    "property4_differentiated_scaling": suite_property4_differentiated_scaling,
    "sin_period_identity": suite_sin_period_identity,
    "kappa_bounds": suite_kappa_bounds,
    "gradient_finite_difference": suite_gradient_finite_difference,
    "csv_round_trip": suite_csv_round_trip,
}


def run_suites(seed: int, formula: KappaFormula = KappaFormula.ARGMIN,
               names=None) -> dict:
    """Run the invariant suites; returns {name: {passed, detail}}."""
    rng = SeededRng(seed)
    picked = SUITES if names is None else {n: SUITES[n] for n in names}
    report = {}
    for name, fn in picked.items():
        passed, detail = fn(rng.derive(f"suite/{name}"), formula)
        report[name] = {"passed": bool(passed), "detail": detail}
    return report
