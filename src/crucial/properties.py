"""Executable invariant suites.

Each suite takes one SeededRng, returns (passed, detail) and is
deterministic given a seed, so the CLI can emit a machine-readable pass/fail
report and the test suite can assert the same facts.  The Lambert W and
confidence-weight suites run, over whole arrays of draws, the kernels that
training runs: lambert_w0_array, loss.kappa_and_value and loss.shell_value,
and modulate_epoch for the cycled variant.  The confidence weights are
checked against an independent golden-section minimizer of the raw
objective kappa*(l - eps) + lam*(ln kappa)^2, never against the closed form
itself: a kernel that renders the closed form wrongly, with the exponent
halved outside W, still passes the structural properties and fails
kappa_argmin_oracle alone.
"""

from __future__ import annotations

import math
from dataclasses import fields, replace

import numpy as np
from scipy.special import erfcx

from .data import gen_drift_classification, gen_sine_regression, load_csv, save_csv
from .loss import (CrucialConfig, ModulatedLoss, Variant, kappa_and_value, modulate_epoch,
                   shell_value)
from .numerics import SeededRng, lambert_w0_array, loss_stats
from .sampler import LossPopulation, PopulationKind
from .trainer import forward_backward, make_model

__all__ = ["SUITES", "golden_section_min", "run_suites"]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_TOL = 1e-11  # golden_section_min stops once its bracket is this narrow


def golden_section_min(f, lo: float, hi: float) -> float:
    """Golden-section minimum of a unimodal f on [lo, hi].

    Converges to boundary points as well, so it doubles as the oracle for
    the capped region where the constrained minimizer sits at the upper
    bound.  Interval is shrunk until narrower than _GOLDEN_TOL.
    """
    a, b = float(lo), float(hi)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > _GOLDEN_TOL:
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


def _draws(rng: SeededRng, name: str, lows, highs, n: int = 1000):
    """n draws of each uniform on [lows[j], highs[j]), one array per j."""
    return rng.derive(name).generator.uniform(lows, highs, (n, len(lows))).T


def suite_lambert_w_residual(rng: SeededRng):
    """Max |w*exp(w) - x| over 10^4 grid points in [-1/e, 10] is <= 1e-12."""
    xs = np.linspace(-math.exp(-1.0), 10.0, 10_000)
    w = lambert_w0_array(xs)
    worst = float(np.max(np.abs(w * np.exp(w) - xs)))
    return worst <= 1e-12, f"max residual {worst:.3e} over 10^4 grid points"


def suite_lambert_w_monotonic(rng: SeededRng):
    """W is strictly increasing on its domain (checked on a dense grid)."""
    ws = lambert_w0_array(np.linspace(-math.exp(-1.0), 10.0, 4_000))
    bad = int(np.count_nonzero(~(ws[1:] > ws[:-1])))
    return bad == 0, f"{bad} non-increasing steps on 4000-point grid"


def suite_erfc_reflection(rng: SeededRng):
    """The sampler's tail-safe erfc forms: erfc(x) = exp(-x^2) erfcx(x) meets
    erfc(-x) + erfc(x) = 2 to 1e-10 on |x| <= 6, and the tilted half-normal's
    inverse CDF starts at its cut mu for rate*sigma up to 60, well past where
    erfc(rate*sigma/sqrt 2) underflows (about 38)."""
    xs = np.linspace(0.0, 6.0, 2_000)
    worst = float(np.max(np.abs(np.exp(-xs * xs) * (erfcx(xs) + erfcx(-xs)) - 2.0)))
    pop = LossPopulation(PopulationKind.HALF_NORMAL, mu=0.0, sigma=1.0)
    cut = max(abs(float(pop.tilted_quantile(np.array([1e-300]), a)[0])) / a
              for a in np.linspace(1.0, 60.0, 60))
    return worst <= 1e-10 and cut <= 1e-12, (
        f"max reflection defect {worst:.3e}; tilted cut offset {cut:.3e} up to rate*sigma 60")


def suite_loss_stats_invariance(rng: SeededRng):
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


def suite_kappa_argmin_oracle(rng: SeededRng):
    """Closed-form weight vs. golden-section minimization of the raw shell.

    1000 random (l, eps, lam in [1e-3, 1]) triples must agree to 1e-6 in
    kappa; kappa(l = eps) must be exactly 1; the capped region at
    beta <= -2/e must return exactly e (the boundary is the constrained
    minimizer there, which the bounded oracle confirms).  The oracle stays
    scalar on purpose: it shares no code with the kernel.
    """
    l, eps, lam = _draws(rng, "kappa-argmin", [0.0, 0.0, 1e-3], [2.0, 2.0, 1.0])
    oracle = [golden_section_min(_shell(*t), 1e-8, math.e)
              for t in np.column_stack((l, eps, lam)).tolist()]
    worst = float(np.max(np.abs(kappa_and_value(l, eps, lam)[0] - oracle)))
    edge = kappa_and_value(np.array([1.25, 0.0]), np.array([1.25, 2.0 * 0.01 / math.e + 1e-9]),
                           0.01)[0]
    exact_one, capped = bool(edge[0] == 1.0), bool(edge[1] == math.e)
    return worst <= 1e-6 and exact_one and capped, (
        f"max |closed form - golden section| {worst:.3e}; "
        f"exact 1 at l=eps: {exact_one}; cap==e below -2/e: {capped}"
    )


def suite_property1_translation(rng: SeededRng):
    """Adding C to both loss and threshold changes nothing (to 1e-12)."""
    l, eps, lam, c = _draws(rng, "p1", [0.0, 0.0, 1e-3, -5.0], [2.0, 2.0, 1.0, 5.0])
    drift = np.subtract(kappa_and_value(l + c, eps + c, lam),
                        kappa_and_value(l, eps, lam))
    worst = float(np.max(np.abs(drift)))
    return worst <= 1e-12, f"max translation drift {worst:.3e} over 1000 draws"


def suite_property2_homogeneity(rng: SeededRng):
    """(C*l, C*eps, C*lam) scales the value by exactly C (1e-10 relative)."""
    l, eps, lam, c = _draws(rng, "p2", [0.0, 0.0, 1e-3, 0.1], [2.0, 2.0, 1.0, 10.0])
    cv0 = c * kappa_and_value(l, eps, lam)[1]
    v1 = kappa_and_value(c * l, c * eps, c * lam)[1]
    worst = float(np.max(np.abs(v1 - cv0) / np.maximum(np.abs(cv0), 1e-30)))
    return worst <= 1e-10, f"max relative homogeneity defect {worst:.3e}"


def suite_property3_unit_confidence(rng: SeededRng):
    """Forcing kappa = 1 reduces the kernel's shell to l - eps exactly."""
    l, eps, lam = _draws(rng, "p3", [-2.0, -2.0, 1e-3], [2.0, 2.0, 1.0])
    ok = shell_value(l - eps, lam, 1.0) == l - eps
    if not ok.all():
        i = np.argmin(ok)
        return False, f"value != l - eps at l={l[i]}, eps={eps[i]}, lam={lam[i]}"
    return True, "value == l - eps exactly on 1000 draws"


def suite_property4_differentiated_scaling(rng: SeededRng):
    """Easy samples are amplified more than hard ones are kept.

    For pairs l_i < eps < l_j (lam = 0.01, 1000 pairs, gaps at least 0.01
    so neither side degenerates to the l = eps fixed point):
    L_i/(l_i - eps) > L_j/(l_j - eps) and kappa_i > 1 > kappa_j.
    """
    # uniform(low, high) = low + (high - low) * u: eps on [0.5, 1.5), the
    # easy gap on [0.01, 0.98 eps), the hard gap on [0.01, 2).
    u = rng.derive("p4").generator.random((1000, 3))
    eps = 0.5 + (1.5 - 0.5) * u[:, 0]
    l = np.stack([eps - (0.01 + (eps * 0.98 - 0.01) * u[:, 1]),
                  eps + (0.01 + (2.0 - 0.01) * u[:, 2])])
    (k_e, k_h), value = kappa_and_value(l, eps, 0.01)
    r_e, r_h = value / (l - eps)
    ok = (r_e > r_h) & (k_e > 1.0) & (1.0 > k_h)
    if not ok.all():
        i = np.argmin(ok)
        return False, (
            f"violated at eps={eps[i]:.4f}, l_i={l[0, i]:.4f}, l_j={l[1, i]:.4f}: "
            f"ratios {r_e[i]:.6f} vs {r_h[i]:.6f}, kappas {k_e[i]:.6f} vs {k_h[i]:.6f}"
        )
    return True, "ratio ordering and kappa bracketing held on 1000 pairs"


def suite_sin_period_identity(rng: SeededRng):
    """omega = pi/4 outputs at epochs t and t+4 are bit-identical, for 25
    epochs t in [0, 64), each with its own fixed mu and 10 losses."""
    gen = rng.derive("sin-period").generator
    cfg = CrucialConfig(variant=Variant.SIN, omega=math.pi / 4.0, phase=0.0)
    losses, mus = gen.uniform(0.0, 3.0, (25, 10)), gen.uniform(0.2, 2.0, 25).tolist()
    for loss, mu, t in zip(losses, mus, gen.integers(0, 64, 25).tolist()):
        at = replace(cfg, mu_fixed=mu)
        a, b = (modulate_epoch(loss, at, e) for e in (t, t + 4))
        differ = np.logical_or.reduce([getattr(a, f.name) != getattr(b, f.name)
                                       for f in fields(ModulatedLoss)])
        if differ.any():
            i = np.argmax(differ)
            return False, f"epoch {t} vs {t + 4} differ for loss={loss[i]}, mu={mu}"
    return True, "250 random (loss, mu, epoch) draws bit-identical at t and t+4"


def suite_kappa_bounds(rng: SeededRng):
    """0 < kappa <= e for every finite input, across all variants; the
    cycled variant weighs |l| at each epoch of [0, 16), mu the epoch mean."""
    l, eps, lam = _draws(rng, "kappa-bounds", [-10.0, -10.0, 1e-4], [10.0, 10.0, 10.0])
    k = kappa_and_value(l, eps, lam)[0]
    ok = (0.0 < k) & (k <= math.e)
    if not ok.all():
        i = np.argmin(ok)
        return False, f"kappa_star out of (0, e]: {k[i]} at l={l[i]}, eps={eps[i]}, lam={lam[i]}"
    cfg = CrucialConfig(variant=Variant.SIN)
    cycled = np.concatenate([modulate_epoch(np.abs(l), cfg, t).kappa for t in range(16)])
    out = cycled[~((0.0 <= cycled) & (cycled <= math.e))]
    if out.size:
        return False, f"cycled kappa out of [0, e]: {out[0]}"
    return True, "all weights inside (0, e] (0 only as the explicit flag)"


def suite_gradient_finite_difference(rng: SeededRng):
    """The summed gradient of one backward pass matches centered finite differences.

    For each model kind, random parameters and a random direction: the
    directional derivative of the mean base loss (the summed gradient over
    n) agrees with the centered difference to 1e-4 relative, over 100 draws.
    """
    h = 1e-6
    for kind, n_out in (("linear", 1), ("mlp", 2), ("elman_rnn", 1)):
        sub = rng.derive(f"fd/{kind}")
        gen = sub.derive("draws").generator
        worst = 0.0
        for i in range(100):
            model = make_model(kind, 6, n_out, sub.derive(f"model{i}"), hidden=(5,) if kind == "mlp" else 4)
            n = 3
            X = gen.normal(0.0, 1.0, (n, 6))
            if n_out == 1:
                y = gen.normal(0.0, 1.0, n)
            else:
                y = gen.integers(0, n_out, n)
            g = forward_backward(model, X, y)[1] / n
            d = gen.normal(0.0, 1.0, model.n_params)
            d /= np.linalg.norm(d)
            saved = model.params.copy()
            model.params = saved + h * d
            lp = float(np.mean(forward_backward(model, X, y)[0]))
            model.params = saved - h * d
            lm = float(np.mean(forward_backward(model, X, y)[0]))
            model.params = saved
            fd = (lp - lm) / (2.0 * h)
            an = float(g @ d)
            rel = abs(an - fd) / max(abs(an), abs(fd), 1e-8)
            worst = max(worst, rel)
        if worst > 1e-4:
            return False, f"{kind}: worst relative gradient error {worst:.3e}"
    return True, "all three model kinds within 1e-4 of centered differences"


def suite_csv_round_trip(rng: SeededRng):
    """save_csv -> load_csv reproduces ids, values bit for bit, and labels
    (dtype included, NaN equal to NaN) as whole arrays."""
    import tempfile
    from pathlib import Path

    datasets = {
        "regression": gen_sine_regression(16, 12, 0.05, rng.derive("csv-sine")),
        "classification": gen_drift_classification(16, 12, 0.5, 0.25, rng.derive("csv-drift")),
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "round.csv"
        for name, ds in datasets.items():
            save_csv(path, ds)
            back = load_csv(path)
            if back.rejected:
                return False, f"{name} round trip rejected rows: {back.rejected}"
            got = back.dataset
            if not (np.array_equal(ds.ids, got.ids)
                    and ds.values.shape == got.values.shape
                    and ds.values.tobytes() == got.values.tobytes()
                    and ds.labels.dtype == got.labels.dtype
                    and np.array_equal(ds.labels, got.labels, equal_nan=True)):
                return False, f"{name} dataset not identical after round trip"
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


def run_suites(seed: int, names=None) -> dict:
    """Run the invariant suites; returns {name: {passed, detail}}."""
    rng = SeededRng(seed)
    picked = SUITES if names is None else {n: SUITES[n] for n in names}
    report = {}
    for name, fn in picked.items():
        passed, detail = fn(rng.derive(f"suite/{name}"))
        report[name] = {"passed": bool(passed), "detail": detail}
    return report
