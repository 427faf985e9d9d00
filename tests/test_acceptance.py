"""Acceptance gate: ten numbered criteria, each printing one verdict line.

Every test computes its measurements first, prints a single
``ACCEPTANCE NN PASS/FAIL`` line with the observed numbers and the pinned
tolerance, then asserts.  Run with ``-s`` (or read captured output) to see
the lines; the pytest pass/fail status mirrors them.
"""

import json
import math
import time
from statistics import median

import numpy as np
import pytest

from crucial.cli import main as cli_main
from crucial.data import gen_drift_classification, gen_sine_regression, make_prefixes
from crucial.loss import (
    KAPPA_CAP,
    CrucialConfig,
    Variant,
    kappa_and_value,
    kappa_star,
    modulated_value,
)
from crucial.numerics import SeededRng, derive_seed, lambert_w0, lambert_w0_array
from crucial.properties import golden_section_min, run_suites
from crucial.sampler import (
    LossPopulation,
    Ordering,
    PopulationKind,
    compare_conditions,
    distribution_cycle_sim,
)
from crucial.trainer import (
    TaskSpec,
    evaluate,
    forward_backward,
    fwt,
    bwt,
    make_model,
    run_continuous,
    train_model,
)


def verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def local_maxima(counts):
    peaks = 0
    i = 1
    n = len(counts)
    while i < n - 1:
        if counts[i] > counts[i - 1]:
            j = i
            while j + 1 < n and counts[j + 1] == counts[j]:
                j += 1
            if j < n - 1 and counts[j + 1] < counts[j]:
                peaks += 1
            i = j + 1
        else:
            i += 1
    return peaks


def tree_bytes(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_criterion_01_lambert_w_residual():
    grid = np.linspace(-1.0 / math.e, 10.0, 10_000)
    t0 = time.perf_counter()
    w = np.array([lambert_w0(float(x)) for x in grid])
    elapsed = time.perf_counter() - t0
    worst = float(np.max(np.abs(w * np.exp(w) - grid)))
    w_array = lambert_w0_array(grid)
    worst_array = float(np.max(np.abs(w_array * np.exp(w_array) - grid)))
    ok = worst <= 1e-12 and worst_array <= 1e-12 and elapsed < 1.0
    assert verdict(1, ok, f"max|w*e^w - x| = {worst:.3e} scalar, {worst_array:.3e} array "
                          f"(tol 1e-12), runtime {elapsed * 1e3:.1f} ms (limit 1000 ms)")


def test_criterion_02_kappa_argmin_oracle():
    gen = SeededRng(2024).generator
    triples, oracles = [], []
    worst = 0.0
    for _ in range(1000):
        l = float(gen.uniform(0.0, 2.0))
        eps = float(gen.uniform(0.0, 2.0))
        lam = float(gen.uniform(1e-3, 1.0))
        got = kappa_star(l, eps, lam)
        oracle = golden_section_min(
            lambda k: modulated_value(l, eps, lam, k), 1e-9, math.e)
        worst = max(worst, abs(got - oracle))
        triples.append((l, eps, lam))
        oracles.append(oracle)
    l, eps, lam = np.array(triples).T
    worst_array = float(np.max(np.abs(kappa_and_value(l, eps, lam)[0] - oracles)))
    lam = 0.01
    edge_losses = np.array([0.8, 1.0 - 2.0 * lam / math.e, 0.2])
    edge_kappa = kappa_and_value(edge_losses, np.array([0.8, 1.0, 1.0]), lam)[0]
    exact_unit = kappa_star(0.8, 0.8, lam) == 1.0 and edge_kappa[0] == 1.0
    capped = (kappa_star(1.0 - 2.0 * lam / math.e, 1.0, lam) == KAPPA_CAP
              and edge_kappa[1] == KAPPA_CAP)
    capped_below = kappa_star(0.2, 1.0, lam) == KAPPA_CAP and edge_kappa[2] == KAPPA_CAP
    ok = worst <= 1e-6 and worst_array <= 1e-6 and exact_unit and capped and capped_below
    assert verdict(2, ok, f"max |kappa - oracle| = {worst:.3e} scalar, {worst_array:.3e} "
                          f"array over 1000 triples (tol 1e-6); unit-at-threshold exact: "
                          f"{exact_unit}; cap==e at and below the boundary: "
                          f"{capped and capped_below}")


def test_criterion_03_invariant_suites():
    names = [
        "property1_translation",
        "property2_homogeneity",
        "property3_unit_confidence",
        "property4_differentiated_scaling",
        "sin_period_identity",
    ]
    report = run_suites(0, names=names)
    failed = [n for n, r in report.items() if not r["passed"]]
    ok = not failed
    assert verdict(3, ok, "properties 1-4 plus period-4 bit-identity all passed"
                   if ok else f"failed suites: {failed}")


def test_criterion_04_normal_grid_three_sigma():
    t0 = time.perf_counter()
    master = SeededRng(0)
    worst_z = 0.0
    all_passed = True
    for sigma in (0.1, 0.5, 1.0, 2.0):
        for rate in (0.5, 1.0, 2.0):
            pop = LossPopulation(PopulationKind.NORMAL, mu=0.0, sigma=sigma)
            point = master.derive(f"grid/normal/{sigma!r}/{rate!r}")
            rep = compare_conditions(pop, rate, 1_000_000, point, workers=4)
            z_u = abs(rep.mc_eu - rep.analytic_eu) / rep.mc_eu_stderr
            z_p = abs(rep.mc_ep - rep.analytic_ep) / rep.mc_ep_stderr
            worst_z = max(worst_z, z_u, z_p)
            all_passed = all_passed and rep.checks(3.0)["passed"]
    elapsed = time.perf_counter() - t0
    ok = all_passed and elapsed < 30.0
    assert verdict(4, ok, f"worst |z| = {worst_z:.2f} over 12 grid points at n=1e6 "
                          f"(limit 3 SE); every point within 3 SE with the uniform "
                          f"condition lower: {all_passed}; runtime {elapsed:.1f} s (limit 30 s)")


def test_criterion_05_half_normal_adjudication():
    pop = LossPopulation(PopulationKind.HALF_NORMAL, mu=0.0, sigma=0.5)
    rate = 1.0
    assert pop.sigma < math.pi / rate
    rep = compare_conditions(pop, rate, 400_000, SeededRng(0))
    rel_u = rep.mc_eu_stderr / rep.mc_eu
    rel_p = rep.mc_ep_stderr / rep.mc_ep
    analytic_order = rep.analytic_order
    mc_order = Ordering.U_BEATS_P if rep.mc_eu < rep.mc_ep else Ordering.P_BEATS_U
    record = {
        "analytic_ordering": analytic_order.value,
        "mc_ordering": mc_order.value,
        "agree": analytic_order is mc_order,
    }
    ok = rel_u < 0.01 and rel_p < 0.01 and isinstance(record["agree"], bool)
    assert verdict(5, ok, f"stderr/value: e_u {rel_u:.4%}, e_p {rel_p:.4%} (limit 1%); "
                          f"adjudication recorded: analytic={record['analytic_ordering']}, "
                          f"mc={record['mc_ordering']}, agree={record['agree']}")


def test_criterion_06_gradient_checks():
    worst = 0.0
    h = 1e-6
    for kind in ("linear", "mlp", "elman_rnn"):
        rng = SeededRng(606)
        gen = rng.derive(f"fd/{kind}").generator
        for draw in range(100):
            n_out = 1 if draw % 2 == 0 else 2
            model = make_model(kind, 5, n_out, rng.derive(f"model/{kind}/{draw}"),
                               hidden=(4,) if kind == "mlp" else 4)
            X = gen.standard_normal((4, 5))
            if n_out == 1:
                y = gen.standard_normal(4)
            else:
                y = gen.integers(0, n_out, 4).astype(np.int64)
            _, total = forward_backward(model, X, y)
            d = gen.standard_normal(model.n_params)
            d /= np.linalg.norm(d)
            saved = model.params.copy()
            model.params = saved + h * d
            up = float(np.sum(forward_backward(model, X, y)[0]))
            model.params = saved - h * d
            dn = float(np.sum(forward_backward(model, X, y)[0]))
            model.params = saved
            fd = (up - dn) / (2.0 * h)
            an = float(total @ d)
            worst = max(worst, abs(fd - an) / max(abs(an), 1e-8))
    ok = worst <= 1e-4
    assert verdict(6, ok, f"max relative FD mismatch {worst:.3e} over "
                          f"3 kinds x 100 draws (tol 1e-4)")


def _train_mse(train, test, wrapper, rng):
    model = make_model("linear", 16, 1, rng.derive("model"))
    task = TaskSpec(400, 0.1, wrapper=wrapper)
    train_model(model, train, task)
    return evaluate(model, test)["mse"]


def test_criterion_07_non_inferiority_regression():
    master = 42
    ratios_adp, ratios_sin = [], []
    slowest = 0.0
    for i in range(5):
        rng = SeededRng(derive_seed(master, f"sweep/{i}"))
        train = gen_sine_regression(512, 64, 0.1, rng.derive("data/train"))
        test = gen_sine_regression(256, 64, 0.1, rng.derive("data/test"))
        mses = {}
        for name, wrapper in (
            ("plain", None),
            ("adp", CrucialConfig(Variant.ADP, lam=0.01)),
            ("sin", CrucialConfig(Variant.SIN, lam=0.01, omega=math.pi / 4.0)),
        ):
            t0 = time.perf_counter()
            mses[name] = _train_mse(train, test, wrapper, rng)
            slowest = max(slowest, time.perf_counter() - t0)
        ratios_adp.append(mses["adp"] / mses["plain"])
        ratios_sin.append(mses["sin"] / mses["plain"])
    med_adp = median(ratios_adp)
    med_sin = median(ratios_sin)
    ok = med_adp <= 1.05 and med_sin <= 1.05 and slowest < 60.0
    assert verdict(7, ok, f"median test-MSE ratio over 5 seeds: adaptive {med_adp:.3f}, "
                          f"cycled {med_sin:.3f} (limit 1.05); slowest single run "
                          f"{slowest:.2f} s (limit 60 s)")


def test_criterion_08_transfer_direction():
    master = 42
    rows = {"plain": {"bwt": [], "fwt": []}, "adp": {"bwt": [], "fwt": []}}
    for i in range(5):
        rng = SeededRng(derive_seed(master, f"sweep/{i}"))
        ds = gen_drift_classification(512, 64, 1.0, 0.3, rng.derive("data/train"),
                                      class_sep=1.2)
        prefixes = make_prefixes(ds, [16, 32, 48, 64])
        for name, wrapper in (
            ("plain", None),
            ("adp", CrucialConfig(Variant.ADP, lam=0.01)),
        ):
            model = make_model("mlp", 16, 2, rng.derive("model"), hidden=(8,))
            task = TaskSpec(120, 0.1, wrapper=wrapper)
            tm = run_continuous(model, prefixes, task, rng.derive("continuous"))
            rows[name]["bwt"].append(bwt(tm))
            rows[name]["fwt"].append(fwt(tm))
    med = {name: {k: median(v) for k, v in d.items()} for name, d in rows.items()}
    d_bwt = med["adp"]["bwt"] - med["plain"]["bwt"]
    d_fwt = med["adp"]["fwt"] - med["plain"]["fwt"]
    ok = d_bwt >= 0.0 and d_fwt >= 0.0
    assert verdict(8, ok, f"median transfer deltas (adaptive - plain) over 5 seeds: "
                          f"BWT {d_bwt:+.4f}, FWT {d_fwt:+.4f} (need both >= 0)")


def test_criterion_09_cyclicality():
    rng = SeededRng(derive_seed(42, "c9"))
    train = gen_sine_regression(512, 64, 0.2, rng.derive("data/train"))
    model = make_model("linear", 16, 1, rng.derive("model"))
    task = TaskSpec(40, 0.15,
                    wrapper=CrucialConfig(Variant.ADP, lam=0.001))
    counts = []
    train_model(model, train, task, on_epoch=lambda epoch, mod: counts.append(
        int(np.count_nonzero(mod.selected & (mod.kappa >= 1.0)))))
    peaks = local_maxima(counts)

    stats = distribution_cycle_sim(4000, 100, SeededRng(0), schedule="alternating")
    sk = np.array([s.skewness for s in stats])
    flips = int(np.sum(np.sign(sk[1:]) != np.sign(sk[:-1])))

    ok = peaks >= 3 and flips >= 10
    assert verdict(9, ok, f"confident-set size: {peaks} local maxima over 40 epochs "
                          f"(need >= 3); skewness sign changes: {flips} over 100 "
                          f"epochs (need >= 10)")


def test_criterion_10_byte_determinism(tmp_path, capsys):
    sim_args = ["--n", "50000", "--seed", "11",
                "--populations", "normal,half_normal",
                "--sigmas", "0.5,2.0", "--rates", "1.0,2.0"]
    sim_dirs = [tmp_path / f"sim{i}" for i in range(3)]
    for out, workers in zip(sim_dirs, ("1", "1", "4")):
        assert cli_main(["simulate", "--output-dir", str(out),
                         "--workers", workers] + sim_args) in (0, 1)
    prop_dirs = [tmp_path / f"prop{i}" for i in range(2)]
    for out in prop_dirs:
        assert cli_main(["properties", "--output-dir", str(out), "--seed", "4"]) == 0
    capsys.readouterr()

    sim_base = tree_bytes(sim_dirs[0])
    rerun_same = sim_base == tree_bytes(sim_dirs[1])
    workers_same = sim_base == tree_bytes(sim_dirs[2])
    props_same = tree_bytes(prop_dirs[0]) == tree_bytes(prop_dirs[1])
    ok = rerun_same and workers_same and props_same
    assert verdict(10, ok, f"simulate rerun identical: {rerun_same}; 1-vs-4 workers "
                           f"identical: {workers_same}; properties rerun identical: "
                           f"{props_same} ({len(sim_base)} files compared)")
