"""Executable invariant suites and the closed-form-vs-oracle dual route."""

import pytest

from crucial import loss, properties
from crucial.data import CsvLoadResult, Dataset
from crucial.properties import SUITES, golden_section_min, run_suites

ALL_NAMES = sorted(SUITES)


class TestGoldenSection:
    def test_finds_interior_minimum(self):
        got = golden_section_min(lambda x: (x - 1.3) ** 2, 0.0, 2.0)
        assert got == pytest.approx(1.3, abs=1e-9)

    def test_converges_to_boundary_minimum(self):
        got = golden_section_min(lambda x: x * x, 1.0, 2.0)
        assert got == pytest.approx(1.0, abs=1e-9)


class TestRunSuites:
    def test_every_suite_passes_under_argmin(self):
        report = run_suites(0)
        assert sorted(report) == ALL_NAMES
        failed = [n for n, r in report.items() if not r["passed"]]
        assert failed == []
        for r in report.values():
            assert isinstance(r["passed"], bool)
            assert isinstance(r["detail"], str) and r["detail"]

    def test_passes_on_a_second_seed(self):
        report = run_suites(1234)
        assert all(r["passed"] for r in report.values())

    def test_compat_formula_fails_exactly_the_argmin_oracle(self, halved_exponent_suites):
        # the halved-exponent rendering is not the shell's minimizer, so the
        # oracle suite must flag it while the structural invariants survive
        report = run_suites(0)
        assert report["kappa_argmin_oracle"]["passed"] is False
        assert report["property1_translation"]["passed"] is True
        assert report["property2_homogeneity"]["passed"] is True
        assert report["property3_unit_confidence"]["passed"] is True
        assert report["property4_differentiated_scaling"]["passed"] is True
        assert report["kappa_bounds"]["passed"] is True
        failed = [n for n, r in report.items() if not r["passed"]]
        assert failed == ["kappa_argmin_oracle"]

    def test_subset_selection(self):
        report = run_suites(0, names=["lambert_w_residual", "kappa_bounds"])
        assert sorted(report) == ["kappa_bounds", "lambert_w_residual"]

    def test_unknown_suite_name_raises(self):
        with pytest.raises(KeyError):
            run_suites(0, names=["lambert_w_residual", "nonexistent"])

    def test_deterministic_per_seed(self):
        a = run_suites(7, names=["kappa_argmin_oracle", "property4_differentiated_scaling"])
        b = run_suites(7, names=["kappa_argmin_oracle", "property4_differentiated_scaling"])
        assert a == b


class TestSuitesRunTheTrainingKernel:
    def test_a_kernel_off_by_1e_5_fails_the_oracle(self, monkeypatch):
        # The suites must check the array kernel that modulate_epoch runs,
        # not a scalar twin: scaling its kappa has to show.
        real = loss.kappa_and_value

        def off(losses, threshold, lam):
            kappa, value = real(losses, threshold, lam)
            return kappa * (1.0 - 1e-5), value

        for module in (loss, properties):
            monkeypatch.setattr(module, "kappa_and_value", off)
        report = run_suites(0)
        assert report["kappa_argmin_oracle"]["passed"] is False


class TestCsvRoundTripSuite:
    def test_a_load_that_drops_the_last_row_fails(self, monkeypatch):
        real_load = properties.load_csv

        def drop_last_row(path):
            res = real_load(path)
            ds = res.dataset
            return CsvLoadResult(Dataset(ids=ds.ids[:-1], values=ds.values[:-1],
                                         labels=ds.labels[:-1]), res.rejected)

        monkeypatch.setattr(properties, "load_csv", drop_last_row)
        report = run_suites(0, names=["csv_round_trip"])
        assert report["csv_round_trip"]["passed"] is False
