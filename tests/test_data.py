"""Synthetic generators, CSV interchange contract, prefix datasets."""

import csv
import math

import numpy as np
import pytest

from crucial.data import (
    Dataset,
    TimeSeriesSample,
    gen_drift_classification,
    gen_sine_regression,
    load_csv,
    make_prefixes,
    save_csv,
)
from crucial.numerics import SeededRng


def csv_save(path, dataset):
    """The byte reference for save_csv: the same rows through csv.writer."""
    first = dataset.samples[0]
    T, d = first.length, first.n_dims
    if d == 1:
        value_cols = [f"v{t}" for t in range(1, T + 1)]
    else:
        value_cols = [f"v{t}_d{j}" for t in range(1, T + 1) for j in range(1, d + 1)]

    def label_cell(label):
        if label is None:
            return ""
        if isinstance(label, (int, np.integer)) and not isinstance(label, bool):
            return str(int(label))
        return repr(float(label))

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "label"] + value_cols)
        for s in dataset.samples:
            writer.writerow([s.id, label_cell(s.label)]
                            + [repr(float(v)) for v in s.values.reshape(-1)])


class TestSineRegression:
    def test_spectral_peak_matches_requested_frequency(self):
        f = 0.05
        ds = gen_sine_regression(40, 256, 0.0, SeededRng(0), freq_range=(f, f))
        for s in ds.samples:
            spec = np.abs(np.fft.rfft(s.values))
            spec[0] = 0.0
            peak = np.argmax(spec) / 256.0
            assert abs(peak - f) < 1.0 / 256.0

    def test_noiseless_target_is_the_extrapolated_sinusoid(self):
        # least-squares fit of sin/cos at the known frequency, pushed one
        # step past the observed window, must reproduce the label exactly
        f = 0.037
        ds = gen_sine_regression(30, 64, 0.0, SeededRng(1), freq_range=(f, f))
        t = np.arange(64, dtype=np.float64)
        design = np.column_stack([np.sin(2 * math.pi * f * t), np.cos(2 * math.pi * f * t)])
        row_next = np.array([math.sin(2 * math.pi * f * 64), math.cos(2 * math.pi * f * 64)])
        for s in ds.samples:
            coef, *_ = np.linalg.lstsq(design, s.values, rcond=None)
            assert float(row_next @ coef) == pytest.approx(s.label, abs=1e-9)

    def test_noise_level_scales_residual(self):
        f = 0.05
        quiet = gen_sine_regression(50, 128, 0.01, SeededRng(2), freq_range=(f, f))
        loud = gen_sine_regression(50, 128, 0.5, SeededRng(2), freq_range=(f, f))
        t = np.arange(128, dtype=np.float64)
        design = np.column_stack([np.sin(2 * math.pi * f * t), np.cos(2 * math.pi * f * t)])

        def resid(ds):
            r = 0.0
            for s in ds.samples:
                coef, *_ = np.linalg.lstsq(design, s.values, rcond=None)
                r += float(np.mean((s.values - design @ coef) ** 2))
            return r / len(ds)

        assert resid(loud) > 100.0 * resid(quiet)

    def test_deterministic_per_seed(self):
        a = gen_sine_regression(10, 32, 0.1, SeededRng(5))
        b = gen_sine_regression(10, 32, 0.1, SeededRng(5))
        c = gen_sine_regression(10, 32, 0.1, SeededRng(6))
        for x, y in zip(a.samples, b.samples):
            assert np.array_equal(x.values, y.values) and x.label == y.label
        assert not np.array_equal(a.samples[0].values, c.samples[0].values)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_sine_regression(0, 32, 0.1, SeededRng(0))
        with pytest.raises(ValueError):
            gen_sine_regression(10, 1, 0.1, SeededRng(0))
        with pytest.raises(ValueError):
            gen_sine_regression(10, 32, -0.1, SeededRng(0))


class TestDriftClassification:
    def test_window_threshold_separates_classes(self):
        ds = gen_drift_classification(2000, 64, 1.0, 0.0, SeededRng(0))
        stat = np.array([float(np.mean(s.values[-16:])) for s in ds.samples])
        y = np.array([s.label for s in ds.samples])
        best = 0.0
        for thr in np.quantile(stat, np.linspace(0.05, 0.95, 181)):
            best = max(best, float(np.mean((stat > thr) == y)),
                       float(np.mean((stat <= thr) == y)))
        assert best >= 0.9

    def test_drift_moves_both_classes_together(self):
        def level_rise(rate):
            ds = gen_drift_classification(2000, 64, rate, 0.0, SeededRng(3))
            vals = np.stack([s.values for s in ds.samples])
            y = np.array([s.label for s in ds.samples])
            rises = []
            for c in (0, 1):
                per_t = vals[y == c].mean(axis=0)
                rises.append(float(per_t[-8:].mean() - per_t[:8].mean()))
            return rises

        still = level_rise(0.0)
        moving = level_rise(1.0)
        assert all(abs(r) < 0.1 for r in still)
        assert all(r > 0.7 for r in moving)

    def test_flip_bookkeeping_against_clean_twin(self):
        noisy = gen_drift_classification(200, 32, 0.5, 0.25, SeededRng(9))
        clean = gen_drift_classification(200, 32, 0.5, 0.0, SeededRng(9))
        assert len(noisy.flipped_ids) == 50
        assert clean.flipped_ids == ()
        flipped = set(noisy.flipped_ids)
        for a, b in zip(noisy.samples, clean.samples):
            assert np.array_equal(a.values, b.values)
            if a.id in flipped:
                assert a.label == 1 - b.label
            else:
                assert a.label == b.label

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_drift_classification(0, 32, 1.0, 0.0, SeededRng(0))
        with pytest.raises(ValueError):
            gen_drift_classification(10, 1, 1.0, 0.0, SeededRng(0))
        with pytest.raises(ValueError):
            gen_drift_classification(10, 32, -1.0, 0.0, SeededRng(0))
        with pytest.raises(ValueError):
            gen_drift_classification(10, 32, 1.0, 0.5, SeededRng(0))


class TestCsvContract:
    def test_round_trip_is_bit_exact(self, tmp_path):
        ds = gen_sine_regression(20, 16, 0.3, SeededRng(12))
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        save_csv(p1, ds)
        loaded = load_csv(p1)
        assert loaded.rejected == []
        assert len(loaded.dataset) == 20
        for orig, back in zip(ds.samples, loaded.dataset.samples):
            assert orig.id == back.id
            assert np.array_equal(orig.values, back.values)  # every bit
            assert orig.label == back.label
        save_csv(p2, loaded.dataset)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_and_label_column(self, tmp_path):
        ds = gen_drift_classification(5, 4, 0.0, 0.0, SeededRng(1))
        p = tmp_path / "c.csv"
        save_csv(p, ds)
        lines = p.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "id,label,v1,v2,v3,v4"
        assert lines[1].split(",")[1] in ("0", "1")  # class labels stay integers

    def test_unlabeled_rows_use_empty_string(self, tmp_path):
        ds = Dataset(samples=[
            TimeSeriesSample(id=0, values=np.array([1.0, 2.0]), label=None),
            TimeSeriesSample(id=1, values=np.array([3.0, 4.0]), label=0.25),
        ])
        p = tmp_path / "u.csv"
        save_csv(p, ds)
        lines = p.read_text(encoding="utf-8").strip().split("\n")
        assert lines[1].startswith("0,,")
        back = load_csv(p)
        assert back.dataset.samples[0].label is None
        assert back.dataset.samples[1].label == 0.25

    def test_multivariate_headers_and_round_trip(self, tmp_path):
        gen = SeededRng(8).generator
        ds = Dataset(samples=[
            TimeSeriesSample(id=i, values=gen.standard_normal((5, 3)), label=i % 2)
            for i in range(4)
        ])
        p = tmp_path / "m.csv"
        save_csv(p, ds)
        header = p.read_text(encoding="utf-8").split("\n")[0]
        assert header.startswith("id,label,v1_d1,v1_d2,v1_d3,v2_d1")
        back = load_csv(p, schema=(5, 3))
        assert back.rejected == []
        for orig, got in zip(ds.samples, back.dataset.samples):
            assert got.values.shape == (5, 3)
            assert np.array_equal(orig.values, got.values)

    def test_malformed_header_hard_fails(self, tmp_path):
        cases = [
            "sample,label,v1,v2\n0,1,0.0,0.0\n",
            "id,label,v2,v1\n0,1,0.0,0.0\n",
            "id,label,v1,v2_d1\n0,1,0.0,0.0\n",
            "id,label,x1,x2\n0,1,0.0,0.0\n",
            "id,label,v1\n0,1,0.0\n",
            "",
        ]
        for i, text in enumerate(cases):
            p = tmp_path / f"h{i}.csv"
            p.write_text(text, encoding="utf-8")
            with pytest.raises(ValueError):
                load_csv(p)

    def test_schema_mismatch_hard_fails(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("id,label,v1,v2\n0,1,0.0,0.0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_csv(p, schema=(3, 1))
        assert len(load_csv(p, schema=(2, 1)).dataset) == 1

    def test_bad_rows_rejected_with_line_numbers(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text(
            "id,label,v1,v2\n"
            "0,1,0.5,0.6\n"          # line 2: fine
            "1,0,0.5\n"              # line 3: arity
            "x,0,0.5,0.6\n"          # line 4: bad id
            "3,maybe,0.5,0.6\n"      # line 5: bad label
            "4,1,0.5,zzz\n"          # line 6: non-numeric value
            "5,1,0.5,inf\n"          # line 7: non-finite value
            "6,,0.5,0.6\n",          # line 8: fine, unlabeled
            encoding="utf-8",
        )
        res = load_csv(p)
        assert len(res.dataset) == 2
        assert [r.line for r in res.rejected] == [3, 4, 5, 6, 7]
        assert len(res.dataset) + len(res.rejected) == 7
        for issue in res.rejected:
            assert f"row {issue.line}" in issue.message

    @pytest.mark.parametrize("make", [
        lambda: gen_drift_classification(12, 40, 1.0, 0.2, SeededRng(5)),
        lambda: gen_sine_regression(12, 40, 0.3, SeededRng(6)),
        lambda: Dataset(samples=[  # (T, d) values, float labels
            TimeSeriesSample(id=i, values=SeededRng(i).generator.standard_normal((6, 3)),
                             label=0.5 * i - 1.0)
            for i in range(5)]),
        lambda: Dataset(samples=[  # (T, d) values, no labels
            TimeSeriesSample(id=i, values=SeededRng(i).generator.standard_normal((6, 2)))
            for i in range(5)]),
        lambda: Dataset(samples=[  # float32, integer and extreme values
            TimeSeriesSample(id=0, values=np.array([0.1, 1e16, 1e-5], dtype=np.float32), label=1),
            TimeSeriesSample(id=1, values=np.array([5e-324, -0.0, 1e-5])),
            TimeSeriesSample(id=2, values=np.array([3, -4, 0]), label=np.int64(0)),
        ]),
    ], ids=["drift", "sine", "multivariate", "unlabeled", "dtypes"])
    def test_bytes_match_the_csv_writer_reference(self, tmp_path, make):
        ds = make()
        save_csv(tmp_path / "new.csv", ds)
        csv_save(tmp_path / "ref.csv", ds)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_save_validation(self, tmp_path):
        with pytest.raises(ValueError):
            save_csv(tmp_path / "e.csv", Dataset(samples=[]))
        ragged = Dataset(samples=[
            TimeSeriesSample(id=0, values=np.zeros(3)),
            TimeSeriesSample(id=1, values=np.zeros(4)),
        ])
        with pytest.raises(ValueError):
            save_csv(tmp_path / "g.csv", ragged)


class TestPrefixes:
    def test_views_match_slices_and_share_memory(self):
        ds = gen_sine_regression(8, 32, 0.1, SeededRng(4))
        prefixes = make_prefixes(ds, [4, 16, 32])
        assert [p.t for p in prefixes] == [4, 16, 32]
        for p in prefixes:
            assert p.source is ds
            for view, orig in zip(p.samples, ds.samples):
                assert np.array_equal(view.values, orig.values[:p.t])
                assert np.shares_memory(view.values, orig.values)
                assert view.label == orig.label

    def test_prefixes_nest(self):
        ds = gen_sine_regression(5, 20, 0.0, SeededRng(4))
        small, large = make_prefixes(ds, [5, 15])
        for a, b in zip(small.samples, large.samples):
            assert np.array_equal(a.values, b.values[:5])

    def test_cut_validation(self):
        ds = gen_sine_regression(5, 20, 0.0, SeededRng(4))
        with pytest.raises(ValueError):
            make_prefixes(ds, [])
        with pytest.raises(ValueError):
            make_prefixes(ds, [5, 5])
        with pytest.raises(ValueError):
            make_prefixes(ds, [0, 5])
        with pytest.raises(ValueError):
            make_prefixes(ds, [5, 21])
