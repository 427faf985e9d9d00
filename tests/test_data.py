"""Synthetic generators, CSV interchange contract, prefix datasets."""

import csv
import math
import tracemalloc

import numpy as np
import pytest

from crucial.data import (
    _DRIFT_AR_COEFF,
    _DRIFT_AR_SD,
    _SINE_AMP_RANGE,
    Dataset,
    RowIssue,
    gen_drift_classification,
    gen_sine_regression,
    load_csv,
    make_prefixes,
    save_csv,
)
from crucial.numerics import SeededRng


def csv_save(path, dataset):
    """The byte reference for save_csv: the same rows through csv.writer."""
    T = dataset.values.shape[1]
    if dataset.values.ndim == 2:
        value_cols = [f"v{t}" for t in range(1, T + 1)]
    else:
        d = dataset.values.shape[2]
        value_cols = [f"v{t}_d{j}" for t in range(1, T + 1) for j in range(1, d + 1)]

    def label_cell(label):
        if dataset.labels.dtype.kind == "i":
            return str(int(label))
        return "" if math.isnan(label) else repr(float(label))

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "label"] + value_cols)
        for sample_id, label, values in zip(dataset.ids, dataset.labels, dataset.values):
            writer.writerow([int(sample_id), label_cell(label)]
                            + [repr(float(v)) for v in values.reshape(-1)])


# Whole-array references for the generators and the loader: each builds its
# full intermediates the direct way, so the in-place builds must reproduce
# them bit for bit.
def sine_reference(n, T, noise_sd, rng, freq_range=(0.02, 0.08)):
    gen = rng.derive("sine-regression").generator
    freqs = gen.uniform(freq_range[0], freq_range[1], n)
    phases = gen.uniform(0.0, 2.0 * math.pi, n)
    amps = gen.uniform(*_SINE_AMP_RANGE, n)
    t = np.arange(T + 1, dtype=np.float64)
    clean = amps[:, None] * np.sin(2.0 * math.pi * freqs[:, None] * t[None, :] + phases[:, None])
    noisy = clean + noise_sd * gen.standard_normal((n, T + 1))
    return np.ascontiguousarray(noisy[:, :T]), noisy[:, T].copy()


def drift_reference(n, T, drift_rate, label_noise, rng, class_sep=1.8):
    gen = rng.derive("drift-classification").generator
    true_labels = gen.integers(0, 2, n)
    sign = 2.0 * true_labels.astype(np.float64) - 1.0
    tt = np.arange(T, dtype=np.float64)
    means = sign[:, None] * (class_sep / 2.0) + drift_rate * (tt[None, :] / (T - 1))
    stat_sd = _DRIFT_AR_SD / math.sqrt(1.0 - _DRIFT_AR_COEFF * _DRIFT_AR_COEFF)
    e = np.empty((n, T), dtype=np.float64)
    e[:, 0] = stat_sd * gen.standard_normal(n)
    shocks = _DRIFT_AR_SD * gen.standard_normal((n, T - 1))
    for t in range(1, T):
        e[:, t] = _DRIFT_AR_COEFF * e[:, t - 1] + shocks[:, t - 1]
    values = means + e
    n_flip = int(round(label_noise * n))
    flip_idx = np.sort(gen.choice(n, size=n_flip, replace=False)) if n_flip else np.array([], dtype=int)
    labels = true_labels.copy()
    labels[flip_idx] ^= 1
    return values, labels, tuple(int(i) for i in flip_idx)


def load_reference(path):
    """(ids, values, labels, rejected) through csv.reader and float per row."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    T = len(rows[0]) - 2

    def int64(text):
        value = int(text)
        if not -2**63 <= value < 2**63:
            raise ValueError(text)
        return value

    def real(text):
        value = float(text)
        if not math.isfinite(value):
            raise ValueError(text)
        return value

    ids, labels, values, rejected = [], [], [], []
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != T + 2:
            rejected.append((line, f"row {line}: expected {T + 2} cells, got {len(row)}"))
            continue
        try:
            sample_id = int64(row[0])
        except ValueError:
            rejected.append((line, f"row {line}: bad id {row[0]!r}"))
            continue
        try:
            label = math.nan if row[1] == "" else int64(row[1])
        except ValueError:
            try:
                label = real(row[1])
            except ValueError:
                rejected.append((line, f"row {line}: bad label {row[1]!r}"))
                continue
        try:
            cells = [float(cell) for cell in row[2:]]
        except ValueError:
            rejected.append((line, f"row {line}: non-numeric value cell"))
            continue
        if not all(math.isfinite(v) for v in cells):
            rejected.append((line, f"row {line}: non-finite value cell"))
            continue
        ids.append(sample_id)
        labels.append(label)
        values.append(cells)
    label_dtype = np.int64 if all(type(x) is int for x in labels) else np.float64
    return (np.array(ids, dtype=np.int64), np.array(values, dtype=np.float64).reshape(-1, T),
            np.array(labels, dtype=label_dtype), rejected)


def traced_peak(build):
    """(result, peak traced bytes while build() ran)."""
    tracemalloc.start()
    try:
        result = build()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDataset:
    def test_arrays_take_their_dtypes(self):
        ds = Dataset(ids=[3, 4], values=np.zeros((2, 5), dtype=np.float32), labels=[1, 0])
        assert ds.ids.dtype == np.int64 and ds.values.dtype == np.float64
        assert ds.labels.dtype == np.int64 and len(ds) == 2
        real = Dataset(ids=[0, 1], values=np.zeros((2, 3, 2)), labels=[0.5, np.nan])
        assert real.labels.dtype == np.float64

    def test_arrays_with_the_dtypes_are_not_copied(self):
        values = np.arange(12.0).reshape(3, 4)
        labels = np.array([0.5, 1.5, 2.5])
        ds = Dataset(ids=np.arange(3), values=values, labels=labels)
        assert ds.values is values and ds.labels is labels

    def test_construction_rejects_bad_shapes(self):
        with pytest.raises(ValueError):  # ragged rows
            Dataset(ids=[0, 1], values=[np.zeros(3), np.zeros(4)], labels=[0, 1])
        with pytest.raises(ValueError):  # ids and values disagree
            Dataset(ids=[0, 1, 2], values=np.zeros((2, 3)), labels=[0, 1])
        with pytest.raises(ValueError):  # labels and ids disagree
            Dataset(ids=[0, 1], values=np.zeros((2, 3)), labels=[0, 1, 1])
        with pytest.raises(ValueError):  # T < 2
            Dataset(ids=[0, 1], values=np.zeros((2, 1)), labels=[0, 1])
        for values in (np.zeros(4), np.zeros((1, 4, 2, 2))):  # ndim outside {2, 3}
            with pytest.raises(ValueError):
                Dataset(ids=[0], values=values, labels=[0])

    def test_samples_are_row_views(self):
        ds = Dataset(ids=[7, 8], values=np.arange(6.0).reshape(2, 3), labels=[np.nan, 0.25])
        rows = ds.samples
        assert [s.id for s in rows] == [7, 8]
        assert [s.label for s in rows] == [None, 0.25]
        assert np.shares_memory(rows[1].values, ds.values)
        assert np.array_equal(rows[1].values, [3.0, 4.0, 5.0])
        classes = gen_drift_classification(4, 8, 0.0, 0.0, SeededRng(0)).samples
        assert all(type(s.label) is int for s in classes)


class TestSineRegression:
    def test_spectral_peak_matches_requested_frequency(self):
        f = 0.05
        ds = gen_sine_regression(40, 256, 0.0, SeededRng(0), freq_range=(f, f))
        for values in ds.values:
            spec = np.abs(np.fft.rfft(values))
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
        for values, label in zip(ds.values, ds.labels):
            coef, *_ = np.linalg.lstsq(design, values, rcond=None)
            assert float(row_next @ coef) == pytest.approx(label, abs=1e-9)

    def test_noise_level_scales_residual(self):
        f = 0.05
        quiet = gen_sine_regression(50, 128, 0.01, SeededRng(2), freq_range=(f, f))
        loud = gen_sine_regression(50, 128, 0.5, SeededRng(2), freq_range=(f, f))
        t = np.arange(128, dtype=np.float64)
        design = np.column_stack([np.sin(2 * math.pi * f * t), np.cos(2 * math.pi * f * t)])

        def resid(ds):
            r = 0.0
            for values in ds.values:
                coef, *_ = np.linalg.lstsq(design, values, rcond=None)
                r += float(np.mean((values - design @ coef) ** 2))
            return r / len(ds)

        assert resid(loud) > 100.0 * resid(quiet)

    def test_deterministic_per_seed(self):
        a = gen_sine_regression(10, 32, 0.1, SeededRng(5))
        b = gen_sine_regression(10, 32, 0.1, SeededRng(5))
        c = gen_sine_regression(10, 32, 0.1, SeededRng(6))
        assert np.array_equal(a.values, b.values) and np.array_equal(a.labels, b.labels)
        assert not np.array_equal(a.values[0], c.values[0])

    @pytest.mark.parametrize("n, T", [(1, 2), (7, 3), (1025, 200), (4096, 64)])
    def test_bytes_match_the_whole_array_reference(self, n, T):
        # 4096 rows of 65 steps span four row blocks, the last one partial
        for noise_sd, freq_range in ((0.0, (0.02, 0.08)), (0.3, (0.1, 0.45))):
            ds = gen_sine_regression(n, T, noise_sd, SeededRng(n + T), freq_range=freq_range)
            values, labels = sine_reference(n, T, noise_sd, SeededRng(n + T), freq_range)
            assert ds.values.tobytes() == values.tobytes()
            assert ds.labels.tobytes() == labels.tobytes()

    def test_working_memory_is_bounded(self):
        ds, peak = traced_peak(lambda: gen_sine_regression(4096, 64, 0.3, SeededRng(2)))
        assert peak <= 2.5 * ds.values.nbytes, peak / ds.values.nbytes

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
        stat = ds.values[:, -16:].mean(axis=1)
        y = ds.labels
        best = 0.0
        for thr in np.quantile(stat, np.linspace(0.05, 0.95, 181)):
            best = max(best, float(np.mean((stat > thr) == y)),
                       float(np.mean((stat <= thr) == y)))
        assert best >= 0.9

    def test_drift_moves_both_classes_together(self):
        def level_rise(rate):
            ds = gen_drift_classification(2000, 64, rate, 0.0, SeededRng(3))
            vals = ds.values
            y = ds.labels
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
        assert np.array_equal(noisy.values, clean.values)
        assert np.array_equal(noisy.ids, clean.ids)
        for sample_id, a, b in zip(noisy.ids, noisy.labels, clean.labels):
            if sample_id in flipped:
                assert a == 1 - b
            else:
                assert a == b

    @pytest.mark.parametrize("n, T", [(n, T) for n in (1, 7, 1025) for T in (2, 3, 64, 200)]
                             + [(4096, 64)])
    def test_bytes_match_the_whole_array_reference(self, n, T):
        # 1025 rows of 199 shocks and 4096 rows of 63 span several row
        # blocks, the last one partial
        for drift_rate, label_noise, class_sep in ((0.0, 0.0, 1.8), (1.3, 0.3, 0.7)):
            ds = gen_drift_classification(n, T, drift_rate, label_noise, SeededRng(n * T),
                                          class_sep=class_sep)
            values, labels, flipped = drift_reference(n, T, drift_rate, label_noise,
                                                      SeededRng(n * T), class_sep)
            assert ds.values.tobytes() == values.tobytes()
            assert ds.labels.tobytes() == labels.tobytes() and ds.flipped_ids == flipped

    def test_block_draws_continue_one_stream(self):
        whole = SeededRng(4).generator.standard_normal((100, 7))
        gen = SeededRng(4).generator
        blocks = [gen.standard_normal((k, 7)) for k in (33, 33, 34)]
        assert np.concatenate(blocks).tobytes() == whole.tobytes()

    def test_working_memory_is_bounded(self):
        ds, peak = traced_peak(lambda: gen_drift_classification(4096, 64, 1.0, 0.3, SeededRng(2)))
        assert peak <= 1.75 * ds.values.nbytes, peak / ds.values.nbytes

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
        back = loaded.dataset
        assert len(back) == 20
        assert np.array_equal(ds.ids, back.ids)
        assert ds.values.tobytes() == back.values.tobytes()  # every bit
        assert np.array_equal(ds.labels, back.labels)
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
        ds = Dataset(ids=[0, 1], values=[[1.0, 2.0], [3.0, 4.0]], labels=[np.nan, 0.25])
        p = tmp_path / "u.csv"
        save_csv(p, ds)
        lines = p.read_text(encoding="utf-8").strip().split("\n")
        assert lines[1].startswith("0,,")
        back = load_csv(p)
        assert np.isnan(back.dataset.labels[0])
        assert back.dataset.samples[0].label is None
        assert back.dataset.labels[1] == 0.25

    def test_label_column_dtype_follows_its_cells(self, tmp_path):
        # all-integer cells load as int64; one real or empty cell makes the
        # column float64, so mixed integer labels re-save as reals
        p = tmp_path / "l.csv"
        p.write_text("id,label,v1,v2\r\n0,1,0.5,0.6\r\n1,0,0.5,0.6\r\n", encoding="utf-8")
        assert load_csv(p).dataset.labels.dtype == np.int64
        p.write_text("id,label,v1,v2\r\n0,1,0.5,0.6\r\n1,,0.5,0.6\r\n", encoding="utf-8")
        labels = load_csv(p).dataset.labels
        assert labels.dtype == np.float64
        assert labels[0] == 1.0 and np.isnan(labels[1])
        save_csv(tmp_path / "again.csv", load_csv(p).dataset)
        assert (tmp_path / "again.csv").read_bytes().split(b"\r\n")[1] == b"0,1.0,0.5,0.6"

    def test_save_refuses_non_finite_values_and_infinite_labels(self, tmp_path):
        values = np.array([[0.5, 0.6], [0.7, 0.8]])
        for bad in (np.nan, np.inf, -np.inf):
            broken = values.copy()
            broken[1, 0] = bad
            p = tmp_path / "v.csv"
            with pytest.raises(ValueError, match="sample 9"):
                save_csv(p, Dataset(ids=[4, 9], values=broken, labels=[0.5, 0.5]))
            assert not p.exists()
        for bad in (np.inf, -np.inf):
            with pytest.raises(ValueError, match="sample 4"):
                save_csv(tmp_path / "l.csv", Dataset(ids=[4, 9], values=values, labels=[bad, 0.5]))
        save_csv(tmp_path / "ok.csv", Dataset(ids=[4, 9], values=values, labels=[np.nan, 0.5]))
        assert len(load_csv(tmp_path / "ok.csv").dataset) == 2

    def test_out_of_range_integers_are_not_int64_labels_or_ids(self, tmp_path):
        p = tmp_path / "big.csv"
        p.write_text("id,label,v1,v2\n0,99999999999999999999,0.5,0.6\n"
                     "99999999999999999999,0,0.5,0.6\n", encoding="utf-8")
        res = load_csv(p)
        assert res.dataset.labels.dtype == np.float64 and res.dataset.labels[0] == 1e20
        assert [r.line for r in res.rejected] == [3]

    def test_multivariate_headers_and_round_trip(self, tmp_path):
        gen = SeededRng(8).generator
        ds = Dataset(ids=np.arange(4), values=gen.standard_normal((4, 5, 3)),
                     labels=np.arange(4) % 2)
        p = tmp_path / "m.csv"
        save_csv(p, ds)
        header = p.read_text(encoding="utf-8").split("\n")[0]
        assert header.startswith("id,label,v1_d1,v1_d2,v1_d3,v2_d1")
        back = load_csv(p)
        assert back.rejected == []
        assert back.dataset.values.shape == (4, 5, 3)
        assert np.array_equal(ds.values, back.dataset.values)

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
        multivariate = {
            "v1_d1,v2": "mixed column styles",
            "v1_d1,v1_d2,v2_d1": "not a multiple of dimension",
            "v1_d1,v2_d1,v1_d2,v2_d2": "must be grouped",
        }
        for i, (columns, message) in enumerate(multivariate.items()):
            p = tmp_path / f"m{i}.csv"
            cells = ",".join(["0.0"] * len(columns.split(",")))
            p.write_text(f"id,label,{columns}\n0,1,{cells}\n", encoding="utf-8")
            with pytest.raises(ValueError, match=message):
                load_csv(p)

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
        assert [r.message for r in res.rejected] == [
            "row 3: expected 4 cells, got 3",
            "row 4: bad id 'x'",
            "row 5: bad label 'maybe'",
            "row 6: non-numeric value cell",
            "row 7: non-finite value cell",
        ]
        assert res.dataset.ids.tolist() == [0, 6]
        assert res.dataset.samples[1].label is None

    def test_lines_count_from_the_file_across_multi_line_cells(self, tmp_path):
        p = tmp_path / "q.csv"
        p.write_bytes(b'id,label,v1,v2\r\n1,0,"1\r\n2",2\r\n2,1,x,4\r\n3,1,3,4\r\n')
        res = load_csv(p)
        assert res.rejected == [RowIssue(2, "row 2: non-numeric value cell"),
                                RowIssue(4, "row 4: non-numeric value cell")]
        assert res.dataset.ids.tolist() == [3]

    @pytest.mark.parametrize("labels", ["integer", "real"])
    def test_load_matches_the_csv_reader_reference(self, tmp_path, labels):
        good = "7,1,0.5,-0.0,5e-324\r\n" if labels == "integer" else "7,,0.5,-0.0,5e-324\r\n"
        p = tmp_path / "mixed.csv"
        p.write_text(
            "id,label,v1,v2,v3\r\n"
            "0,1,0.25,1e308,-3\r\n"
            "1,0,0.5\r\n"                            # arity
            "\r\n"                                   # empty line: arity
            + good +
            "x,0,0.5,0.6,0.7\r\n"                    # bad id
            "99999999999999999999,0,0.5,0.6,0.7\r\n"  # id outside int64
            "3,maybe,0.5,0.6,0.7\r\n"                # bad label
            "4,inf,0.5,0.6,0.7\r\n"                  # infinite label
            "5,1,0.5,zzz,0.7\r\n"                    # non-numeric value
            "6,1,0.5,0.6,nan\r\n"                    # non-finite value
            "8,0,-inf,0.6,0.7\r\n"                   # non-finite value
            "9,0,1.5,2.5,3.5,4.5\r\n"                # arity
            "10,0,0.1,0.2,0.3\r\n",
            encoding="utf-8")
        res = load_csv(p)
        ids, values, label_values, rejected = load_reference(p)
        assert res.dataset.ids.dtype == ids.dtype and res.dataset.ids.tobytes() == ids.tobytes()
        assert res.dataset.values.tobytes() == values.tobytes()
        assert res.dataset.labels.dtype == label_values.dtype
        assert res.dataset.labels.tobytes() == label_values.tobytes()
        assert [(r.line, r.message) for r in res.rejected] == rejected
        assert len(res.dataset) == 3 and len(rejected) == 10

    def test_empty_load_keeps_the_header_shape(self, tmp_path):
        p = tmp_path / "none.csv"
        p.write_text("id,label,v1_d1,v1_d2,v2_d1,v2_d2\r\n0,1,0.5,x,0.5,0.5\r\n",
                     encoding="utf-8")
        assert load_csv(p).dataset.values.shape == (0, 2, 2)

    def test_load_holds_one_copy(self, tmp_path):
        p = tmp_path / "big.csv"
        save_csv(p, gen_drift_classification(4096, 64, 1.0, 0.3, SeededRng(3)))
        res, peak = traced_peak(lambda: load_csv(p))
        assert res.rejected == [] and len(res.dataset) == 4096
        assert peak <= 1.5 * res.dataset.values.nbytes, peak / res.dataset.values.nbytes

    @pytest.mark.parametrize("make", [
        lambda: gen_drift_classification(12, 40, 1.0, 0.2, SeededRng(5)),
        lambda: gen_sine_regression(12, 40, 0.3, SeededRng(6)),
        lambda: Dataset(  # (T, d) values, float labels
            ids=np.arange(5),
            values=np.stack([SeededRng(i).generator.standard_normal((6, 3)) for i in range(5)]),
            labels=0.5 * np.arange(5) - 1.0),
        lambda: Dataset(  # (T, d) values, no labels
            ids=np.arange(5),
            values=np.stack([SeededRng(i).generator.standard_normal((6, 2)) for i in range(5)]),
            labels=np.full(5, np.nan)),
        lambda: Dataset(  # float32 and integer values, integer labels
            ids=[0, 2],
            values=np.stack([np.array([0.1, 1e16, 1e-5], dtype=np.float32), np.array([3, -4, 0])]),
            labels=[1, np.int64(0)]),
        lambda: Dataset(  # extreme values, no label
            ids=[1], values=[[5e-324, -0.0, 1e-5]], labels=[np.nan]),
    ], ids=["drift", "sine", "multivariate", "unlabeled", "dtypes", "dtypes-unlabeled"])
    def test_bytes_match_the_csv_writer_reference(self, tmp_path, make):
        ds = make()
        save_csv(tmp_path / "new.csv", ds)
        csv_save(tmp_path / "ref.csv", ds)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        save_csv(tmp_path / "again.csv", load_csv(tmp_path / "new.csv").dataset)
        assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "new.csv").read_bytes()

    def test_save_validation(self, tmp_path):
        with pytest.raises(ValueError):
            save_csv(tmp_path / "e.csv", Dataset(ids=[], values=np.empty((0, 3)), labels=[]))
        with pytest.raises(ValueError):  # a ragged dataset cannot be built, so never saved
            Dataset(ids=[0, 1], values=[np.zeros(3), np.zeros(4)], labels=[np.nan, np.nan])


class TestPrefixes:
    def test_views_match_slices_and_share_memory(self):
        ds = gen_sine_regression(8, 32, 0.1, SeededRng(4))
        prefixes = make_prefixes(ds, [4, 16, 32])
        assert [p.values.shape[1] for p in prefixes] == [4, 16, 32]
        for p in prefixes:
            t = p.values.shape[1]
            assert np.shares_memory(p.values, ds.values)
            assert np.array_equal(p.ids, ds.ids)
            assert np.array_equal(p.values, ds.values[:, :t])
            assert np.array_equal(p.labels, ds.labels)

    def test_prefixes_nest(self):
        ds = gen_sine_regression(5, 20, 0.0, SeededRng(4))
        small, large = make_prefixes(ds, [5, 15])
        assert np.array_equal(small.values, large.values[:, :5])

    def test_cut_validation(self):
        ds = gen_sine_regression(5, 20, 0.0, SeededRng(4))
        with pytest.raises(ValueError):
            make_prefixes(ds, [])
        with pytest.raises(ValueError):
            make_prefixes(ds, [5, 5])
        with pytest.raises(ValueError):
            make_prefixes(ds, [0, 5])
        with pytest.raises(ValueError):  # a prefix is a dataset, so T >= 2
            make_prefixes(ds, [1, 5])
        with pytest.raises(ValueError):
            make_prefixes(ds, [5, 21])
