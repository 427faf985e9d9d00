"""Datasets as arrays, seeded synthetic generators, CSV interchange, prefixes.

A Dataset holds ids (n,), values (n, T) or (n, T, d) and labels (n,); a
prefix is the view ``values[:, :t]``.  Generators are deterministic given a
SeededRng and platform-stable.  The CSV contract is bit-exact: header
``id,label,v1,...,vT`` (multivariate series use column-grouped ``v{t}_d{j}``
headers), UTF-8, ``.`` decimal, label column empty for unlabeled rows.
Floats are written with repr so a write-then-load round-trip reproduces
every bit.

Every path that builds a dataset holds one copy of it: the generators fill
their output in place, drawing their noise one row block of about
_BLOCK_VALUES values at a time, and load_csv parses each row straight into
one growing float block.
"""

from __future__ import annotations

import csv
import math
import re
from array import array
from dataclasses import dataclass, field

import numpy as np

from .numerics import SeededRng

__all__ = [
    "CsvLoadResult",
    "Dataset",
    "RowIssue",
    "TimeSeriesSample",
    "gen_drift_classification",
    "gen_sine_regression",
    "load_csv",
    "make_prefixes",
    "save_csv",
]

# Amplitudes of gen_sine_regression are uniform in this range.
_SINE_AMP_RANGE = (0.8, 1.2)
# gen_drift_classification's AR(1) noise: coefficient and shock sd.
_DRIFT_AR_COEFF = 0.8
_DRIFT_AR_SD = 0.4
# Values per row block of the generators' noise draws: their only scratch
# at the dataset's size.  Drawing block by block yields the same stream as
# one draw of the whole array.
_BLOCK_VALUES = 1 << 16


@dataclass(frozen=True, eq=False)
class TimeSeriesSample:
    """One row of a Dataset: values shaped (T,) or (T, d), and its label.

    The label is a class integer for classification sets, a real target for
    regression sets, None when unlabeled.  values is a view into the
    dataset's block.
    """

    id: int
    values: np.ndarray
    label: int | float | None = None


@dataclass(frozen=True, eq=False)
class Dataset:
    """n series of one shape as arrays, plus generator bookkeeping.

    ids is (n,) int64.  values is (n, T) for univariate or (n, T, d) for
    multivariate series, float64, with T >= 2.  labels is (n,): int64 when
    every label is an integer, else float64 with NaN marking an unlabeled
    row.  Construction converts to these dtypes, copying only arrays that
    lack them; treat the arrays as read-only, since prefixes share them.
    flipped_ids records which sample ids had their label flipped by the
    label-noise step of the drift generator (empty otherwise).
    """

    ids: np.ndarray
    values: np.ndarray
    labels: np.ndarray
    flipped_ids: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        ids = np.asarray(self.ids, dtype=np.int64)
        values = np.asarray(self.values, dtype=np.float64)
        labels = np.asarray(self.labels)
        labels = labels.astype(np.int64 if labels.dtype.kind in "iu" else np.float64, copy=False)
        if values.ndim not in (2, 3):
            raise ValueError("Dataset: values must be shaped (n, T) or (n, T, d)")
        if values.shape[1] < 2:
            raise ValueError("Dataset: series length must be >= 2")
        if ids.shape != values.shape[:1] or labels.shape != ids.shape:
            raise ValueError("Dataset: ids, values and labels must have one row per sample")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    @property
    def samples(self) -> list[TimeSeriesSample]:
        """The rows as TimeSeriesSample views, built on each read."""
        labels = [None if math.isnan(label) else label for label in self.labels.tolist()]
        return [TimeSeriesSample(id=i, values=v, label=label)
                for i, v, label in zip(self.ids.tolist(), self.values, labels)]


def _check_finite(dataset: Dataset, where: str) -> Dataset:
    """Return dataset, or raise ValueError naming the first sample with a
    non-finite value or an infinite label (NaN means unlabeled: allowed)."""
    bad_values = ~np.isfinite(dataset.values.reshape(len(dataset), -1)).all(axis=1)
    for bad, what in ((bad_values, "values"), (np.isinf(dataset.labels), "label")):
        if bad.any():
            raise ValueError(f"{where}: sample {dataset.ids[np.argmax(bad)]}: non-finite {what}")
    return dataset


def gen_sine_regression(n: int, T: int, noise_sd: float, rng: SeededRng, *,
                        freq_range: tuple[float, float] = (0.02, 0.08)) -> Dataset:
    """Sinusoids with random amplitude/frequency/phase plus Gaussian noise.

    Each sample is x_t = A sin(2 pi f t + phi) + noise for t = 0..T-1; the
    regression target is the next value of the same noisy process at t = T,
    so with noise_sd = 0 the target is exactly the extrapolated sinusoid.
    Amplitudes are uniform in _SINE_AMP_RANGE.  Frequencies are uniform in
    freq_range (cycles per step), whose ends and width must be finite; pass
    a degenerate range to pin the spectral peak for analysis.

    Working memory: the returned values and labels plus two row blocks of
    _BLOCK_VALUES values (the block's series and its noise).
    """
    if n < 1 or T < 2:
        raise ValueError("gen_sine_regression: need n >= 1 and T >= 2")
    if noise_sd < 0.0:
        raise ValueError("gen_sine_regression: noise_sd must be >= 0")
    if not math.isfinite(freq_range[1] - freq_range[0]):
        raise ValueError("gen_sine_regression: freq_range must be finite, with a finite width")
    gen = rng.derive("sine-regression").generator
    freqs = gen.uniform(freq_range[0], freq_range[1], n)
    phases = gen.uniform(0.0, 2.0 * math.pi, n)
    amps = gen.uniform(*_SINE_AMP_RANGE, n)
    t = np.arange(T + 1, dtype=np.float64)
    values = np.empty((n, T), dtype=np.float64)
    labels = np.empty(n, dtype=np.float64)
    rows = max(1, _BLOCK_VALUES // (T + 1))
    with np.errstate(over="ignore", invalid="ignore"):  # _check_finite rejects the result
        omegas = 2.0 * math.pi * freqs
        for lo in range(0, n, rows):
            block = slice(lo, lo + rows)
            series = np.multiply(omegas[block, None], t)  # steps 0..T, the last is the label
            series += phases[block, None]
            np.sin(series, out=series)
            series *= amps[block, None]
            noise = gen.standard_normal(series.shape)
            noise *= noise_sd
            series += noise
            values[block] = series[:, :T]
            labels[block] = series[:, T]
    return _check_finite(Dataset(ids=np.arange(n), values=values, labels=labels),
                         "gen_sine_regression")


def gen_drift_classification(n: int, T: int, drift_rate: float, label_noise: float,
                             rng: SeededRng, *, class_sep: float = 1.8) -> Dataset:
    """Two AR(1)-like classes whose separating level drifts over time.

    Class c in {0, 1} fluctuates around m_c(t) = (2c-1)*class_sep/2
    + drift_rate * t/(T-1), with stationary AR(1) noise of coefficient
    _DRIFT_AR_COEFF and shock sd _DRIFT_AR_SD.  The class-conditional
    window statistic moves over t (both classes together), so a threshold
    fit on an early prefix goes stale on later ones, which is the
    forgetting pressure the continuous task needs.  Separability itself
    stays constant, and a brute-force threshold sweep on the final window
    of clean data reaches at least ~0.95 accuracy with the default
    class_sep.

    A label_noise fraction of labels (rounded) is flipped; the flipped
    sample ids are recorded on the returned dataset.

    Working memory: the returned values, one row block of _BLOCK_VALUES
    shocks and a few (n,) columns.
    """
    if n < 1 or T < 2:
        raise ValueError("gen_drift_classification: need n >= 1 and T >= 2")
    if not (math.isfinite(drift_rate) and drift_rate >= 0.0):  # inf * t would be nan at t = 0
        raise ValueError("gen_drift_classification: drift_rate must be finite and >= 0")
    if not 0.0 <= label_noise < 0.5:
        raise ValueError("gen_drift_classification: label_noise must be in [0, 0.5)")
    gen = rng.derive("drift-classification").generator
    labels = gen.integers(0, 2, n)
    sign = 2.0 * labels.astype(np.float64) - 1.0
    # Stationary AR(1) noise: column 0 from the stationary law, then each
    # block's shocks scaled into columns 1..T-1 and the recursion run over
    # whole columns in place.
    stat_sd = _DRIFT_AR_SD / math.sqrt(1.0 - _DRIFT_AR_COEFF * _DRIFT_AR_COEFF)
    values = np.empty((n, T), dtype=np.float64)
    values[:, 0] = stat_sd * gen.standard_normal(n)
    rows = max(1, _BLOCK_VALUES // (T - 1))
    for lo in range(0, n, rows):
        shocks = values[lo:lo + rows, 1:]
        np.multiply(gen.standard_normal(shocks.shape), _DRIFT_AR_SD, out=shocks)
    column = np.empty(n, dtype=np.float64)
    for t in range(1, T):
        values[:, t] += np.multiply(values[:, t - 1], _DRIFT_AR_COEFF, out=column)
    # Then the drifting class level m_c(t), one column at a time.
    level = sign * (class_sep / 2.0)
    drift = drift_rate * (np.arange(T, dtype=np.float64) / (T - 1))
    with np.errstate(over="ignore", invalid="ignore"):  # _check_finite rejects the result
        for t in range(T):
            values[:, t] += np.add(level, drift[t], out=column)

    n_flip = int(round(label_noise * n))
    flip_idx = np.sort(gen.choice(n, size=n_flip, replace=False))
    labels[flip_idx] ^= 1

    return _check_finite(Dataset(ids=np.arange(n), values=values, labels=labels,
                                 flipped_ids=tuple(int(i) for i in flip_idx)),
                         "gen_drift_classification")


_UNIVARIATE_COL = re.compile(r"^v(\d+)$")
_MULTIVARIATE_COL = re.compile(r"^v(\d+)_d(\d+)$")


@dataclass(frozen=True)
class RowIssue:
    """Diagnostic for one rejected CSV row (1-based file line number)."""

    line: int
    message: str


@dataclass(frozen=True, eq=False)
class CsvLoadResult:
    """Validated samples plus the diagnostics of every rejected row."""

    dataset: Dataset
    rejected: list[RowIssue] = field(default_factory=list)


def _parse_header(header: list[str]):
    """Return (T, d) from a header, hard-failing on any mismatch."""
    if len(header) < 3 or header[0] != "id" or header[1] != "label":
        raise ValueError(f"csv header mismatch: expected id,label,v...; got {header[:3]}")
    cols = header[2:]
    if _UNIVARIATE_COL.match(cols[0]):
        expected = [f"v{t}" for t in range(1, len(cols) + 1)]
        if cols != expected:
            raise ValueError("csv header mismatch: univariate columns must be v1..vT in order")
        T, d = len(cols), 1
    elif _MULTIVARIATE_COL.match(cols[0]):
        m = [_MULTIVARIATE_COL.match(c) for c in cols]
        if any(x is None for x in m):
            raise ValueError("csv header mismatch: mixed column styles")
        d = max(int(x.group(2)) for x in m)
        if len(cols) % d != 0:
            raise ValueError("csv header mismatch: column count not a multiple of dimension")
        T = len(cols) // d
        expected = [f"v{t}_d{j}" for t in range(1, T + 1) for j in range(1, d + 1)]
        if cols != expected:
            raise ValueError("csv header mismatch: multivariate columns must be grouped v{t}_d{j}")
    else:
        raise ValueError(f"csv header mismatch: unrecognized value column {cols[0]!r}")
    if T < 2:
        raise ValueError("csv header mismatch: need at least 2 time steps")
    return T, d


def _parse_int64(text: str) -> int:
    v = int(text)  # raises ValueError upward on junk
    if not -2**63 <= v < 2**63:
        raise ValueError("integer outside int64")
    return v


def _parse_label(text: str):
    """An int64 class label, a finite real target, or NaN for an empty cell."""
    if text == "":
        return math.nan
    try:
        return _parse_int64(text)
    except ValueError:
        pass
    v = float(text)  # raises ValueError upward on junk
    if not math.isfinite(v):
        raise ValueError("non-finite label")
    return v


def load_csv(path) -> CsvLoadResult:
    """Load a dataset from the bit-exact CSV contract.

    The header alone sets the series shape: values load as (n, T), or as
    (n, T, d) under multivariate columns, so a caller that expects a shape
    checks result.dataset.values.shape.  A malformed header (wrong leading
    columns, out-of-order or mixed value columns, fewer than 2 time steps)
    raises ValueError immediately.  Malformed rows (wrong arity, bad id,
    non-numeric or non-finite cells) are rejected one by one and reported
    in ``rejected`` with the 1-based file line on which they start; every
    other row loads, so len(result.dataset) + len(result.rejected) equals
    the data row count.  The label column loads as int64 when every loaded
    label is an integer and as float64 (NaN for empty cells) otherwise.
    Rows are parsed as they stream in, the file is never held as strings,
    and each accepted row's values go straight into one float block that
    becomes the dataset's values, so a load holds one copy of them.
    """
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("csv header mismatch: empty file") from None
        T, d = _parse_header(header)
        n_cols = 2 + T * d
        ids: list[int] = []
        labels: list[int | float] = []
        values = array("d")
        rejected: list[RowIssue] = []
        last_line = reader.line_num
        for row in reader:
            # A quoted cell may span lines: the record starts after the last one.
            line_no, last_line = last_line + 1, reader.line_num
            if len(row) != n_cols:
                rejected.append(RowIssue(line_no, f"row {line_no}: expected {n_cols} cells, got {len(row)}"))
                continue
            try:
                sample_id = _parse_int64(row[0])
            except ValueError:
                rejected.append(RowIssue(line_no, f"row {line_no}: bad id {row[0]!r}"))
                continue
            try:
                label = _parse_label(row[1])
            except ValueError:
                rejected.append(RowIssue(line_no, f"row {line_no}: bad label {row[1]!r}"))
                continue
            try:
                cells = list(map(float, row[2:]))
            except ValueError:
                rejected.append(RowIssue(line_no, f"row {line_no}: non-numeric value cell"))
                continue
            if not all(map(math.isfinite, cells)):
                rejected.append(RowIssue(line_no, f"row {line_no}: non-finite value cell"))
                continue
            ids.append(sample_id)
            labels.append(label)
            values.extend(cells)
    integer_labels = all(type(label) is int for label in labels)
    dataset = Dataset(
        ids=np.array(ids, dtype=np.int64),
        values=np.frombuffer(values, dtype=np.float64).reshape(
            (len(ids), T) if d == 1 else (len(ids), T, d)),
        labels=np.array(labels, dtype=np.int64 if integer_labels else np.float64),
    )
    return CsvLoadResult(dataset=dataset, rejected=rejected)


def save_csv(path, dataset: Dataset) -> None:
    """Write a dataset under the CSV contract (repr floats, round-trip exact).

    Refuses (ValueError naming the sample id) non-finite values and
    infinite labels, which load_csv would reject; a NaN label is written as
    the empty cell of an unlabeled row.  Each row is formatted as one
    string.  Lines end in \\r\\n, the line ending of the csv module's excel
    dialect that load_csv reads.
    """
    n = len(dataset)
    if n == 0:
        raise ValueError("save_csv: empty dataset")
    _check_finite(dataset, "save_csv")
    T = dataset.values.shape[1]
    if dataset.values.ndim == 2:
        value_cols = [f"v{t}" for t in range(1, T + 1)]
    else:
        d = dataset.values.shape[2]
        value_cols = [f"v{t}_d{j}" for t in range(1, T + 1) for j in range(1, d + 1)]
    label_cells = ("" if math.isnan(label) else repr(label) for label in dataset.labels.tolist())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(["id", "label"] + value_cols) + "\r\n")
        for sample_id, label, row in zip(dataset.ids.tolist(), label_cells,
                                         dataset.values.reshape(n, -1)):
            fh.write(f"{sample_id},{label},{','.join(map(repr, row.tolist()))}\r\n")


def make_prefixes(dataset: Dataset, cuts) -> list[Dataset]:
    """Nested prefix datasets at strictly ascending cut points.

    Prefix t has the view values[:, :t] (not a copy) and shares ids,
    labels and flipped_ids with the source, so prefixes are cheap and
    nesting is structural.
    """
    cuts = list(cuts)
    if not cuts:
        raise ValueError("make_prefixes: need at least one cut")
    if any(c2 <= c1 for c1, c2 in zip(cuts, cuts[1:])):
        raise ValueError("make_prefixes: cuts must be strictly ascending")
    if cuts[0] < 2:
        raise ValueError("make_prefixes: cuts must be >= 2")
    T = dataset.values.shape[1]
    if cuts[-1] > T:
        raise ValueError(f"make_prefixes: cut {cuts[-1]} beyond series length ({T})")
    return [Dataset(ids=dataset.ids, values=dataset.values[:, :t], labels=dataset.labels,
                    flipped_ids=dataset.flipped_ids) for t in cuts]
