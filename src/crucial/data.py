"""Seeded synthetic time-series generators, CSV interchange, prefix datasets.

Generators are deterministic given a SeededRng and platform-stable.  The CSV
contract is bit-exact: header ``id,label,v1,...,vT`` (multivariate series use
column-grouped ``v{t}_d{j}`` headers), UTF-8, ``.`` decimal, label column
empty for unlabeled rows.  Floats are written with repr so a write-then-load
round-trip reproduces every bit.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .numerics import SeededRng

__all__ = [
    "CsvLoadResult",
    "Dataset",
    "PrefixDataset",
    "RowIssue",
    "TimeSeriesSample",
    "gen_drift_classification",
    "gen_sine_regression",
    "load_csv",
    "make_prefixes",
    "save_csv",
]


@dataclass(frozen=True, eq=False)
class TimeSeriesSample:
    """One series: values shaped (T,) or (T, d), with an optional label.

    The label is a class integer for classification sets, a real target for
    regression sets, None when unlabeled.  Values are treated as read-only
    once constructed; prefix datasets hand out views into them.
    """

    id: int
    values: np.ndarray
    label: int | float | None = None

    @property
    def length(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_dims(self) -> int:
        return 1 if self.values.ndim == 1 else int(self.values.shape[1])


@dataclass(frozen=True, eq=False)
class Dataset:
    """A list of samples plus generator bookkeeping.

    flipped_ids records which sample ids had their label flipped by the
    label-noise step of the drift generator (empty otherwise).
    """

    samples: list[TimeSeriesSample]
    flipped_ids: tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.samples)

    def min_length(self) -> int:
        return min(s.length for s in self.samples)


@dataclass(frozen=True, eq=False)
class PrefixDataset:
    """The first t observations of every sample of a source dataset."""

    source: Dataset
    t: int
    samples: list[TimeSeriesSample]

    def __len__(self) -> int:
        return len(self.samples)


def _validate_new_sample(sample: TimeSeriesSample) -> None:
    if sample.values.ndim not in (1, 2):
        raise ValueError(f"sample {sample.id}: values must be 1-d or 2-d")
    if sample.length < 2:
        raise ValueError(f"sample {sample.id}: series length must be >= 2")
    if not np.all(np.isfinite(sample.values)):
        raise ValueError(f"sample {sample.id}: non-finite values")


def gen_sine_regression(n: int, T: int, noise_sd: float, rng: SeededRng, *,
                        freq_range: tuple[float, float] = (0.02, 0.08),
                        amp_range: tuple[float, float] = (0.8, 1.2)) -> Dataset:
    """Sinusoids with random amplitude/frequency/phase plus Gaussian noise.

    Each sample is x_t = A sin(2 pi f t + phi) + noise for t = 0..T-1; the
    regression target is the next value of the same noisy process at t = T,
    so with noise_sd = 0 the target is exactly the extrapolated sinusoid.
    Frequencies are uniform in freq_range (cycles per step); pass a
    degenerate range to pin the spectral peak for analysis.
    """
    if n < 1 or T < 2:
        raise ValueError("gen_sine_regression: need n >= 1 and T >= 2")
    if noise_sd < 0.0:
        raise ValueError("gen_sine_regression: noise_sd must be >= 0")
    gen = rng.derive("sine-regression").generator
    freqs = gen.uniform(freq_range[0], freq_range[1], n)
    phases = gen.uniform(0.0, 2.0 * math.pi, n)
    amps = gen.uniform(amp_range[0], amp_range[1], n)
    t = np.arange(T + 1, dtype=np.float64)
    clean = amps[:, None] * np.sin(2.0 * math.pi * freqs[:, None] * t[None, :] + phases[:, None])
    noisy = clean + noise_sd * gen.standard_normal((n, T + 1))
    samples = []
    for i in range(n):
        s = TimeSeriesSample(id=i, values=noisy[i, :T].copy(), label=float(noisy[i, T]))
        _validate_new_sample(s)
        samples.append(s)
    return Dataset(samples=samples)


def gen_drift_classification(n: int, T: int, drift_rate: float, label_noise: float,
                             rng: SeededRng, *,
                             class_sep: float = 1.8,
                             ar_coeff: float = 0.8,
                             ar_sd: float = 0.4) -> Dataset:
    """Two AR(1)-like classes whose separating level drifts over time.

    Class c in {0, 1} fluctuates around m_c(t) = (2c-1)*class_sep/2
    + drift_rate * t/(T-1): the class-conditional window statistic moves
    over t (both classes together), so a threshold fit on an early prefix
    goes stale on later ones, which is the forgetting pressure the
    continuous task needs.  Separability itself stays constant, and a
    brute-force threshold sweep on the final window of clean data reaches
    at least ~0.95 accuracy with the default shape parameters.

    A label_noise fraction of labels (rounded) is flipped; the flipped
    sample ids are recorded on the returned dataset.
    """
    if n < 1 or T < 2:
        raise ValueError("gen_drift_classification: need n >= 1 and T >= 2")
    if drift_rate < 0.0:
        raise ValueError("gen_drift_classification: drift_rate must be >= 0")
    if not 0.0 <= label_noise < 0.5:
        raise ValueError("gen_drift_classification: label_noise must be in [0, 0.5)")
    gen = rng.derive("drift-classification").generator
    true_labels = gen.integers(0, 2, n)
    sign = 2.0 * true_labels.astype(np.float64) - 1.0
    tt = np.arange(T, dtype=np.float64)
    means = sign[:, None] * (class_sep / 2.0) + drift_rate * (tt[None, :] / (T - 1))
    # Stationary AR(1) noise around the drifting class level.
    stat_sd = ar_sd / math.sqrt(1.0 - ar_coeff * ar_coeff)
    e = np.empty((n, T), dtype=np.float64)
    e[:, 0] = stat_sd * gen.standard_normal(n)
    shocks = ar_sd * gen.standard_normal((n, T - 1))
    for t in range(1, T):
        e[:, t] = ar_coeff * e[:, t - 1] + shocks[:, t - 1]
    values = means + e

    n_flip = int(round(label_noise * n))
    flip_idx = np.sort(gen.choice(n, size=n_flip, replace=False)) if n_flip else np.array([], dtype=int)
    labels = true_labels.copy()
    labels[flip_idx] ^= 1

    samples = []
    for i in range(n):
        s = TimeSeriesSample(id=i, values=values[i].copy(), label=int(labels[i]))
        _validate_new_sample(s)
        samples.append(s)
    return Dataset(samples=samples, flipped_ids=tuple(int(i) for i in flip_idx))


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


def _parse_label(text: str):
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        pass
    v = float(text)  # raises ValueError upward on junk
    if not math.isfinite(v):
        raise ValueError("non-finite label")
    return v


def load_csv(path, schema: tuple[int, int] | None = None) -> CsvLoadResult:
    """Load a dataset from the bit-exact CSV contract.

    A malformed header (wrong leading columns, out-of-order or mixed value
    columns, or a mismatch against the optional ``schema`` tuple (T, d))
    raises ValueError immediately.  Malformed rows (wrong arity, bad id,
    non-numeric or non-finite cells) are rejected one by one and reported
    in ``rejected`` with their 1-based file line numbers; every other row
    loads, so len(result.dataset) + len(result.rejected) equals the data
    row count.
    """
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("csv header mismatch: empty file") from None
        T, d = _parse_header(header)
        if schema is not None and (T, d) != tuple(schema):
            raise ValueError(f"csv header mismatch: file has (T={T}, d={d}), expected {schema}")
        n_cols = 2 + T * d
        samples: list[TimeSeriesSample] = []
        rejected: list[RowIssue] = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != n_cols:
                rejected.append(RowIssue(line_no, f"row {line_no}: expected {n_cols} cells, got {len(row)}"))
                continue
            try:
                sample_id = int(row[0])
            except ValueError:
                rejected.append(RowIssue(line_no, f"row {line_no}: bad id {row[0]!r}"))
                continue
            try:
                label = _parse_label(row[1])
            except ValueError:
                rejected.append(RowIssue(line_no, f"row {line_no}: bad label {row[1]!r}"))
                continue
            try:
                vals = np.array([float(c) for c in row[2:]], dtype=np.float64)
            except ValueError:
                rejected.append(RowIssue(line_no, f"row {line_no}: non-numeric value cell"))
                continue
            if not np.all(np.isfinite(vals)):
                rejected.append(RowIssue(line_no, f"row {line_no}: non-finite value cell"))
                continue
            values = vals if d == 1 else vals.reshape(T, d)
            samples.append(TimeSeriesSample(id=sample_id, values=values, label=label))
    return CsvLoadResult(dataset=Dataset(samples=samples), rejected=rejected)


def _format_label(label) -> str:
    if label is None:
        return ""
    if isinstance(label, (int, np.integer)) and not isinstance(label, bool):
        return str(int(label))
    return repr(float(label))


def save_csv(path, dataset: Dataset) -> None:
    """Write a dataset under the CSV contract (repr floats, round-trip exact).

    Each row is formatted as one string.  Lines end in \\r\\n, the line
    ending of the csv module's excel dialect that load_csv reads.
    """
    if not dataset.samples:
        raise ValueError("save_csv: empty dataset")
    first = dataset.samples[0]
    T, d = first.length, first.n_dims
    for s in dataset.samples:
        if s.length != T or s.n_dims != d:
            raise ValueError("save_csv: all samples must share (T, d)")
    if d == 1:
        value_cols = [f"v{t}" for t in range(1, T + 1)]
    else:
        value_cols = [f"v{t}_d{j}" for t in range(1, T + 1) for j in range(1, d + 1)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(["id", "label"] + value_cols) + "\r\n")
        for s in dataset.samples:
            flat = s.values.astype(np.float64, copy=False).reshape(-1)
            fh.write(f"{s.id},{_format_label(s.label)},{','.join(map(repr, flat.tolist()))}\r\n")


def make_prefixes(dataset: Dataset, cuts) -> list[PrefixDataset]:
    """Nested prefix views of a dataset at strictly ascending cut points.

    Each PrefixDataset holds views (not copies) of the first t values of
    every sample, so prefixes are cheap and nesting is structural.
    """
    cuts = list(cuts)
    if not cuts:
        raise ValueError("make_prefixes: need at least one cut")
    if any(c2 <= c1 for c1, c2 in zip(cuts, cuts[1:])):
        raise ValueError("make_prefixes: cuts must be strictly ascending")
    if cuts[0] < 1:
        raise ValueError("make_prefixes: cuts must be >= 1")
    min_len = dataset.min_length()
    if cuts[-1] > min_len:
        raise ValueError(f"make_prefixes: cut {cuts[-1]} beyond shortest series ({min_len})")
    out = []
    for t in cuts:
        views = [
            TimeSeriesSample(id=s.id, values=s.values[:t], label=s.label)
            for s in dataset.samples
        ]
        out.append(PrefixDataset(source=dataset, t=t, samples=views))
    return out
