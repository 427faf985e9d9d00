"""Deterministic numeric kernels shared by every other module.

Principal-branch Lambert W over arrays plus its scalar reference, population
moments over loss sets, and a seeded random source with one fixed generator
so that identical seeds give identical streams on every platform.  Nothing
in here draws randomness implicitly; stochastic routines elsewhere always
take a SeededRng argument.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import lambertw

__all__ = [
    "W_DOMAIN_MIN",
    "LossStats",
    "SeededRng",
    "derive_seed",
    "lambert_w0",
    "lambert_w0_array",
    "loss_stats",
]

# Branch point of the principal branch: W is real only for x >= -1/e.
W_DOMAIN_MIN = -math.exp(-1.0)
_DOMAIN_SLACK = 1e-15
# Below this x the branch-point series parameter sqrt(2(e*x + 1)) is under 1e-5.
_SERIES_EDGE = (0.5e-10 - 1.0) / math.e


def lambert_w0(x: float) -> float:
    """Principal branch of Lambert W: the w >= -1 with w * exp(w) = x.

    Valid for x >= -1/e; inputs within 1e-15 below the branch point are
    clamped onto it, anything lower raises ValueError.  A branch-aware
    initial guess (square-root series near -1/e, rational fit in the middle,
    log-log asymptote for large x) is refined by Halley steps, which triple
    the number of correct digits per iteration; three steps reach double
    precision from any of the guesses.  The residual |w*exp(w) - x| is
    checked and stays within 1e-12 on [-1/e, 10].
    """
    if math.isnan(x) or x < W_DOMAIN_MIN - _DOMAIN_SLACK:
        raise ValueError(f"lambert_w0: x={x!r} is below the branch point -1/e")
    if x < W_DOMAIN_MIN:
        x = W_DOMAIN_MIN
    if x == 0.0:
        return 0.0

    if x < -0.25:
        # Series in p = sqrt(2(e*x + 1)) around the branch point.
        p = math.sqrt(max(0.0, 2.0 * (math.e * x + 1.0)))
        w = -1.0 + p * (1.0 - p * (1.0 / 3.0 - p * (11.0 / 72.0)))
        if p < 1e-5:
            # Series error is O(p^4); Halley would divide by ~0 here.
            return w
    elif x < 2.0:
        w = x / (1.0 + x)
    else:
        l1 = math.log(x)
        l2 = math.log(l1)
        w = l1 - l2 + l2 / l1

    for _ in range(8):
        ew = math.exp(w)
        f = w * ew - x
        if f == 0.0:
            return w
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        step = f / denom
        w -= step
        if abs(step) <= 2e-16 * (1.0 + abs(w)):
            break

    # Residual top-up: a plain Newton step or two if Halley stalled early.
    for _ in range(4):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= 0.25e-12 * max(1.0, abs(x)):
            break
        w -= f / (ew * (w + 1.0))
    return w


def lambert_w0_array(x) -> np.ndarray:
    """Principal-branch Lambert W of every entry of x, as a float64 array.

    Same domain rule as lambert_w0: entries within 1e-15 below -1/e count
    as -1/e, lower or nan entries raise ValueError.  scipy's lambertw does
    the work except within about 2e-11 of the branch point, where it loses
    accuracy (nan at the double nearest -1/e, and slow); those entries take
    the square-root series that lambert_w0 uses there.
    """
    x = np.asarray(x, dtype=np.float64)
    if not (x >= W_DOMAIN_MIN - _DOMAIN_SLACK).all():
        raise ValueError("lambert_w0_array: an entry is nan or below the branch point -1/e")
    near = x < _SERIES_EDGE
    w = lambertw(np.where(near, 0.0, x)).real
    if near.any():
        p = np.sqrt(np.maximum(0.0, 2.0 * (math.e * x[near] + 1.0)))
        w[near] = -1.0 + p * (1.0 - p * (1.0 / 3.0 - p * (11.0 / 72.0)))
    return w


@dataclass(frozen=True)
class LossStats:
    """Population moments of a finite loss set (divisor n, not n-1)."""

    mean: float
    std: float
    skewness: float
    n: int


def loss_stats(values) -> LossStats:
    """Population mean, standard deviation and skewness of a loss set.

    All three use divisor n.  Skewness is E[(v - mean)^3] / std^3 and is
    defined as exactly 0.0 when std == 0 (a degenerate, all-equal set).
    Summation order is fixed by the input order, so recomputing on the same
    values is bit-identical.  Empty input or non-finite entries raise
    ValueError.
    """
    arr = np.asarray(values, dtype=np.float64).reshape(-1)
    if arr.size == 0:
        raise ValueError("loss_stats: empty input")
    if not np.all(np.isfinite(arr)):
        raise ValueError("loss_stats: non-finite values in input")
    n = int(arr.size)
    mean = float(np.sum(arr) / n)
    d = arr - mean
    var = float(np.sum(d * d) / n)
    std = math.sqrt(var)
    if std == 0.0:
        skew = 0.0
    else:
        skew = float(np.sum(d * d * d) / n) / (std * std * std)
    return LossStats(mean=mean, std=std, skewness=skew, n=n)


def derive_seed(seed: int, name: str) -> int:
    """Stable 64-bit sub-seed for (seed, component name).

    Hashes the pair with BLAKE2b so that substreams for different components
    are independent and reproducible across platforms and processes.
    """
    digest = hashlib.blake2b(f"{seed}:{name}".encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass
class SeededRng:
    """Single-owner random source wrapping one fixed generator (PCG64).

    Every stochastic routine takes one of these explicitly.  ``derive(name)``
    forks a deterministic, independent substream keyed by a component name;
    use it rather than sharing one instance across components, since draws
    interleave otherwise.
    """

    seed: int
    generator: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or self.seed < 0 or self.seed >= 2**64:
            raise ValueError("SeededRng: seed must be an unsigned 64-bit integer")
        self.generator = np.random.Generator(np.random.PCG64(self.seed))

    def derive(self, name: str) -> "SeededRng":
        """Fork an independent substream keyed by ``name``."""
        return SeededRng(derive_seed(self.seed, name))
