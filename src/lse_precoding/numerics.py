"""Shared numerical primitives: the Gaussian tail function, deterministic
random streams and distribution-distance statistics.

Everything here is a pure function of its arguments; repeated calls agree
bit for bit. Only numpy and the standard library are used: Q comes from
`math.erfc`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class NonFiniteError(ArithmeticError):
    """A function being solved or integrated returned a non-finite value
    (the calibration's root solve, the test oracles' quadrature)."""


class EmptySampleError(ValueError):
    """A statistic was requested on an empty sample."""


# ---------------------------------------------------------------------------
# deterministic random streams
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(z: int) -> int:
    """SplitMix64 finalizer; avalanche-mixes z taken modulo 2**64."""
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class RandomStream:
    """A named substream of a master seed.

    The substream key is derived as

        w0 = splitmix64(master_seed XOR splitmix64(stream_index))
        w1 = splitmix64(w0)

    and (w0, w1) keys a counter-based Philox generator, so streams with
    different indices are independent and trial outcomes never depend on
    scheduling order.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        if self.stream_index < 0:
            raise ValueError("stream_index must be non-negative")

    def key_words(self) -> tuple[int, int]:
        w0 = _splitmix64(self.master_seed ^ _splitmix64(self.stream_index))
        return w0, _splitmix64(w0)

    def generator(self) -> np.random.Generator:
        w0, w1 = self.key_words()
        return np.random.Generator(np.random.Philox(key=np.array([w0, w1], dtype=np.uint64)))


def complex_from_parts(re: np.ndarray, im: np.ndarray, variance: float) -> np.ndarray:
    """sqrt(variance / 2) (re + 1j im) from standard normal parts, formed in
    one complex array, bit-identical to that expression."""
    z = np.empty(re.shape, dtype=complex)
    z.real = re
    z.imag = im
    z *= math.sqrt(variance / 2.0)
    return z


def complex_normal(rng: np.random.Generator, size, variance: float) -> np.ndarray:
    """Zero-mean circularly-symmetric complex Gaussian with total variance
    `variance`: every real part is drawn before every imaginary part."""
    re = rng.standard_normal(size)
    return complex_from_parts(re, rng.standard_normal(size), variance)


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)


def q_function(x: float) -> float:
    """Standard normal upper-tail probability Q(x) = erfc(x / sqrt(2)) / 2
    of a scalar x.

    Uses the C-library complementary error function `math.erfc` (relative
    error at the 1e-14 level out to x = 8), validated in the test suite
    against an mpmath oracle.
    """
    return 0.5 * math.erfc(float(x) / _SQRT2)


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov distance
# ---------------------------------------------------------------------------

def ks_distance(sample_a: Sequence[float], sample_b: Sequence[float]) -> float:
    """Two-sample Kolmogorov-Smirnov sup-distance between the empirical CDFs
    of sample_a and sample_b."""
    a = np.sort(np.asarray(sample_a, dtype=float))
    b = np.sort(np.asarray(sample_b, dtype=float))
    n = a.size
    if n == 0:
        raise EmptySampleError("sample_a is empty")
    m = b.size
    if m == 0:
        raise EmptySampleError("sample_b is empty")
    # both EDFs are right-continuous step functions and F_a - F_b only rises
    # at points of a: its sup is the right limit at a point of a, and the sup
    # of F_b - F_a the left limit at a point of a (it is at most 0 beyond the
    # last one). The same integer counts as at the union of points, so the
    # same float.
    above = np.searchsorted(a, a, side="right") / n - np.searchsorted(b, a, side="right") / m
    below = np.searchsorted(b, a, side="left") / m - np.searchsorted(a, a, side="left") / n
    return float(max(above.max(), below.max()))
