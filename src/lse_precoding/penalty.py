"""Per-antenna penalty functions and the exact scalar prox at one weight.

The one penalty is u(v) = lam |v|^2 + lam0 1{v != 0} over a transmit
support that is either the whole complex plane or, when the spec carries a
peak power P, the disk of radius sqrt(P). Its prox at weight c has a
closed four-branch form (shrink, drop, or clip to the rim), a rule that
`thresholds(spec, c)` alone derives from (spec, c). Everything else reads
the rule: `prox_array`, the descent of `simulator` (which applies it one
scalar at a time, written into its sweep), and `gaussian_law`, the
closed-form law of the prox of a complex Gaussian input, which the
replica route solves with and samples from. The test suite certifies the
prox's global optimality against a brute-force grid search and the law
against radial quadrature.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numerics import q_function


class OutOfSupportError(ValueError):
    """A symbol lies outside the transmit support."""


@dataclass(frozen=True)
class PenaltySpec:
    """u(v) = lam |v|^2 + lam0 1{v != 0} over the whole plane, or over the
    disk |v|^2 <= peak_power when a peak power is given."""

    lam: float = 0.0
    lam0: float = 0.0
    peak_power: float | None = None

    def __post_init__(self):
        if self.lam < 0 or self.lam0 < 0:
            raise ValueError("penalty weights must be non-negative")
        if self.peak_power is not None and not self.peak_power > 0:
            raise ValueError("disk support needs a positive peak power")

    @property
    def is_disk(self) -> bool:
        return self.peak_power is not None

    @property
    def radius(self) -> float:
        """sqrt(P) on the disk, inf on the whole plane."""
        return math.inf if self.peak_power is None else math.sqrt(self.peak_power)


class ThresholdSet(NamedTuple):
    """The scalar prox rule at a given weight c.

    tau separates drop from shrink; for the disk, tau_tilde marks where the
    shrunk point would leave the disk and tau_hat where clipping to the rim
    beats dropping. tau_hat >= tau_tilde always; tau may exceed tau_tilde,
    in which case the shrink branch is empty. The shrink branch multiplies
    by shrink = 1/b, b = 1 + c lam; the rim has radius sqrt(P) and power
    peak = P. On the full plane tau_tilde, tau_hat, radius and peak are inf.
    """

    tau: float
    tau_tilde: float
    tau_hat: float
    b: float
    shrink: float
    radius: float
    peak: float


def thresholds(spec: PenaltySpec, c: float) -> ThresholdSet:
    """The prox rule of spec at weight c > 0."""
    if c <= 0:
        raise ValueError("prox weight c must be positive")
    b = 1.0 + c * spec.lam
    tau = math.sqrt(c * spec.lam0 * b)
    if not spec.is_disk:
        return ThresholdSet(tau, math.inf, math.inf, b, 1.0 / b, math.inf, math.inf)
    root_p = spec.radius
    tau_tilde = b * root_p
    tau_hat = max(tau_tilde, 0.5 * b * root_p + c * spec.lam0 / (2.0 * root_p))
    return ThresholdSet(tau, tau_tilde, tau_hat, b, 1.0 / b, root_p, spec.peak_power)


def constant_envelope_rule(peak: float, tau_hat: float) -> ThresholdSet:
    """The rule that drops inputs below tau_hat and clips the rest to the
    rim of power `peak`: tau = tau_tilde = tau_hat, so the shrink branch
    holds no input (the rim wins the tie), and b = 1."""
    return ThresholdSet(tau_hat, tau_hat, tau_hat, 1.0, 1.0, math.sqrt(peak), peak)


def prox_array(t: ThresholdSet, z: np.ndarray) -> np.ndarray:
    """The prox rule t over an array of complex inputs.

    Each branch is one masked ufunc pass over the whole array (no gather
    or scatter); the rim pass runs last, so at a = tau_tilde = tau_hat the
    rim wins as in the descent's scalar rule."""
    z = np.asarray(z, dtype=complex)
    a = np.abs(z)
    out = np.zeros_like(z)
    np.multiply(z, t.shrink, out=out, where=(a >= t.tau) & (a <= t.tau_tilde))
    rim = a >= t.tau_hat  # empty on the full plane, where tau_hat = inf
    # a is not read again: it takes radius / a where the rim holds
    np.divide(t.radius, a, out=a, where=rim)
    np.multiply(z, a, out=out, where=rim)
    return out


def _interval_moment2(lo: float, hi: float, lrs: float) -> float:
    """E[r^2 1{lo <= r <= hi}] for r Rayleigh with E r^2 = lrs."""
    lo_term = (lrs + lo * lo) * math.exp(-lo * lo / lrs)
    hi_term = 0.0 if math.isinf(hi) else (lrs + hi * hi) * math.exp(-hi * hi / lrs)
    return lo_term - hi_term


def _upper_moment1(lo: float, lrs: float) -> float:
    """E[r 1{r >= lo}] for the same Rayleigh law."""
    return (lo * math.exp(-lo * lo / lrs)
            + math.sqrt(math.pi * lrs) * q_function(lo * math.sqrt(2.0 / lrs)))


def gaussian_law(t: ThresholdSet, lrs: float) -> tuple[float, float, float]:
    """(E|x|^2, E Re{x* s}/lrs, P{x != 0}) of x = prox(s) under rule t, s
    complex Gaussian of variance lrs, in closed form from the branch
    geometry: the shrink branch on [tau, tau_tilde], which is empty when
    tau > tau_tilde, and the rim from tau_hat on."""
    p = num = eta = 0.0
    if t.tau <= t.tau_tilde:
        xi = _interval_moment2(t.tau, t.tau_tilde, lrs)
        p += xi / (t.b * t.b)
        num += xi / t.b
        eta = math.exp(-t.tau ** 2 / lrs) - math.exp(-t.tau_tilde ** 2 / lrs)
    if math.isfinite(t.peak):
        e_hat = math.exp(-t.tau_hat ** 2 / lrs)
        p += t.peak * e_hat
        num += t.radius * _upper_moment1(t.tau_hat, lrs)
        eta = e_hat + eta
    return p, num / lrs, eta
