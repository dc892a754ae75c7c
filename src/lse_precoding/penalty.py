"""Per-antenna penalty functions, transmit supports, and exact scalar
proximal maps.

The shipped family is u(v) = lam |v|^2 + lam0 1{v != 0} over either the
whole complex plane or a disk of radius sqrt(P). The prox of this family
has a closed four-branch form (shrink, drop, or clip to the rim), applied
one input at a time (`prox`) or to a whole array (`prox_array`); the test
suite certifies its global optimality against a brute-force grid search.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FULL_PLANE = "full_plane"
DISK = "disk"


class OutOfSupportError(ValueError):
    """A symbol lies outside the transmit support."""


@dataclass(frozen=True)
class Support:
    """Transmit constellation support: the whole plane or a centered disk."""

    kind: str
    peak_power: float | None = None

    def __post_init__(self):
        if self.kind not in (FULL_PLANE, DISK):
            raise ValueError(f"unknown support kind {self.kind!r}")
        if self.kind == DISK:
            if self.peak_power is None or self.peak_power <= 0:
                raise ValueError("disk support needs a positive peak power")
        elif self.peak_power is not None:
            raise ValueError("full-plane support takes no peak power")

    @classmethod
    def full_plane(cls) -> "Support":
        return cls(FULL_PLANE)

    @classmethod
    def disk(cls, peak_power: float) -> "Support":
        return cls(DISK, float(peak_power))

    @property
    def radius(self) -> float:
        return math.inf if self.kind == FULL_PLANE else math.sqrt(self.peak_power)


@dataclass(frozen=True)
class PenaltySpec:
    """u(v) = lam |v|^2 + lam0 1{v != 0} over a support."""

    lam: float = 0.0
    lam0: float = 0.0
    support: Support = Support.full_plane()

    def __post_init__(self):
        if self.lam < 0 or self.lam0 < 0:
            raise ValueError("penalty weights must be non-negative")

    @property
    def is_disk(self) -> bool:
        return self.support.kind == DISK


@dataclass(frozen=True)
class ThresholdSet:
    """Magnitude thresholds of the scalar prox at a given weight c.

    tau separates drop from shrink; for the disk, tau_tilde marks where the
    shrunk point would leave the disk and tau_hat where clipping to the rim
    beats dropping. tau_hat >= tau_tilde always; tau may exceed tau_tilde,
    in which case the shrink branch is empty.
    """

    tau: float
    tau_tilde: float
    tau_hat: float


def thresholds(spec: PenaltySpec, c: float) -> ThresholdSet:
    if c <= 0:
        raise ValueError("prox weight c must be positive")
    b = 1.0 + c * spec.lam
    tau = math.sqrt(c * spec.lam0 * b)
    if not spec.is_disk:
        return ThresholdSet(tau, math.inf, math.inf)
    root_p = math.sqrt(spec.support.peak_power)
    tau_tilde = b * root_p
    tau_hat = max(tau_tilde, 0.5 * b * root_p + c * spec.lam0 / (2.0 * root_p))
    return ThresholdSet(tau, tau_tilde, tau_hat)


def _prox_scalar(z: complex, a: float, t: ThresholdSet, radius: float,
                 shrink: float) -> complex:
    """The four-branch prox rule for one input z with a = |z|, thresholds t,
    support radius (inf for the full plane, where tau_hat = inf too) and
    shrink factor 1/(1 + c lam). Ties at the thresholds go to the branch
    tested first; the competing branches are cost-equal there."""
    if a >= t.tau_hat:
        # clip to the rim; tau_hat >= tau_tilde > 0 so z != 0 here
        return z * (radius / a)
    if a > t.tau_tilde:
        return 0.0 + 0.0j
    if a >= t.tau:
        # multiply by the real reciprocal: componentwise rounding matches
        # the vectorized path bit for bit
        return z * shrink
    return 0.0 + 0.0j


def prox(spec: PenaltySpec, z: complex, c: float) -> complex:
    """Exact global minimizer over the support of |v - z|^2 + c u(v).

    The output preserves the phase of z or is an exact 0 (so zero-norm
    counts need no epsilon downstream).
    """
    z = complex(z)
    return _prox_scalar(z, abs(z), thresholds(spec, c), spec.support.radius,
                        1.0 / (1.0 + c * spec.lam))


def prox_array(spec: PenaltySpec, z: np.ndarray, c: float) -> np.ndarray:
    """Vectorized prox over an array of complex inputs.

    Each branch is one masked ufunc pass over the whole array (no gather
    or scatter); the rim pass runs last, so at a = tau_tilde = tau_hat the
    rim wins as in the scalar rule."""
    t = thresholds(spec, c)
    z = np.asarray(z, dtype=complex)
    a = np.abs(z)
    out = np.zeros_like(z)
    np.multiply(z, 1.0 / (1.0 + c * spec.lam), out=out,
                where=(a >= t.tau) & (a <= t.tau_tilde))
    if spec.is_disk:
        rim = a >= t.tau_hat  # tau_hat > 0, so no division by zero
        # a is not read again: it takes radius / a where the rim holds
        np.divide(spec.support.radius, a, out=a, where=rim)
        np.multiply(z, a, out=out, where=rim)
    return out


def penalty_value(spec: PenaltySpec, v: complex) -> float:
    """u(v); raises OutOfSupportError outside the disk (tolerance 1e-12 on
    the radius). The zero-norm term tests v against exact zero."""
    a = abs(v)
    if spec.is_disk and a > spec.support.radius + 1e-12:
        raise OutOfSupportError(f"|v| = {a} exceeds the disk radius")
    return spec.lam * a * a + (spec.lam0 if v != 0 else 0.0)

