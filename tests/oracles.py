"""Reference implementations the tests check the package against.

Each oracle computes a quantity the package computes in closed form (or by
its one runtime path) by an independent route:

- `radial_expectation`: E[g(|s|)] of a complex Gaussian by threshold-aligned
  Gauss-Legendre panels, with `quadrature_update` built on it as the
  quadrature twin of `replica.fixed_point_update`;
- `prox_oracle`: the scalar prox by brute force over a polar grid, against
  `prox`, the package's rule for one input at one weight, and
  `prox_scalar`, that rule as the descent writes it into its sweep (the
  package itself applies the rule only through the descent and
  `prox_array`);
- `penalty_value`: the penalty of one symbol, the per-antenna term that
  the descent's vectorized objective sums;
- `closed_moments`, `active_fraction` and `constant_envelope_rim`: the
  closed forms of the decoupled law that the replica route used before
  `penalty.gaussian_law` took their place, each deriving 1 + c lam,
  sqrt(P) and the disk test from (spec, c) itself;
- `precode_rzf` and `random_tas_rzf`: the ridge precoder with a residual
  contract, on all antennas or on a random subset; the descent's start is
  checked against `precode_rzf` on the support it keeps;
- `exact_full_plane_minimum`: the global minimum of the precoding
  objective on the full plane, by enumerating all 2^n supports, against
  which the descent's objective and active fraction are measured;
- `complex_normal_reference` and `decoupled_magnitudes`: the Gaussian draw
  and the decoupled |x| as whole-array expressions, which the package's
  in-place and chunked forms must match byte for byte. Draws of the
  decoupled law are the tests' check of its closed-form CDF,
  `replica.decoupled_cdf`, which the package scores `compare` against.

Only numpy is needed; the panel rule comes from
`numpy.polynomial.legendre.leggauss`.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from lse_precoding.numerics import NonFiniteError, RandomStream, q_function
from lse_precoding.penalty import (OutOfSupportError, PenaltySpec, ThresholdSet,
                                   _interval_moment2, _upper_moment1,
                                   prox_array, thresholds)
from lse_precoding.replica import ReplicaState, SystemParams
from lse_precoding.simulator import PrecodeProblem, PrecodeResult


class ShapeMismatchError(ValueError):
    """A function evaluated on an array did not return one value per node."""


# ---------------------------------------------------------------------------
# radial quadrature
# ---------------------------------------------------------------------------

def _gaussian_tail_moments(b: float, variance: float) -> tuple[float, float, float]:
    """(E0, E1, E2) = int_b^inf r^m (2r/v) exp(-r^2/v) dr for m = 0, 1, 2."""
    e = math.exp(-b * b / variance)
    e0 = e
    e1 = b * e + math.sqrt(math.pi * variance) * q_function(b * math.sqrt(2.0 / variance))
    e2 = (variance + b * b) * e
    return e0, e1, e2


# panel quadrature: integration range in units of sqrt(variance) and
# Gauss-Legendre nodes per panel
_R_MAX_FACTOR = 10.0
_NODES_PER_PANEL = 64


def radial_expectation(g, variance: float, breakpoints: Sequence[float] = (),
                       tail: tuple[float, float, float] | None = None) -> float:
    """E[g(|s|)] for s complex Gaussian, zero mean, total variance `variance`,
    i.e. int_0^inf g(r) (2r/variance) exp(-r^2/variance) dr.

    g is called on arrays of nodes and must return one value per node
    (ShapeMismatchError otherwise). The integral uses composite
    Gauss-Legendre panels whose edges are aligned with the supplied
    breakpoints (prox thresholds have jump discontinuities there) up to
    r_max = 10 sqrt(variance), then adds the tail analytically: `tail` =
    (c0, c1, c2) states that g(r) = c0 + c1 r + c2 r^2 beyond r_max and
    beyond every breakpoint (the tail integral starts at whichever is
    larger, so breakpoints past r_max stay exact). With tail=None the tail,
    of Gaussian weight exp(-100), is dropped.
    """
    if variance <= 0:
        raise ValueError("variance must be positive")
    sigma = math.sqrt(variance)
    r_max = _R_MAX_FACTOR * sigma
    edges = sorted({0.0, r_max} | {float(b) for b in breakpoints if 0.0 < float(b) < r_max})
    total = 0.0
    x_ref, w_ref = leggauss(_NODES_PER_PANEL)
    for a, b in zip(edges[:-1], edges[1:]):
        # split long panels so Gauss-Legendre stays at spectral accuracy
        n_sub = max(1, int(math.ceil((b - a) / (2.5 * sigma))))
        sub = np.linspace(a, b, n_sub + 1)
        for lo, hi in zip(sub[:-1], sub[1:]):
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            r = mid + half * x_ref
            vals = np.asarray(g(r), dtype=float)
            if vals.shape != r.shape:
                raise ShapeMismatchError(
                    f"g returned shape {vals.shape} for nodes of shape {r.shape}")
            if not np.all(np.isfinite(vals)):
                raise NonFiniteError("g returned a non-finite value at a quadrature node")
            w = half * w_ref * (2.0 * r / variance) * np.exp(-r * r / variance)
            total += float(np.dot(w, vals))
    if tail is not None:
        c0, c1, c2 = tail
        tail_start = max([r_max] + [float(b) for b in breakpoints])
        e0, e1, e2 = _gaussian_tail_moments(tail_start, variance)
        total += c0 * e0 + c1 * e1 + c2 * e2
    return total


def quadrature_update(params: SystemParams, state: ReplicaState) -> tuple[float, float]:
    """`replica.fixed_point_update` with the decoupled-symbol expectations
    integrated by `radial_expectation` instead of taken in closed form.

    Phase equivariance of the prox makes both integrands radial, so the
    complex Gaussian expectation reduces to one radial integral per moment.
    """
    spec, c, lrs = params.penalty, state.kappa, state.lambda_rs
    t = state.thresholds
    b = 1.0 + c * spec.lam
    breaks = [x for x in (t.tau, t.tau_tilde, t.tau_hat) if math.isfinite(x)]

    def mag(r):
        return np.abs(prox_array(t, np.asarray(r, dtype=complex)))

    if spec.is_disk:
        tail_p = (spec.peak_power, 0.0, 0.0)
        tail_m = (0.0, math.sqrt(spec.peak_power), 0.0)
    else:
        tail_p = (0.0, 0.0, 1.0 / (b * b))
        tail_m = (0.0, 0.0, 1.0 / b)
    p = radial_expectation(lambda r: mag(r) ** 2, lrs,
                           breakpoints=breaks, tail=tail_p)
    num = radial_expectation(lambda r: mag(r) * np.asarray(r, dtype=float), lrs,
                             breakpoints=breaks, tail=tail_m)
    return p, c * (num / lrs)


# ---------------------------------------------------------------------------
# closed forms of the decoupled law, one derivation per function
# ---------------------------------------------------------------------------

def closed_moments(spec: PenaltySpec, t: ThresholdSet, c: float,
                   lrs: float) -> tuple[float, float]:
    """(E|x|^2, E Re{x* s}/lrs) of the decoupled symbol x = prox(s, c),
    s complex Gaussian of variance lrs, using the exact branch geometry.

    The shrink branch only contributes when tau <= tau_tilde; for very
    large zero-norm weights it is empty and only the rim branch survives.
    """
    b = 1.0 + c * spec.lam
    p = 0.0
    num = 0.0
    if t.tau <= t.tau_tilde:
        xi = _interval_moment2(t.tau, t.tau_tilde, lrs)
        p += xi / (b * b)
        num += xi / b
    if spec.is_disk:
        peak = spec.peak_power
        e_hat = math.exp(-t.tau_hat ** 2 / lrs)
        p += peak * e_hat
        num += math.sqrt(peak) * _upper_moment1(t.tau_hat, lrs)
    return p, num / lrs


def active_fraction(spec: PenaltySpec, t: ThresholdSet, lrs: float) -> float:
    """Asymptotic active-antenna fraction P{x != 0} from the branch masses
    at thresholds t and decoupled variance lrs."""
    if not spec.is_disk:
        return math.exp(-t.tau ** 2 / lrs)
    eta = math.exp(-t.tau_hat ** 2 / lrs)
    if t.tau <= t.tau_tilde:
        eta += math.exp(-t.tau ** 2 / lrs) - math.exp(-t.tau_tilde ** 2 / lrs)
    return eta


def constant_envelope_rim(peak: float, eta_star: float, lrs: float
                          ) -> tuple[float, float]:
    """(E Re{x* s}/lrs, tau_hat) of the constant-envelope symbol with rim
    power `peak` and active fraction eta_star."""
    tau_hat = math.sqrt(lrs * math.log(1.0 / eta_star)) if eta_star < 1 else 0.0
    return math.sqrt(peak) * _upper_moment1(tau_hat, lrs) / lrs, tau_hat


# ---------------------------------------------------------------------------
# whole-array Gaussian draws
# ---------------------------------------------------------------------------

def complex_normal_reference(rng: np.random.Generator, size,
                             variance: float) -> np.ndarray:
    """`numerics.complex_normal` as one expression: real parts, then
    imaginary parts, combined out of full-size temporaries."""
    scale = math.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))


def decoupled_magnitudes(state: ReplicaState, stream: RandomStream,
                         count: int) -> np.ndarray:
    """`replica.decoupled_sample` in one pass: all `count` Gaussian inputs
    drawn at once, the prox applied to the whole array, then |x|."""
    rng = stream.generator()
    s = complex_normal_reference(rng, count, state.lambda_rs)
    return np.abs(prox_array(state.thresholds, s))


# ---------------------------------------------------------------------------
# the scalar prox and its brute-force oracle
# ---------------------------------------------------------------------------

def prox_scalar(z: complex, a: float, t: ThresholdSet) -> complex:
    """The four-branch prox rule t for one input z with a = |z|, in the
    branch order and with the ties of the descent's sweep (on the full
    plane tau_hat = inf, so the rim never holds). Ties at the thresholds
    go to the branch tested first; the competing branches are cost-equal
    there."""
    if a >= t.tau_hat:
        # clip to the rim; tau_hat >= tau_tilde > 0 so z != 0 here
        return z * (t.radius / a)
    if a > t.tau_tilde:
        return 0.0 + 0.0j
    if a >= t.tau:
        # multiply by the real reciprocal: componentwise rounding matches
        # the vectorized path bit for bit
        return z * t.shrink
    return 0.0 + 0.0j


def prox(spec: PenaltySpec, z: complex, c: float) -> complex:
    """The package's scalar prox rule for one input: `prox_scalar` at
    `thresholds(spec, c)`, the exact global minimizer over the support of
    |v - z|^2 + c u(v).

    The output preserves the phase of z or is an exact 0 (so zero-norm
    counts need no epsilon downstream).
    """
    z = complex(z)
    return prox_scalar(z, abs(z), thresholds(spec, c))


def penalty_value(spec: PenaltySpec, v: complex) -> float:
    """u(v); raises OutOfSupportError outside the disk (tolerance 1e-12 on
    the radius). The zero-norm term tests v against exact zero."""
    a = abs(v)
    if spec.is_disk and a > spec.radius + 1e-12:
        raise OutOfSupportError(f"|v| = {a} exceeds the disk radius")
    return spec.lam * a * a + (spec.lam0 if v != 0 else 0.0)


def prox_oracle(spec: PenaltySpec, z: complex, c: float, grid_n: int = 201) -> complex:
    """Brute-force minimizer of |v - z|^2 + c u(v) over a polar grid of the
    support plus the exact candidate points {0, z/(1+c lam), rim point}.

    grid_n >= 101.
    """
    if grid_n < 101:
        raise ValueError("grid_n must be at least 101")
    t = thresholds(spec, c)
    span = max((x for x in (t.tau, t.tau_tilde, t.tau_hat) if math.isfinite(x)),
               default=0.0)
    r_hi = max(abs(z), spec.radius if spec.is_disk else 0.0) + 3.0 * span + 1.0
    if spec.is_disk:
        r_hi = min(r_hi, spec.radius)
    radii = np.linspace(0.0, r_hi, grid_n)
    phases = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, grid_n, endpoint=False))
    grid = np.outer(radii, phases).ravel()

    candidates = [0.0 + 0.0j, z / (1.0 + c * spec.lam)]
    if spec.is_disk and z != 0:
        candidates.append(z / abs(z) * spec.radius)
    candidates = [v for v in candidates
                  if not spec.is_disk or abs(v) <= spec.radius + 1e-15]
    pts = np.concatenate([grid, np.array(candidates)])

    cost = np.abs(pts - z) ** 2 + c * (spec.lam * np.abs(pts) ** 2
                                       + spec.lam0 * (pts != 0))
    return complex(pts[int(np.argmin(cost))])


# ---------------------------------------------------------------------------
# ridge precoders
# ---------------------------------------------------------------------------

def precode_rzf(H: np.ndarray, s: np.ndarray, lam: float) -> np.ndarray:
    """Regularized zero-forcing x = H^H (H H^H + lam I)^{-1} s.

    One step of iterative refinement keeps the normal-equation residual
    below 1e-10 ||s||; raises np.linalg.LinAlgError when that cannot be met
    (singular or numerically near-singular system).
    """
    A = H @ H.conj().T + lam * np.eye(H.shape[0])
    y = np.linalg.solve(A, s)
    y = y + np.linalg.solve(A, s - A @ y)
    if np.linalg.norm(s - A @ y) > 1e-10 * np.linalg.norm(s):
        raise np.linalg.LinAlgError("ridge system residual above tolerance")
    return H.conj().T @ y


def random_tas_rzf(problem: PrecodeProblem, eta_r: float, lam: float,
                   stream: RandomStream) -> PrecodeResult:
    """Ridge precoding on a uniformly random subset of round(eta_r n)
    antennas, embedded as an n-vector with exact zeros elsewhere."""
    n = problem.n
    m = int(round(eta_r * n))
    if not (1 <= m <= n):
        raise ValueError("selection fraction leaves no usable antennas")
    rng = stream.generator()
    chosen = np.sort(rng.choice(n, size=m, replace=False))
    x = np.zeros(n, dtype=complex)
    x[chosen] = precode_rzf(problem.H[:, chosen], problem.s, lam)
    r = problem.s - problem.H @ x
    obj = float(np.vdot(r, r).real + lam * np.vdot(x, x).real)
    return PrecodeResult(x=x, objective=obj, sweeps=0, converged=True)


def exact_full_plane_minimum(problem: PrecodeProblem) -> tuple[float, int]:
    """(minimum objective, support size) of ||s - Hx||^2 + lam ||x||^2
    + lam0 nnz(x) on the full plane, lam > 0, over all 2^n supports.

    For a fixed support S the ridge solution minimizes the rest, so
        F(S) = lam s^H (lam I + H_S H_S^H)^{-1} s + lam0 |S|,
    solved for all masks in one batch; holding 2^n k x k systems at once
    bounds n to the mid-teens."""
    spec = problem.penalty
    if spec.is_disk or not spec.lam > 0:
        raise ValueError("the enumeration needs the full plane and lam > 0")
    H, s, n, k = problem.H, problem.s, problem.n, problem.k
    masks = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    A = spec.lam * np.eye(k) + np.einsum("ij,mj,lj->mil", H, masks, H.conj())
    y = np.linalg.solve(A, np.broadcast_to(s[:, None], (2 ** n, k, 1)))[..., 0]
    F = spec.lam * (y @ s.conj()).real + spec.lam0 * masks.sum(axis=1)
    best = int(np.argmin(F))
    return float(F[best]), int(masks[best].sum())
