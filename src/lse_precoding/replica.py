"""Replica-symmetric fixed point of the penalized least-square precoder in
the large-system limit of an i.i.d. Gaussian channel, whose Gramian follows
the Marchenko-Pastur law with R-transform R(w) = alpha / (1 - w).

State variables are the pair (chi, p): p is the average transmit power per
antenna and chi the rescaled self-overlap response. From them follow the
decoupled input variance lambda_rs = (lambda_s + p)/alpha, the prox weight
kappa = 1/R(-chi), the scalar prox rule at weight kappa, and the
observables (distortion (lambda_s + p)/(1 + chi)^2, active fraction, peak
ratio).

The decoupled symbol is that prox applied to a complex Gaussian of
variance lambda_rs: the fixed-point update, the active fraction and the
calibration read its closed-form law (`penalty.gaussian_law`), and
`decoupled_cdf` gives the closed-form CDF of its magnitude |x|, against
which `ks_decoupled` scores a sample of magnitudes exactly.
`decoupled_sample` draws that law: the real parts of every Gaussian input
first, then the imaginary parts chunk by chunk, so a large draw holds one
full-size array.

Calibration inverts the state equations at the targets instead of searching
over the weights. At a given lambda_rs the decoupled law depends on the
weights only through b = 1 + kappa lam and L0 = kappa lam0, so the active
fraction and power targets fix L0 and b by two nested monotone 1-d solves
on the closed forms; chi R(-chi) = E Re{x* s}/lambda_rs then gives chi in
closed form, and one fixed-point solve at the resulting weights certifies
them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .numerics import NonFiniteError, RandomStream, complex_from_parts
from .penalty import (PenaltySpec, ThresholdSet, constant_envelope_rule,
                      gaussian_law, prox_array, thresholds)


class NoConvergenceError(RuntimeError):
    """Fixed-point iteration did not converge; carries the last state."""

    def __init__(self, message, state, residual):
        super().__init__(message)
        self.state = state
        self.residual = residual


class NotAchievableError(ValueError):
    """The requested calibration targets lie outside the feasible region."""


@dataclass(frozen=True)
class SystemParams:
    """Large-system description: load alpha = k/n of the i.i.d. Gaussian
    channel, data variance lambda_s and the per-antenna penalty."""

    alpha: float
    lambda_s: float
    penalty: PenaltySpec

    def __post_init__(self):
        if self.alpha <= 0 or self.lambda_s <= 0:
            raise ValueError("alpha and lambda_s must be positive")


@dataclass(frozen=True)
class ReplicaState:
    chi: float
    p: float
    lambda_rs: float
    kappa: float
    thresholds: ThresholdSet


@dataclass(frozen=True)
class ReplicaSolution:
    state: ReplicaState
    distortion: float
    eta: float
    papr: float
    residual: float
    iterations: int


def _mp_r(params: SystemParams, chi: float) -> float:
    """R(-chi) of the Marchenko-Pastur law, R(w) = alpha / (1 - w)."""
    return params.alpha / (1.0 + chi)


def make_state(params: SystemParams, chi: float, p: float) -> ReplicaState:
    """Derive the dependent state variables from (chi, p)."""
    kappa = 1.0 / _mp_r(params, chi)
    lrs = (params.lambda_s + p) / params.alpha
    return ReplicaState(chi=chi, p=p, lambda_rs=lrs, kappa=kappa,
                        thresholds=thresholds(params.penalty, kappa))


def fixed_point_update(state: ReplicaState) -> tuple[float, float]:
    """One update (p_new, chi_new) of the fixed-point map at `state`.

    p_new is the decoupled second moment; chi_new = kappa * E Re{x* s}/lrs
    with kappa and lrs frozen at the current state, both from the
    closed-form law of the state's prox rule.
    """
    p_new, m, _ = gaussian_law(state.thresholds, state.lambda_rs)
    return p_new, state.kappa * m


def _finalize(params: SystemParams, state: ReplicaState, residual: float,
              iterations: int) -> ReplicaSolution:
    d = (params.lambda_s + state.p) / (1.0 + state.chi) ** 2
    papr = math.inf if state.p <= 0 else state.thresholds.peak / state.p
    return ReplicaSolution(state=state, distortion=d,
                           eta=gaussian_law(state.thresholds, state.lambda_rs)[2],
                           papr=papr, residual=residual, iterations=iterations)


def solve_fixed_point(params: SystemParams, damping: float = 0.5,
                      tol: float = 1e-12, max_iter: int = 100_000) -> ReplicaSolution:
    """Damped Picard iteration of the closed-form fixed-point map from the
    one start (chi, p) = (1, lambda_s) until max(|dp|, |dchi|) <= tol.

    The iteration is deterministic, so it reports one fixed point: the one
    this start reaches. The damping starts at `damping` and, while above
    1/64, halves after five consecutive sign flips of the p-residual. Raises
    NoConvergenceError as soon as an iterate is not finite, carrying the
    last finite state, or after max_iter updates, carrying the last
    iterate and the residual of the update that led to it.
    """
    chi, p = 1.0, params.lambda_s
    theta = damping
    last_sign = 0
    flips = 0
    residual = math.inf
    state = make_state(params, chi, p)
    for it in range(max_iter):
        p_new, chi_new = fixed_point_update(state)
        if not (math.isfinite(p_new) and math.isfinite(chi_new)):
            # chi runs off to infinity when no fixed point exists (e.g. no
            # penalty with more antennas than users)
            raise NoConvergenceError(
                f"fixed-point iterate is not finite after {it} iterations "
                f"(p = {p_new:.3e}, chi = {chi_new:.3e})", state=state, residual=residual)
        residual = max(abs(p_new - p), abs(chi_new - chi))
        if residual <= tol:
            return _finalize(params, state, residual, it)
        # damp oscillations: five consecutive sign flips of the p-residual
        sign = 1 if p_new > p else -1
        if sign == -last_sign:
            flips += 1
            if flips >= 5 and theta > 1.0 / 64:
                theta *= 0.5
                flips = 0
        else:
            flips = 0
        last_sign = sign
        p = (1.0 - theta) * p + theta * p_new
        chi = (1.0 - theta) * chi + theta * chi_new
        state = make_state(params, chi, p)
    raise NoConvergenceError(
        f"no fixed point after {max_iter} iterations (last residual {residual:.3e})",
        state=state, residual=residual)


_SAMPLE_CHUNK = 1 << 14


def decoupled_sample(state: ReplicaState, stream: RandomStream,
                     count: int) -> np.ndarray:
    """Draw `count` magnitudes |x| of the decoupled precoded symbol x: the
    state's prox rule applied to a complex Gaussian of variance lambda_rs.

    The draw order is that of `complex_normal`: all `count` real parts
    from the stream's generator, then all imaginary parts, so the result
    is deterministic given the stream. The imaginary parts are drawn and
    the prox applied `_SAMPLE_CHUNK` symbols at a time, each chunk's |x|
    overwriting its real parts, so the only full-size array is the
    result."""
    rng = stream.generator()
    mags = rng.standard_normal(count)
    im = np.empty(min(count, _SAMPLE_CHUNK))
    for lo in range(0, count, _SAMPLE_CHUNK):
        re = mags[lo:lo + _SAMPLE_CHUNK]
        chunk_im = rng.standard_normal(out=im[:re.size])
        s = complex_from_parts(re, chunk_im, state.lambda_rs)
        np.abs(prox_array(state.thresholds, s), out=re)
    return mags


def decoupled_cdf(state: ReplicaState, m: np.ndarray, left: bool = False
                  ) -> np.ndarray:
    """P{|x| <= m}, or the left limit P{|x| < m} with left=True, of the
    decoupled magnitude |x| = |prox(z)|, z ~ CN(0, lambda_rs), at each m.

    The prox acts on a = |z| branch by branch: zero below tau, a/b on
    [tau, tau_tilde], zero on (tau_tilde, tau_hat), the rim sqrt(P) from
    tau_hat; and P{a > r} = exp(-r^2/lambda_rs). So for m >= 0

        P{|x| > m} = exp(-L^2/lambda_rs) - exp(-tau_tilde^2/lambda_rs)  (if L < tau_tilde)
                   + exp(-tau_hat^2/lambda_rs)                          (if m < sqrt(P))

    with L = max(tau, b m), and the CDF is 0 below m = 0. It has atoms at
    0 (mass 1 - eta) and at sqrt(P) (the rim's mass)."""
    t, lrs = state.thresholds, state.lambda_rs
    m = np.asarray(m, dtype=float)
    low = np.maximum(t.tau, t.b * np.maximum(m, 0.0))
    shrink = np.where(low < t.tau_tilde,
                      np.exp(-low * low / lrs) - math.exp(-t.tau_tilde ** 2 / lrs), 0.0)
    on_rim = m <= t.radius if left else m < t.radius
    cdf = 1.0 - shrink - np.where(on_rim, math.exp(-t.tau_hat ** 2 / lrs), 0.0)
    return np.where(m <= 0.0 if left else m < 0.0, 0.0, cdf)


def snap_to_rim(mags: np.ndarray, state: ReplicaState) -> np.ndarray:
    """The magnitudes `mags` with those within 1e-12 relative of the
    state's rim sqrt(P) set to sqrt(P), as a new array (`mags` itself on
    the full plane): a rim magnitude is sqrt(P) up to rounding, which can
    depend on the thread count, and belongs to the law's atom there."""
    rim = state.thresholds.radius
    if not math.isfinite(rim):
        return mags
    return np.where(np.abs(mags - rim) <= 1e-12 * rim, rim, mags)


def ks_decoupled(sample: np.ndarray, state: ReplicaState) -> float:
    """One-sample Kolmogorov-Smirnov sup-distance between the EDF of the
    magnitudes `sample`, snapped onto the rim (`snap_to_rim`), and
    `decoupled_cdf`. Both CDFs are step functions at the atoms, so the sup
    compares F_n(v) - F(v) and F(v-) - F_n(v-) at each distinct sample
    value v; between them F_n is flat and F rises, so no other point is
    needed."""
    x = snap_to_rim(np.asarray(sample, dtype=float), state)
    values, counts = np.unique(x, return_counts=True)
    at_most = np.cumsum(counts)  # how many magnitudes are <= each value
    above = at_most / x.size - decoupled_cdf(state, values)
    below = decoupled_cdf(state, values, left=True) - (at_most - counts) / x.size
    return float(max(above.max(), below.max()))


# ---------------------------------------------------------------------------
# calibration to target constraints
# ---------------------------------------------------------------------------

def _chi_of(params: SystemParams, m: float, p: float) -> float:
    """The response chi that solves chi R(-chi) = m, where m = E Re{x* s} /
    lambda_rs of the decoupled symbol at unit prox weight and power p.

    Under Marchenko-Pastur chi R(-chi) = alpha chi/(1 + chi), so
    chi = m/(alpha - m). Raises NotAchievableError when m >= alpha, the
    supremum of chi R(-chi).
    """
    if m >= params.alpha:
        raise NotAchievableError(
            f"no response chi solves chi R(-chi) = {m:.6g} at power {p}")
    return m / (params.alpha - m)


def _check_targets(p_star: float, eta_star: float) -> None:
    """Raise NotAchievableError for an eta target outside (0, 1] or a power
    target that is not positive."""
    if not (0 < eta_star <= 1):
        raise NotAchievableError("eta target must lie in (0, 1]")
    if not p_star > 0:
        raise NotAchievableError("power target must be positive")


def solve_constant_envelope(params: SystemParams, p_star: float,
                            eta_star: float
                            ) -> tuple[float, float, ReplicaSolution]:
    """Boundary solution where every active antenna transmits at the peak,
    as (lam, lam0, solution) in the order of `calibrate`.

    Feasibility of a disk penalty requires p <= eta * P; on that boundary
    the shrink branch is empty, the peak is P = p_star / eta_star, and the
    active fraction pins the rim threshold directly: eta = exp(-tau_hat^2 /
    lambda_rs). The remaining self-consistency in chi is `_chi_of`.
    Raises NotAchievableError for the targets `_check_targets` rejects.
    """
    _check_targets(p_star, eta_star)
    lrs = (params.lambda_s + p_star) / params.alpha
    tau_hat = math.sqrt(lrs * math.log(1.0 / eta_star)) if eta_star < 1 else 0.0
    t = constant_envelope_rule(p_star / eta_star, tau_hat)
    chi = _chi_of(params, gaussian_law(t, lrs)[1], p_star)
    kappa = 1.0 / _mp_r(params, chi)
    # back out a representable weight pair when the branch geometry allows it
    if t.tau_hat >= t.radius:
        lam = 0.0
        lam0 = (2.0 * t.tau_hat - t.radius) * t.radius / kappa
    else:
        lam = lam0 = math.nan
    state = ReplicaState(chi=chi, p=p_star, lambda_rs=lrs, kappa=kappa, thresholds=t)
    d = (params.lambda_s + p_star) / (1.0 + chi) ** 2
    sol = ReplicaSolution(state=state, distortion=d, eta=eta_star,
                          papr=t.peak / p_star, residual=0.0, iterations=0)
    return lam, lam0, sol


def _root_of_decreasing(f, target: str) -> float:
    """Root of a decreasing f with f(0) >= 0: at most 200 unit steps up from
    0 to a sign change, then at most 200 regula falsi steps (the secant
    point where it falls in the middle 80% of the bracket, else the
    midpoint) until |f| <= 1e-15 at an end or the bracket is at most
    1e-15 max(1, hi) wide. Returns the end with the smaller |f| (hi on a
    tie). Raises NotAchievableError naming `target` when the steps find no
    sign change and NonFiniteError when f is not finite."""
    def value(x):
        fx = f(x)
        if not math.isfinite(fx):
            raise NonFiniteError(f"f({x}) is non-finite")
        return fx

    hi, fhi = 0.0, value(0.0)
    if fhi == 0.0:
        return hi
    for _ in range(200):
        lo, flo = hi, fhi
        hi, fhi = hi + 1.0, value(hi + 1.0)
        if flo * fhi <= 0:
            break
    else:
        raise NotAchievableError(f"{target} is out of reach: bracket expansion "
                                 "exhausted without a sign change")
    xtol = 1e-15 * max(1.0, hi)
    for _ in range(200):
        if min(abs(flo), abs(fhi)) <= 1e-15 or hi - lo <= xtol:
            break
        x = 0.5 * (lo + hi)
        if fhi != flo:
            xs = hi - fhi * (hi - lo) / (fhi - flo)
            if lo + 0.1 * (hi - lo) < xs < hi - 0.1 * (hi - lo):
                x = xs
        fx = value(x)
        if flo * fx < 0:
            hi, fhi = x, fx
        else:
            lo, flo = x, fx
    return lo if abs(flo) < abs(fhi) else hi


def _invert_targets(params: SystemParams, p_star: float,
                    eta_star: float) -> tuple[float, float]:
    """Penalty weights (lam, lam0) whose replica state has power p_star and
    active fraction eta_star on the support of params.penalty.

    At the target power lambda_rs = (lambda_s + p_star)/alpha, and the
    decoupled law depends on the weights only through b = 1 + kappa lam
    and L0 = kappa lam0, which are the weights of the same prox at unit
    weight. eta_star fixes L0 for each b (eta falls as L0 grows), then
    p_star fixes b (power falls as b grows), and `_chi_of` gives chi and
    kappa = 1/R(-chi). Raises NotAchievableError when the power target
    needs b < 1 (a negative quadratic weight) or no chi is
    self-consistent.
    """
    lrs = (params.lambda_s + p_star) / params.alpha

    def unit(b, l0):
        return thresholds(replace(params.penalty, lam=b - 1.0, lam0=l0), 1.0)

    def l0_for(b):
        if eta_star == 1.0:
            return 0.0
        # on the scale L0 / lambda_rs
        return lrs * _root_of_decreasing(
            lambda u: gaussian_law(unit(b, lrs * u), lrs)[2] - eta_star,
            f"active fraction {eta_star}")

    def power_gap(logb):
        b = math.exp(logb)
        return gaussian_law(unit(b, l0_for(b)), lrs)[0] - p_star

    if power_gap(0.0) < 0:
        raise NotAchievableError(
            f"power {p_star} exceeds the unpenalized decoupled power at "
            f"active fraction {eta_star}")
    b = math.exp(_root_of_decreasing(power_gap, f"power {p_star}"))
    l0 = l0_for(b)
    r = _mp_r(params, _chi_of(params, gaussian_law(unit(b, l0), lrs)[1], p_star))
    return (b - 1.0) * r, l0 * r


_CALIBRATION_TOL = 1e-8


def calibrate(params_base: SystemParams, p_star: float, eta_star: float,
              solver_opts: dict | None = None
              ) -> tuple[float, float, ReplicaSolution]:
    """Penalty weights (lam, lam0) whose fixed point meets the targets
    (p_star, eta_star) on the support of params_base.penalty.

    The weights come from inverting the state equations at the targets
    (`_invert_targets`); one `solve_fixed_point` at them then certifies
    that Picard iteration from the standard start reaches that state.
    Raises NotAchievableError when the targets are infeasible (those
    `_check_targets` rejects, or a power target that needs a negative
    quadratic weight, as on a disk with p > eta * P, or admits no
    self-consistent response) or when the certifying solve misses a target
    by more than _CALIBRATION_TOL. Whether a peak cap binds, and the
    constant-envelope solution (`solve_constant_envelope`) where it does,
    is the caller's decision.
    """
    _check_targets(p_star, eta_star)
    lam, lam0 = _invert_targets(params_base, p_star, eta_star)
    params = replace(params_base,
                     penalty=replace(params_base.penalty, lam=lam, lam0=lam0))
    sol = solve_fixed_point(params, **(solver_opts or {}))
    miss = max(abs(sol.state.p - p_star), abs(sol.eta - eta_star))
    if miss > _CALIBRATION_TOL:
        raise NotAchievableError(
            f"the fixed point at lambda = {lam:.6g}, lambda0 = {lam0:.6g} has "
            f"p = {sol.state.p:.10g}, eta = {sol.eta:.10g}: it misses the "
            f"targets by {miss:.3e}")
    return lam, lam0, sol


def random_tas_baseline(params: SystemParams, eta_r: float,
                        p_star: float) -> ReplicaSolution:
    """Random antenna selection followed by quadratic-penalty precoding.

    A random fraction eta_r of the columns is an i.i.d. channel again, so
    the selected subsystem rescales onto the standard ensemble at load
    alpha/eta_r with data variance lambda_s/eta_r; the quadratic weight is
    calibrated so each selected antenna carries p_star/eta_r, keeping the
    total transmit power at p_star per original antenna. The returned
    distortion, power and active fraction are expressed at full-system
    level. It is the calibrated reference that the closed form of
    `match_random_selection` is tested against.
    """
    if not (0 < eta_r <= 1):
        raise NotAchievableError("selection fraction must lie in (0, 1]")
    sub = SystemParams(alpha=params.alpha / eta_r,
                       lambda_s=params.lambda_s / eta_r,
                       penalty=PenaltySpec())
    _, _, sol = calibrate(sub, p_star / eta_r, 1.0)
    return replace(sol, distortion=eta_r * sol.distortion, eta=eta_r * sol.eta,
                   papr=math.inf)


def match_random_selection(alpha_inverse: float, lambda_s: float,
                           p_target: float, d_target: float) -> float:
    """Selection fraction e at which the random-selection ridge baseline
    (`random_tas_baseline` under Marchenko-Pastur) has distortion d_target.

    The baseline has the closed form D(e) = (lambda_s + p) (1 - sqrt(e p /
    (alpha (lambda_s + p))))^2, falling in e, so e = alpha (lambda_s + p) / p
    * (1 - sqrt(d / (lambda_s + p)))^2. Raises NotAchievableError when
    e > 1 (even full selection is behind the target) or e < alpha p /
    (lambda_s + p), where the power would need a negative ridge weight
    (d_target above the worst feasible distortion lambda_s^2 /
    (lambda_s + p)).
    """
    total = lambda_s + p_target
    shrink = 1.0 - math.sqrt(d_target / total)
    if shrink < p_target / total:
        raise NotAchievableError("no crossing above the feasibility floor")
    eta_r = total * shrink * shrink / (alpha_inverse * p_target)
    if eta_r > 1.0:
        raise NotAchievableError("baseline cannot reach the target distortion")
    return eta_r
