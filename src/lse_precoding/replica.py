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
`decoupled_sample` draws it.

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

from .numerics import RandomStream, complex_normal, expand_bracket, find_root_1d
from .penalty import (PenaltySpec, Support, ThresholdSet, constant_envelope_rule,
                      gaussian_law, prox_array, thresholds)


class NoConvergenceError(RuntimeError):
    """Fixed-point iteration did not converge; carries the last state."""

    def __init__(self, message, state=None, residual=None):
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
    alternates: tuple = ()


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
              iterations: int, alternates=()) -> ReplicaSolution:
    d = (params.lambda_s + state.p) / (1.0 + state.chi) ** 2
    papr = math.inf if state.p <= 0 else state.thresholds.peak / state.p
    return ReplicaSolution(state=state, distortion=d,
                           eta=gaussian_law(state.thresholds, state.lambda_rs)[2],
                           papr=papr, residual=residual, iterations=iterations,
                           alternates=tuple(alternates))


_RETRY_INITS = ((0.1, 0.1), (0.1, 1.0), (0.1, 10.0), (1.0, 0.1),
                (1.0, 10.0), (10.0, 0.1), (10.0, 1.0), (10.0, 10.0))


def _iterate(params: SystemParams, init: tuple[float, float], damping: float,
             tol: float, max_iter: int):
    chi, p = init
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
            return state, residual, it
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
    return None, residual, max_iter


def solve_fixed_point(params: SystemParams, damping: float = 0.5,
                      tol: float = 1e-12, max_iter: int = 100_000) -> ReplicaSolution:
    """Damped Picard iteration of the closed-form fixed-point map from
    (chi, p) = (1, lambda_s) until max(|dp|, |dchi|) <= tol.

    On failure from that start the solver retries from a fixed log-grid of
    starting points; all distinct fixed points found are reported (smallest
    distortion first, the rest attached as alternates) since the ansatz can
    admit several solutions. Raises NoConvergenceError when no start
    converges, or as soon as an iterate is not finite.
    """
    init = (1.0, params.lambda_s)
    state, residual, its = _iterate(params, init, damping, tol, max_iter)
    if state is not None:
        return _finalize(params, state, residual, its)

    found = []
    for start in _RETRY_INITS:
        st, res, it2 = _iterate(params, start, damping, tol, max_iter)
        if st is not None:
            if all(max(abs(st.chi - o[0].chi), abs(st.p - o[0].p)) > 1e-6
                   for o in found):
                found.append((st, res, it2))
    if not found:
        raise NoConvergenceError(
            f"no fixed point after {max_iter} iterations (last residual {residual:.3e})",
            state=make_state(params, *init), residual=residual)
    solutions = [_finalize(params, st, res, it2) for st, res, it2 in found]
    solutions.sort(key=lambda s: s.distortion)
    best = solutions[0]
    return replace(best, alternates=tuple(solutions[1:]))


def decoupled_sample(state: ReplicaState, stream: RandomStream,
                     count: int) -> np.ndarray:
    """Draw the decoupled precoded symbol: the state's prox rule applied to
    a complex Gaussian of variance lambda_rs. Deterministic given the
    stream."""
    rng = stream.generator()
    s = complex_normal(rng, count, state.lambda_rs)
    return prox_array(state.thresholds, s)


# ---------------------------------------------------------------------------
# calibration to target constraints
# ---------------------------------------------------------------------------

def _response(params: SystemParams, p: float, decoupled):
    """Self-consistent response at power p: chi solves chi R(-chi) = m,
    where (m, extra) = decoupled(lambda_rs) and m = E Re{x* s}/lambda_rs of
    the decoupled symbol at unit prox weight.

    Under Marchenko-Pastur lambda_rs = (lambda_s + p)/alpha depends on p
    only and chi R(-chi) = alpha chi/(1 + chi), so chi = m/(alpha - m).
    Returns (chi, lambda_rs, extra). Raises NotAchievableError when
    m >= alpha, the supremum of chi R(-chi).
    """
    lrs = (params.lambda_s + p) / params.alpha
    m, extra = decoupled(lrs)
    if m >= params.alpha:
        raise NotAchievableError(
            f"no response chi solves chi R(-chi) = {m:.6g} at power {p}")
    return m / (params.alpha - m), lrs, extra


def solve_constant_envelope(params: SystemParams, p_star: float,
                            eta_star: float
                            ) -> tuple[ReplicaSolution, float, float]:
    """Boundary solution where every active antenna transmits at the peak.

    Feasibility of a disk penalty requires p <= eta * P; on that boundary
    the shrink branch is empty, the peak is P = p_star / eta_star, and the
    active fraction pins the rim threshold directly: eta = exp(-tau_hat^2 /
    lambda_rs). The remaining self-consistency in chi is `_response`.
    """
    if not (0 < eta_star <= 1):
        raise NotAchievableError("eta target must lie in (0, 1]")

    def rim(lrs):
        tau_hat = math.sqrt(lrs * math.log(1.0 / eta_star)) if eta_star < 1 else 0.0
        t = constant_envelope_rule(p_star / eta_star, tau_hat)
        return gaussian_law(t, lrs)[1], t

    chi, lrs, t = _response(params, p_star, rim)
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
    return sol, lam, lam0


def _root_of_decreasing(f) -> float:
    """Root of a decreasing f with f(0) >= 0: unit steps up from 0 to the
    sign change, then bisection down to rounding."""
    lo, hi = expand_bracket(f, 0.0, 1.0)
    return find_root_1d(f, lo, hi, tol=1e-15, xtol=1e-15 * max(1.0, hi))


def _invert_targets(params: SystemParams, support: Support, p_star: float,
                    eta_star: float) -> tuple[float, float]:
    """Penalty weights (lam, lam0) whose replica state has power p_star and
    active fraction eta_star.

    At a given lambda_rs the decoupled law depends on the weights only
    through b = 1 + kappa lam and L0 = kappa lam0, which are the weights
    of the same prox at unit weight. eta_star fixes L0 for each b (eta
    falls as L0 grows), then p_star fixes b (power falls as b grows), and
    `_response` gives chi and kappa = 1/R(-chi). Raises NotAchievableError
    when the power target needs b < 1 (a negative quadratic weight) or no
    chi is self-consistent.
    """
    def unit(b, l0):
        return thresholds(PenaltySpec(lam=b - 1.0, lam0=l0, support=support), 1.0)

    def decoupled(lrs):
        def l0_for(b):
            if eta_star == 1.0:
                return 0.0
            # on the scale L0 / lambda_rs
            return lrs * _root_of_decreasing(
                lambda u: gaussian_law(unit(b, lrs * u), lrs)[2] - eta_star)

        def power_gap(logb):
            b = math.exp(logb)
            return gaussian_law(unit(b, l0_for(b)), lrs)[0] - p_star

        if power_gap(0.0) < 0:
            raise NotAchievableError(
                f"power {p_star} exceeds the unpenalized decoupled power at "
                f"active fraction {eta_star}")
        b = math.exp(_root_of_decreasing(power_gap))
        l0 = l0_for(b)
        return gaussian_law(unit(b, l0), lrs)[1], (b, l0)

    chi, _, (b, l0) = _response(params, p_star, decoupled)
    r = _mp_r(params, chi)
    return (b - 1.0) * r, l0 * r


_CALIBRATION_TOL = 1e-8


def peak_cap_boundary(p_star: float, eta_star: float,
                      papr_star: float | None) -> float | None:
    """Power of the constant-envelope solution when the peak cap
    P = papr_star * p_star binds, else None. The bound p <= eta * P is
    hard: past it the targets are infeasible and the boundary transmits
    eta * P; within 1e-9 relative of it the target is on the boundary and
    the power is p_star. Raises NotAchievableError for an eta target
    outside (0, 1], a power target <= 0 or a peak ratio below one."""
    if not (0 < eta_star <= 1):
        raise NotAchievableError("eta target must lie in (0, 1]")
    if p_star <= 0:
        raise NotAchievableError("power target must be positive")
    if papr_star is None:
        return None
    if papr_star < 1:
        raise NotAchievableError("peak-to-average ratio below one")
    bound = eta_star * papr_star * p_star
    if bound > p_star * (1 + 1e-9):
        return None
    return bound if bound < p_star * (1 - 1e-9) else p_star


def calibrate(params_base: SystemParams, p_star: float, eta_star: float,
              papr_star: float | None = None, solver_opts: dict | None = None
              ) -> tuple[float, float, ReplicaSolution]:
    """Penalty weights (lam, lam0) whose fixed point meets the targets
    (p_star, eta_star), optionally under a peak-power cap
    P = papr_star * p_star.

    The weights come from inverting the state equations at the targets
    (`_invert_targets`); one `solve_fixed_point` at them then certifies
    that Picard iteration from the standard start reaches that state.
    Raises NotAchievableError when the targets are infeasible (those
    `peak_cap_boundary` rejects, a peak cap with p > eta * P, or a power
    target that needs a negative quadratic weight or admits no
    self-consistent response) or when the certifying solve misses a target
    by more than _CALIBRATION_TOL. A target on the boundary p = eta * P is
    dispatched to the constant-envelope solve.
    """
    solver_opts = dict(solver_opts or {})
    bound = peak_cap_boundary(p_star, eta_star, papr_star)
    if bound is not None:
        if bound < p_star:
            raise NotAchievableError(
                f"power {p_star} exceeds the peak-cap bound eta*P = {bound}")
        sol, lam, lam0 = solve_constant_envelope(params_base, p_star, eta_star)
        return lam, lam0, sol
    support = params_base.penalty.support if papr_star is None \
        else Support.disk(papr_star * p_star)

    lam, lam0 = _invert_targets(params_base, support, p_star, eta_star)
    sol = solve_fixed_point(
        replace(params_base, penalty=PenaltySpec(lam=lam, lam0=lam0, support=support)),
        **solver_opts)
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
                       penalty=PenaltySpec(support=Support.full_plane()))
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
