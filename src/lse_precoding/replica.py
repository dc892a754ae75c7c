"""Replica-symmetric fixed point of the penalized least-square precoder in
the large-system limit.

State variables are the pair (chi, p): p is the average transmit power per
antenna and chi the rescaled self-overlap response. From them follow the
decoupled input variance lambda_rs, the prox weight kappa = 1/R(-chi), the
thresholds of the scalar prox, and the observables (distortion, active
fraction, peak-to-average ratio).

Two interchangeable update paths are provided: closed forms for the shipped
penalty family and a quadrature path that evaluates the decoupled-symbol
expectations directly; they agree to quadrature accuracy, which is one of
the package's cross-checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .numerics import (RandomStream, complex_normal, expand_bracket,
                       find_root_1d, q_function, radial_expectation,
                       NoSignChangeError)
from .penalty import PenaltySpec, Support, ThresholdSet, prox_array, thresholds
from .spectral import (InvalidStateError, RTransform, asymptotic_distortion,
                       lambda_rs, marcenko_pastur)


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
    """Large-system description: load alpha = k/n, data variance lambda_s,
    per-antenna penalty, and the channel Gramian's R-transform."""

    alpha: float
    lambda_s: float
    penalty: PenaltySpec
    rtransform: RTransform = None

    def __post_init__(self):
        if self.alpha <= 0 or self.lambda_s <= 0:
            raise ValueError("alpha and lambda_s must be positive")
        if self.rtransform is None:
            object.__setattr__(self, "rtransform", marcenko_pastur(self.alpha))
        elif abs(self.rtransform.load - self.alpha) > 1e-12:
            raise ValueError("rtransform.load must equal alpha")


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


def make_state(params: SystemParams, chi: float, p: float) -> ReplicaState:
    """Derive the dependent state variables from (chi, p)."""
    lrs = lambda_rs(params.rtransform, chi, p, params.lambda_s)
    r = params.rtransform.evaluate(chi)
    if r <= 0:
        raise InvalidStateError(f"R(-chi) = {r} not positive at chi={chi}")
    kappa = 1.0 / r
    return ReplicaState(chi=chi, p=p, lambda_rs=lrs, kappa=kappa,
                        thresholds=thresholds(params.penalty, kappa))


def _interval_moment2(lo: float, hi: float, lrs: float) -> float:
    """E[r^2 1{lo <= r <= hi}] for r Rayleigh with E r^2 = lrs."""
    lo_term = (lrs + lo * lo) * math.exp(-lo * lo / lrs)
    hi_term = 0.0 if math.isinf(hi) else (lrs + hi * hi) * math.exp(-hi * hi / lrs)
    return lo_term - hi_term


def _upper_moment1(lo: float, lrs: float) -> float:
    """E[r 1{r >= lo}] for the same Rayleigh law."""
    return (lo * math.exp(-lo * lo / lrs)
            + math.sqrt(math.pi * lrs) * q_function(lo * math.sqrt(2.0 / lrs)))


def _closed_moments(spec: PenaltySpec, t: ThresholdSet, c: float,
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
        peak = spec.support.peak_power
        e_hat = math.exp(-t.tau_hat ** 2 / lrs)
        p += peak * e_hat
        num += math.sqrt(peak) * _upper_moment1(t.tau_hat, lrs)
    return p, num / lrs


def _quadrature_moments(spec: PenaltySpec, t: ThresholdSet, c: float,
                        lrs: float) -> tuple[float, float]:
    """Same expectations via threshold-aligned radial quadrature.

    Phase equivariance of the prox makes both integrands radial, so the
    complex Gaussian expectation reduces to one radial integral per moment.
    """
    b = 1.0 + c * spec.lam
    breaks = [x for x in (t.tau, t.tau_tilde, t.tau_hat) if math.isfinite(x)]

    def mag(r):
        return np.abs(prox_array(spec, np.asarray(r, dtype=complex), c))

    if spec.is_disk:
        tail_p = (spec.support.peak_power, 0.0, 0.0)
        tail_m = (0.0, math.sqrt(spec.support.peak_power), 0.0)
    else:
        tail_p = (0.0, 0.0, 1.0 / (b * b))
        tail_m = (0.0, 0.0, 1.0 / b)
    p = radial_expectation(lambda r: mag(r) ** 2, lrs,
                           breakpoints=breaks, tail=tail_p)
    num = radial_expectation(lambda r: mag(r) * np.asarray(r, dtype=float), lrs,
                             breakpoints=breaks, tail=tail_m)
    return p, num / lrs


def fixed_point_update(params: SystemParams, state: ReplicaState,
                       method: str = "closed") -> tuple[float, float]:
    """One update (p_new, chi_new) of the fixed-point map at `state`.

    p_new is the decoupled second moment; chi_new = kappa * E Re{x* s}/lrs
    with kappa and lrs frozen at the current state. method "closed" uses the
    exact branch moments of the shipped penalty family, "quadrature"
    integrates the prox directly; the two agree to quadrature accuracy.
    """
    spec = params.penalty
    if method == "closed":
        p_new, m = _closed_moments(spec, state.thresholds, state.kappa, state.lambda_rs)
    elif method == "quadrature":
        p_new, m = _quadrature_moments(spec, state.thresholds, state.kappa, state.lambda_rs)
    else:
        raise ValueError(f"unknown update method {method!r}")
    return p_new, state.kappa * m


def eta_of_state(spec: PenaltySpec, state: ReplicaState) -> float:
    """Asymptotic active-antenna fraction P{x != 0} from the branch masses."""
    t = state.thresholds
    lrs = state.lambda_rs
    if not spec.is_disk:
        return math.exp(-t.tau ** 2 / lrs)
    eta = math.exp(-t.tau_hat ** 2 / lrs)
    if t.tau <= t.tau_tilde:
        eta += math.exp(-t.tau ** 2 / lrs) - math.exp(-t.tau_tilde ** 2 / lrs)
    return eta


def papr_of_state(spec: PenaltySpec, state: ReplicaState) -> float:
    """Peak power over average transmit power; infinite without a peak cap."""
    if not spec.is_disk or state.p <= 0:
        return math.inf
    return spec.support.peak_power / state.p


def _finalize(params: SystemParams, state: ReplicaState, residual: float,
              iterations: int, alternates=()) -> ReplicaSolution:
    d = asymptotic_distortion(params.rtransform, state.chi, state.p,
                              params.lambda_s, params.alpha)
    return ReplicaSolution(state=state, distortion=d,
                           eta=eta_of_state(params.penalty, state),
                           papr=papr_of_state(params.penalty, state),
                           residual=residual, iterations=iterations,
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
        p_new, chi_new = fixed_point_update(params, state)
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
        try:
            state = make_state(params, chi, p)
        except OverflowError as exc:
            # chi runs off to infinity when no fixed point exists (e.g. no
            # penalty with more antennas than users)
            raise NoConvergenceError(
                f"fixed-point iterate overflowed at chi = {chi:.3e}",
                state=state, residual=residual) from exc
    return None, residual, max_iter


def solve_fixed_point(params: SystemParams, damping: float = 0.5,
                      tol: float = 1e-12, max_iter: int = 100_000) -> ReplicaSolution:
    """Damped Picard iteration of the closed-form fixed-point map from
    (chi, p) = (1, lambda_s) until max(|dp|, |dchi|) <= tol.

    On failure from that start the solver retries from a fixed log-grid of
    starting points; all distinct fixed points found are reported (smallest
    distortion first, the rest attached as alternates) since the ansatz can
    admit several solutions. Raises NoConvergenceError when no start
    converges, or when an iterate overflows (the OverflowError is its cause).
    """
    init = (1.0, params.lambda_s)
    state, residual, its = _iterate(params, init, damping, tol, max_iter)
    if state is not None:
        return _finalize(params, state, residual, its)

    found = []
    for start in _RETRY_INITS:
        try:
            st, res, it2 = _iterate(params, start, damping, tol, max_iter)
        except InvalidStateError:
            continue
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


def decoupled_sample(state: ReplicaState, penalty: PenaltySpec,
                     stream: RandomStream, count: int) -> np.ndarray:
    """Draw the decoupled precoded symbol: prox of a complex Gaussian of
    variance lambda_rs at weight kappa. Deterministic given the stream."""
    rng = stream.generator()
    s = complex_normal(rng, count, state.lambda_rs)
    return prox_array(penalty, s, state.kappa)


# ---------------------------------------------------------------------------
# calibration to target constraints
# ---------------------------------------------------------------------------

def _with_penalty(params: SystemParams, lam: float, lam0: float,
                  support: Support) -> SystemParams:
    return replace(params, penalty=PenaltySpec(lam=lam, lam0=lam0, support=support))


def _solve_lambda_for_power(params: SystemParams, lam0: float, support: Support,
                            p_star: float, solver_opts: dict) -> float:
    """1-d search on log lambda driving the solved power to p_star.

    Power decreases in lambda; the bracket is grown geometrically from
    lambda = 1.
    """
    def g(loglam):
        sol = solve_fixed_point(_with_penalty(params, math.exp(loglam), lam0, support),
                                **solver_opts)
        return sol.state.p - p_star

    f0 = g(0.0)
    if f0 == 0.0:
        return 1.0
    # power decreases in lam: walk the log axis toward the sign change
    step = 1.0 if f0 > 0 else -1.0
    try:
        lo, hi = expand_bracket(g, 0.0, step, max_expand=60)
    except NoSignChangeError as exc:
        raise NotAchievableError(
            "power target unreachable by the quadratic weight") from exc
    return math.exp(find_root_1d(g, lo, hi, tol=1e-10, xtol=1e-13))


def solve_constant_envelope(params: SystemParams, p_star: float,
                            eta_star: float
                            ) -> tuple[ReplicaSolution, float, float]:
    """Boundary solution where every active antenna transmits at the peak.

    Feasibility of a disk penalty requires p <= eta * P; on that boundary
    the shrink branch is empty, the peak is P = p_star / eta_star, and the
    active fraction pins the rim threshold directly: eta = exp(-tau_hat^2 /
    lambda_rs). The remaining self-consistency in chi is solved in closed
    form for Marchenko-Pastur and by root finding otherwise; raises
    NoConvergenceError when that iteration has not settled after 200 passes.
    """
    if not (0 < eta_star <= 1):
        raise NotAchievableError("eta target must lie in (0, 1]")
    peak = p_star / eta_star
    lrs = None
    # lambda_rs depends only on p for Marchenko-Pastur; iterate for generic
    # ensembles where it depends on chi as well
    rt = params.rtransform
    chi = 1.0
    for _ in range(200):
        lrs = lambda_rs(rt, chi, p_star, params.lambda_s)
        tau_hat = math.sqrt(lrs * math.log(1.0 / eta_star)) if eta_star < 1 else 0.0
        m = math.sqrt(peak) * _upper_moment1(tau_hat, lrs) / lrs

        def h(x):
            return x * rt.evaluate(x) - m

        try:
            lo, hi = expand_bracket(h, 0.0, 1.0, max_expand=200)
            chi_new = find_root_1d(h, lo, hi, tol=1e-14, xtol=1e-14)
        except NoSignChangeError:
            raise NotAchievableError(
                "no self-consistent response for the constant-envelope boundary")
        step = abs(chi_new - chi)
        settled = step <= 1e-13 * max(1.0, abs(chi))
        chi = chi_new
        if settled:
            break
    else:
        raise NoConvergenceError(
            f"constant-envelope response did not settle (last step {step:.3e})",
            residual=step)
    kappa = 1.0 / rt.evaluate(chi)
    # back out a representable weight pair when the branch geometry allows it
    if tau_hat >= math.sqrt(peak):
        lam = 0.0
        lam0 = (2.0 * tau_hat - math.sqrt(peak)) * math.sqrt(peak) / kappa
    else:
        lam = math.nan
        lam0 = math.nan
    t = ThresholdSet(tau=tau_hat, tau_tilde=tau_hat, tau_hat=tau_hat)
    state = ReplicaState(chi=chi, p=p_star, lambda_rs=lrs, kappa=kappa, thresholds=t)
    d = asymptotic_distortion(rt, chi, p_star, params.lambda_s, params.alpha)
    sol = ReplicaSolution(state=state, distortion=d, eta=eta_star,
                          papr=peak / p_star, residual=0.0, iterations=0)
    return sol, lam, lam0


_CALIBRATION_TOL = 1e-8


def calibrate(params_base: SystemParams, p_star: float, eta_star: float,
              papr_star: float | None = None, solver_opts: dict | None = None
              ) -> tuple[float, float, ReplicaSolution]:
    """Find penalty weights (lam, lam0) whose fixed point meets the targets
    (p_star, eta_star) to within _CALIBRATION_TOL, optionally under a
    peak-power cap P = papr_star * p_star.

    eta_star = 1 forces lam0 = 0 and reduces to a 1-d solve. Otherwise a
    damped Newton iteration runs on (log lam, log lam0) with a
    finite-difference Jacobian, falling back to nested bisection. Raises
    NotAchievableError when the peak cap makes the targets infeasible
    (p <= eta * P is a hard bound); the exact boundary papr_star = 1/eta_star
    is dispatched to the constant-envelope solve.
    """
    solver_opts = dict(solver_opts or {})
    if not (0 < eta_star <= 1):
        raise NotAchievableError("eta target must lie in (0, 1]")
    if p_star <= 0:
        raise NotAchievableError("power target must be positive")

    if papr_star is None:
        support = params_base.penalty.support
    else:
        if papr_star < 1:
            raise NotAchievableError("peak-to-average ratio below one")
        peak = papr_star * p_star
        bound = eta_star * peak
        if bound < p_star * (1 - 1e-9):
            raise NotAchievableError(
                f"power {p_star} exceeds the peak-cap bound eta*P = {bound}")
        if bound <= p_star * (1 + 1e-9):
            sol, lam, lam0 = solve_constant_envelope(params_base, p_star, eta_star)
            return lam, lam0, sol
        support = Support.disk(peak)

    if eta_star == 1.0:
        lam = _solve_lambda_for_power(params_base, 0.0, support, p_star, solver_opts)
        sol = solve_fixed_point(_with_penalty(params_base, lam, 0.0, support),
                                **solver_opts)
        return lam, 0.0, sol

    def residuals(u):
        sol = solve_fixed_point(
            _with_penalty(params_base, math.exp(u[0]), math.exp(u[1]), support),
            **solver_opts)
        return np.array([sol.state.p - p_star, sol.eta - eta_star]), sol

    try:
        u = _newton_init(params_base, support, p_star, eta_star, solver_opts)
        u, sol = _damped_newton(residuals, u, _CALIBRATION_TOL)
    except (NoConvergenceError, InvalidStateError, NoSignChangeError,
            NotAchievableError, np.linalg.LinAlgError):
        sol = None
    if sol is None:
        u, sol = _nested_bisection(params_base, support, p_star, eta_star,
                                   solver_opts, _CALIBRATION_TOL)
    return math.exp(u[0]), math.exp(u[1]), sol


def _newton_init(params, support, p_star, eta_star, solver_opts):
    """Starting point: the lam of the power-only solve, and a lam0 matched
    to the drop threshold the target active fraction implies there."""
    lam = _solve_lambda_for_power(params, 0.0, support, p_star, solver_opts)
    sol = solve_fixed_point(_with_penalty(params, lam, 0.0, support), **solver_opts)
    st = sol.state
    tau2 = st.lambda_rs * math.log(1.0 / eta_star)
    lam0 = tau2 / (st.kappa * (1.0 + st.kappa * lam))
    return np.array([math.log(lam), math.log(max(lam0, 1e-12))])


def _damped_newton(residuals, u, tol, max_steps=60, fd_step=1e-4):
    f, sol = residuals(u)
    for _ in range(max_steps):
        if np.max(np.abs(f)) <= tol:
            return u, sol
        jac = np.empty((2, 2))
        for j in range(2):
            du = np.zeros(2)
            du[j] = fd_step
            fj, _ = residuals(u + du)
            jac[:, j] = (fj - f) / fd_step
        step = np.linalg.solve(jac, -f)
        # backtrack until the residual norm decreases
        scale = 1.0
        base = np.linalg.norm(f)
        for _ in range(12):
            try:
                f_new, sol_new = residuals(u + scale * step)
            except (NoConvergenceError, InvalidStateError):
                scale *= 0.5
                continue
            if np.linalg.norm(f_new) < base:
                break
            scale *= 0.5
        else:
            raise NoConvergenceError("newton stalled", state=None, residual=base)
        u = u + scale * step
        f, sol = f_new, sol_new
    if np.max(np.abs(f)) <= tol:
        return u, sol
    raise NoConvergenceError("newton did not reach tolerance",
                             state=None, residual=float(np.max(np.abs(f))))


def _nested_bisection(params, support, p_star, eta_star, solver_opts, tol):
    """Outer 1-d solve on log lam0 driving eta, inner power solve on lam."""
    def eta_err(loglam0):
        lam0 = math.exp(loglam0)
        try:
            lam = _solve_lambda_for_power(params, lam0, support, p_star, solver_opts)
        except (NotAchievableError, NoSignChangeError):
            return -eta_star  # lam0 so large the power target is unreachable
        sol = solve_fixed_point(_with_penalty(params, lam, lam0, support),
                                **solver_opts)
        return sol.eta - eta_star

    e0 = eta_err(0.0)
    # active fraction decreases in lam0
    step = 1.0 if e0 > 0 else -1.0
    lo, hi = expand_bracket(eta_err, 0.0, step, max_expand=60)
    x0 = find_root_1d(eta_err, lo, hi, tol=tol * 0.1, xtol=1e-13)
    lam0 = math.exp(x0)
    lam = _solve_lambda_for_power(params, lam0, support, p_star, solver_opts)
    sol = solve_fixed_point(_with_penalty(params, lam, lam0, support), **solver_opts)
    if max(abs(sol.state.p - p_star), abs(sol.eta - eta_star)) > tol:
        raise NotAchievableError("nested bisection missed the calibration tolerance")
    return np.array([math.log(lam), math.log(lam0)]), sol


def random_tas_baseline(params: SystemParams, eta_r: float, p_star: float,
                        solver_opts: dict | None = None) -> ReplicaSolution:
    """Random antenna selection followed by quadratic-penalty precoding.

    A random fraction eta_r of the columns is an i.i.d. channel again, so
    the selected subsystem rescales onto the standard ensemble at load
    alpha/eta_r with data variance lambda_s/eta_r; the quadratic weight is
    calibrated so each selected antenna carries p_star/eta_r, keeping the
    total transmit power at p_star per original antenna. The returned
    distortion, power and active fraction are expressed at full-system
    level.
    """
    if not (0 < eta_r <= 1):
        raise NotAchievableError("selection fraction must lie in (0, 1]")
    solver_opts = dict(solver_opts or {})
    sub = SystemParams(alpha=params.alpha / eta_r,
                       lambda_s=params.lambda_s / eta_r,
                       penalty=PenaltySpec(support=Support.full_plane()))
    p_active = p_star / eta_r
    lam = _solve_lambda_for_power(sub, 0.0, Support.full_plane(), p_active,
                                  solver_opts)
    sol = solve_fixed_point(_with_penalty(sub, lam, 0.0, Support.full_plane()),
                            **solver_opts)
    d_full = eta_r * sol.distortion
    return replace(sol, distortion=d_full, eta=eta_r * sol.eta,
                   papr=math.inf)
