import math
import os

import numpy as np
import pytest

from lse_precoding import cli, simulator
from lse_precoding.experiments import _mean_ci95
from lse_precoding.numerics import RandomStream
from lse_precoding.penalty import OutOfSupportError, PenaltySpec, thresholds
from lse_precoding.simulator import (TRIAL_COLUMNS, PrecodeProblem,
                                     PrecodeResult, _ccd_from, _clip_to_support,
                                     _objective, _trial_workers,
                                     _warm_start, generate_problem,
                                     measure, monte_carlo, precode_ccd)
from oracles import (exact_full_plane_minimum, penalty_value, precode_rzf, prox,
                     prox_scalar, random_tas_rzf)


def stats(row):
    """A `measure` row by its TRIAL_COLUMNS names."""
    return dict(zip(TRIAL_COLUMNS, row.tolist()))


def small_problem(seed=3, n=48, k=24, lam=0.1, lam0=0.0, peak=None, lam_s=1.0):
    spec = PenaltySpec(lam=lam, lam0=lam0, peak_power=peak)
    return generate_problem(n, k, lam_s, spec, RandomStream(seed, 0))


# ---------------------------------------------------------------------------
# problem generation
# ---------------------------------------------------------------------------

def test_generate_moments():
    rng_trials = 40
    s_pow, h_pow = [], []
    n, k, lam_s = 64, 32, 1.7
    for t in range(rng_trials):
        pr = generate_problem(n, k, lam_s, PenaltySpec(), RandomStream(88, t))
        s_pow.append(np.vdot(pr.s, pr.s).real / k)
        h_pow.append(np.linalg.norm(pr.H, "fro") ** 2)
    assert np.mean(s_pow) == pytest.approx(lam_s, abs=3 * lam_s / math.sqrt(k * rng_trials))
    assert np.mean(h_pow) == pytest.approx(k, rel=0.05)


def test_generate_deterministic():
    a = generate_problem(16, 8, 1.0, PenaltySpec(), RandomStream(5, 9))
    b = generate_problem(16, 8, 1.0, PenaltySpec(), RandomStream(5, 9))
    assert np.array_equal(a.H, b.H) and np.array_equal(a.s, b.s)


def test_generate_validates_sizes():
    with pytest.raises(ValueError):
        generate_problem(0, 4, 1.0, PenaltySpec(), RandomStream(1, 0))


# ---------------------------------------------------------------------------
# ridge precoder
# ---------------------------------------------------------------------------

def test_rzf_scalar_case():
    x = precode_rzf(np.array([[1.0 + 0j]]), np.array([2.0 + 0j]), 1.0)
    assert x[0] == pytest.approx(1.0 + 0j)


def test_rzf_normal_equation_residual():
    pr = small_problem(seed=11)
    lam = 0.5
    x = precode_rzf(pr.H, pr.s, lam)
    A = pr.H @ pr.H.conj().T + lam * np.eye(pr.k)
    y = np.linalg.solve(A, pr.s)  # x = H^H y
    assert np.linalg.norm(A @ y - pr.s) <= 1e-10 * np.linalg.norm(pr.s)
    assert np.allclose(x, pr.H.conj().T @ y)


def test_rzf_large_weight_asymptote():
    pr = small_problem(seed=12)
    lam = 1e8
    x = precode_rzf(pr.H, pr.s, lam)
    assert np.allclose(x, pr.H.conj().T @ pr.s / lam, rtol=1e-6)


def test_rzf_singular_without_weight():
    # k > n makes H H^H rank deficient
    pr = generate_problem(4, 8, 1.0, PenaltySpec(), RandomStream(2, 0))
    with pytest.raises(np.linalg.LinAlgError):
        precode_rzf(pr.H, pr.s, 0.0)


# ---------------------------------------------------------------------------
# coordinate descent
# ---------------------------------------------------------------------------

def test_ccd_scalar_instance():
    pr = PrecodeProblem(H=np.array([[1.0 + 0j]]), s=np.array([2.0 + 0j]),
                        penalty=PenaltySpec(lam=1.0))
    res = precode_ccd(pr)
    assert res.x[0] == pytest.approx(1.0 + 0j, abs=1e-12)
    assert res.objective == pytest.approx(2.0, abs=1e-12)


def test_ccd_from_zero_reaches_ridge_solution():
    # convex case: descent from a cold start must find the unique minimizer;
    # the floor is sqrt(eps * objective / strong-convexity) ~ 6e-8 here, set
    # by float64 resolution of the recomputed objective
    pr = small_problem(seed=13)
    res = _ccd_from(pr, np.zeros(pr.n, dtype=complex), 4000, 1e-16)
    ref = precode_rzf(pr.H, pr.s, 0.1)
    assert np.linalg.norm(res.x - ref) / np.linalg.norm(ref) <= 2e-7


def test_ccd_exact_interpolation_when_underloaded():
    pr = small_problem(seed=14, n=64, k=16, lam=0.0)
    res = precode_ccd(pr, max_sweeps=4000, tol=0.0)
    distortion = np.linalg.norm(pr.s - pr.H @ res.x) ** 2 / pr.k
    assert distortion <= 1e-12


def test_ccd_objective_tracking_invariants():
    # the blocked reference tracks the objective step by step on the very
    # iterates the package returns: no prox step raises it, the residual
    # carried through a sweep ends near the true one, and the tracked value
    # ends at the recomputed one; from the package's own start (one sweep
    # here) and from zero (many)
    pr = small_problem(seed=15, n=64, k=32, lam=0.1, lam0=0.05)
    zero = np.zeros(pr.n, dtype=complex)
    for x0 in (precode_ccd(pr, max_sweeps=0).x, zero):
        res = _ccd_from(pr, x0, 500, 1e-10)
        ref, max_inc, tracked, drift = _blocked_reference_ccd_from(pr, x0, 500, 1e-10)
        assert res.x.tobytes() == ref.x.tobytes() and res.sweeps == ref.sweeps
        scale = max(1.0, abs(res.objective))
        assert max_inc <= 1e-12 * scale
        assert drift <= 1e-8 * np.linalg.norm(pr.s)
        assert tracked == pytest.approx(res.objective, rel=1e-8)
    assert res.sweeps > 10


@pytest.mark.parametrize("peak", [None, 0.6])
def test_objective_matches_fsum_of_terms(peak):
    # the vectorized objective against the correctly rounded sum of the
    # |r_i|^2 and the per-antenna penalties, with exact zeros and (on the
    # disk) points clipped onto the rim among the entries; all 600 terms
    # are non-negative, so any summation order is within 600 eps ~ 7e-14
    # relative of the exact sum
    for seed in range(8):
        pr = small_problem(seed=40 + seed, n=400, k=200, lam=0.37, lam0=0.21,
                           peak=peak)
        rng = RandomStream(40 + seed, 1).generator()
        x = 0.3 * (rng.standard_normal(400) + 1j * rng.standard_normal(400))
        x[rng.random(400) < 0.4] = 0.0
        x = _clip_to_support(pr.penalty, x)
        if peak is not None:
            assert np.any(np.abs(x) == math.sqrt(peak))
        assert np.any(x == 0.0)
        r = pr.s - pr.H @ x
        ref = math.fsum([abs(v) ** 2 for v in r.tolist()]
                        + [penalty_value(pr.penalty, v) for v in x.tolist()])
        assert _objective(pr.penalty, x, r) == pytest.approx(ref, rel=1e-13, abs=0)


def test_objective_rejects_points_outside_the_disk():
    # tolerance 1e-12 on the radius: on the rim and within the tolerance
    # the objective is taken, just beyond it OutOfSupportError is raised
    spec = PenaltySpec(lam=0.2, lam0=0.1, peak_power=0.5)
    radius = math.sqrt(0.5)
    r = np.array([0.3 - 0.1j])
    for a in (radius, radius + 0.5e-12):
        x = np.array([0.0, 0.1j, a * np.exp(0.7j)])
        assert _objective(spec, x, r) == pytest.approx(
            0.1 + 0.2 * (0.01 + a * a) + 0.2, rel=1e-15)
    x = np.array([0.0, 0.1j, (radius + 2e-12) * np.exp(0.7j)])
    with pytest.raises(OutOfSupportError):
        _objective(spec, x, r)


def test_ccd_disk_feasibility():
    peak = 0.4
    pr = small_problem(seed=16, n=48, k=24, lam=0.05, lam0=0.02, peak=peak)
    res = precode_ccd(pr)
    assert np.all(np.abs(res.x) <= math.sqrt(peak) + 1e-12)


@pytest.mark.parametrize("peak", [None, 0.5], ids=["full_plane", "disk"])
@pytest.mark.parametrize("lam0", [0.05, 0.0], ids=["greedy", "ridge"])
def test_ccd_takes_one_start(peak, lam0):
    # with no sweep the result is the start itself, clipped onto a disk; the
    # descent of every run begins there. With lambda0 = 0 it is the ridge
    # solution on every antenna, byte for byte; with lambda0 > 0 it is the
    # ridge solution on the support the explicit greedy reference selects,
    # to rounding, and zero off it
    for seed in range(4):
        pr = small_problem(seed=30 + seed, n=64, k=32, lam=0.1, lam0=lam0,
                           peak=peak)
        H, s, lam = pr.H, pr.s, pr.penalty.lam
        res = precode_ccd(pr, max_sweeps=0)
        assert res.sweeps == 0
        if lam0 == 0:
            x0 = _clip_to_support(pr.penalty, precode_rzf(H, s, lam))
            assert res.x.tobytes() == x0.tobytes()
            continue
        active = _reference_greedy_support(H, s, lam, lam0)
        assert 0 < np.count_nonzero(active) < pr.n
        x0 = np.zeros(pr.n, dtype=complex)
        x0[active] = precode_rzf(H[:, active], s, lam)
        x0 = _clip_to_support(pr.penalty, x0)
        assert np.all(res.x[~active] == 0)
        assert _rel(res.x[active], x0[active]) <= 1e-12


@pytest.mark.parametrize("peak", [None, 0.5], ids=["full_plane", "disk"])
def test_ccd_fixed_point_of_certified_prox(peak):
    # a converged descent leaves every coordinate where oracles.prox (the
    # scalar rule the brute-force oracle certifies) would put it; the value
    # bound is the float64 floor of descent stopped on the recomputed objective,
    # sqrt(eps * objective) ~ 5e-8 here (the disk instance stops at 2.3e-8)
    pr = small_problem(seed=21, n=64, k=32, lam=0.1, lam0=0.05, peak=peak)
    res = precode_ccd(pr, tol=1e-16)
    assert res.converged
    spec = pr.penalty
    r = pr.s - pr.H @ res.x
    g = np.einsum("ij,ij->j", pr.H.conj(), pr.H).real
    fixed = np.array([prox(spec, res.x[j] + np.vdot(pr.H[:, j], r) / g[j], 1.0 / g[j])
                      for j in range(pr.n)])
    assert np.array_equal(fixed == 0, res.x == 0)
    assert np.max(np.abs(fixed - res.x)) <= 1e-7
    # the drop branch is exercised, and on the disk the rim branch as well
    assert 0 < np.count_nonzero(res.x) < pr.n
    if peak is not None:
        assert np.any(np.isclose(np.abs(res.x), math.sqrt(peak), rtol=0, atol=1e-12))


# Reference: the descent loop on numpy scalars, which divides by g_j and
# writes into x in place. The sweep on Python scalars in the package must
# return the same result up to the rounding of h_j^H r.
def _reference_ccd_from(problem: PrecodeProblem, x0: np.ndarray,
                        max_sweeps: int, tol: float) -> PrecodeResult:
    """Exact-prox cyclic descent from x0, each sweep started from the true
    residual s - Hx and stopped when a sweep lowers the objective,
    recomputed from that residual, by at most tol relative."""
    H, s, spec = problem.H, problem.s, problem.penalty
    rows = np.ascontiguousarray(H.T)  # rows[j] is column j of H
    g = np.einsum("ij,ij->j", H.conj(), H).real
    # per usable column j: h_j, g_j = ||h_j||^2, and the prox rule at the
    # coordinate weight c_j = 1/g_j
    columns = []
    for j, gj in enumerate(g.tolist()):
        if gj > 0.0:
            columns.append((j, rows[j], gj, thresholds(spec, 1.0 / gj)))

    x = x0.astype(complex, copy=True)
    r = s - H @ x
    obj = _objective(spec, x, r)
    converged = False
    sweeps = 0
    for sweep in range(max_sweeps):
        for j, hj, gj, t in columns:
            xj = x[j]
            zj = xj + np.vdot(hj, r) / gj
            xn = prox_scalar(zj, abs(zj), t)
            if xn != xj:
                r += hj * (xj - xn)
                x[j] = xn
        sweeps = sweep + 1
        r = s - H @ x
        prev, obj = obj, _objective(spec, x, r)
        if prev - obj <= tol * max(abs(prev), 1e-300):
            converged = True
            break
    return PrecodeResult(x=x, objective=obj, sweeps=sweeps, converged=converged)


def _start(pr: PrecodeProblem, kind: str, rng: np.random.Generator) -> np.ndarray:
    """A start for the descent kernels: the package's own ("greedy"), the
    ridge solution ("rzf"), zero, or ridge on a random support ("random",
    density then mask drawn from rng), clipped onto a disk."""
    if kind == "greedy":
        return precode_ccd(pr, max_sweeps=0).x
    if kind == "zero":
        return np.zeros(pr.n, dtype=complex)
    x = precode_rzf(pr.H, pr.s, pr.penalty.lam)
    if kind == "random":
        density = 0.25 + 0.5 * rng.random()
        x[rng.random(pr.n) >= density] = 0.0
    return _clip_to_support(pr.penalty, x)


def _rel(a, b):
    return float(np.linalg.norm(np.subtract(a, b))
                 / max(np.linalg.norm(b), 1e-300))


@pytest.mark.parametrize("peak", [None, 0.5], ids=["full_plane", "disk"])
def test_ccd_matches_reference(peak):
    # the blocked kernel sums h_j^H r in another order than the reference,
    # so the two agree to rounding, not to the bit: at tol = 1e-10 every
    # decision and count is the same and the values sit ~1e-15 apart; at
    # tol = 1e-16 the stopping sweep is itself decided by rounding, so only
    # convergence and the float64 floor of the minimizer (as in
    # test_ccd_from_zero_reaches_ridge_solution) are held
    for seed in range(6):
        pr = small_problem(seed=40 + seed, n=64, k=32, lam=0.1, lam0=0.05,
                           peak=peak)
        rng = np.random.default_rng(seed)
        for kind, tol in (("greedy", 1e-10), ("rzf", 1e-10), ("zero", 1e-16),
                          ("random", 1e-10)):
            x0 = _start(pr, kind, rng)
            res = _ccd_from(pr, x0, 500, tol)
            ref = _reference_ccd_from(pr, x0, 500, tol)
            if tol == 1e-16:
                assert res.converged and ref.converged
                assert _rel(res.x, ref.x) <= 2e-7
                continue
            for name in ("sweeps", "converged"):
                assert getattr(res, name) == getattr(ref, name), name
            assert np.array_equal(res.x == 0, ref.x == 0)
            assert _rel(res.x, ref.x) <= 1e-13
            assert _rel(res.objective, ref.objective) <= 1e-13


# Reference: the blocked kernel written out on numpy arrays and scalars, one
# Gram product and one h^H r product per block of 16 columns, dividing
# by g_j. The package's sweep on Python scalars must return exactly the same
# result. It also tracks the objective step by step and the residual carried
# through a sweep, which the package does not: it returns the result, the
# largest increase of one prox step, the final tracked objective and the
# largest distance between the residual carried to the end of a sweep and
# the true residual s - Hx there.
def _blocked_reference_ccd_from(problem: PrecodeProblem, x0: np.ndarray,
                                max_sweeps: int, tol: float
                                ) -> tuple[PrecodeResult, float, float, float]:
    H, s, spec = problem.H, problem.s, problem.penalty
    g = np.einsum("ij,ij->j", H.conj(), H).real
    lam, lam0 = spec.lam, spec.lam0

    x = x0.astype(complex, copy=True)
    r = s - H @ x
    obj = tracked = _objective(spec, x, r)
    max_inc = 0.0
    max_drift = 0.0
    converged = False
    sweeps = 0
    for sweep in range(max_sweeps):
        for lo in range(0, problem.n, 16):
            cols = range(lo, min(lo + 16, problem.n))
            Rb = np.ascontiguousarray(H[:, cols].T)
            G = Rb @ Rb.conj().T  # G[p, i] = h_i^H h_p
            q = Rb.conj() @ r     # q[p] = h_p^H r
            delta = np.zeros(len(cols), dtype=complex)
            changed = False
            for p, j in enumerate(cols):
                cj = 1.0 / g[j]
                xj = x[j]
                zj = xj + q[p] / g[j]
                xn = prox_scalar(zj, abs(zj), thresholds(spec, cj))
                if xn != xj:
                    d_pen = (lam * (abs(xn) ** 2 - abs(xj) ** 2)
                             + lam0 * (float(xn != 0.0) - float(xj != 0.0)))
                    d_ls = g[j] * (abs(xn - zj) ** 2 - abs(xj - zj) ** 2)
                    step = d_ls + d_pen
                    tracked += step
                    if step > max_inc:
                        max_inc = step
                    delta[p] = xj - xn
                    for i in range(p + 1, len(cols)):
                        q[i] += G[p, i] * delta[p]
                    x[j] = xn
                    changed = True
            if changed:
                r += delta @ Rb
        sweeps = sweep + 1
        r_true = s - H @ x
        max_drift = max(max_drift, float(np.linalg.norm(r - r_true)))
        r = r_true
        prev, obj = obj, _objective(spec, x, r)
        if prev - obj <= tol * max(abs(prev), 1e-300):
            converged = True
            break
    result = PrecodeResult(x=x, objective=obj, sweeps=sweeps,
                           converged=converged)
    return result, max_inc, tracked, max_drift


@pytest.mark.parametrize("peak", [None, 0.5], ids=["full_plane", "disk"])
def test_ccd_matches_blocked_reference(peak):
    # n = 5 is one short block and 16 one full block; 33 and 37 add a
    # ragged third block (of 1 and 5 columns) to two full ones, and 64 is
    # four full blocks
    fields = ("objective", "sweeps", "converged")
    for n in (5, 16, 33, 37, 64):
        pr = small_problem(seed=60 + n, n=n, k=max(2, n // 2), lam=0.1,
                           lam0=0.05, peak=peak)
        rng = np.random.default_rng(n)
        for kind, tol in (("greedy", 1e-10), ("zero", 1e-16),
                          ("random", 1e-10)):
            x0 = _start(pr, kind, rng)
            res = _ccd_from(pr, x0, 500, tol)
            ref, _, _, _ = _blocked_reference_ccd_from(pr, x0, 500, tol)
            assert res.x.tobytes() == ref.x.tobytes()
            for name in fields:
                assert getattr(res, name) == getattr(ref, name), name


# both points have lambda0 > 0, so their trials reach the descent; the disk
# point's rim branch is the one of the blocked kernel
_OUTPUT_POINTS = {
    "greedy_full_plane": "support = full\np_target = 0.5\neta_target = 0.5\n",
    "disk_eta07_3db": ("support = disk\np_target = 0.5\neta_target = 0.7\n"
                       "papr_db_target = 3.0\n"),
}


@pytest.mark.parametrize("point", sorted(_OUTPUT_POINTS))
def test_outputs_match_reference_kernel(point, tmp_path, monkeypatch):
    # the blocked kernel rounds h_j^H r differently from the column-by-column
    # reference, but no written digit may move; forked trial workers inherit
    # the patched module
    ini = tmp_path / "point.ini"
    ini.write_text("[run]\nseed = 20240\n\n[system]\nalpha_inverse = 2.0\n"
                   "lambda_s = 1.0\n\n[penalty]\n" + _OUTPUT_POINTS[point]
                   + "\n[simulation]\nn = 64\ntrials = 6\n")
    calls = []

    def reference(*args):
        calls.append(1)
        return _reference_ccd_from(*args)

    outputs = {}
    for kernel in ("package", "reference"):
        if kernel == "reference":
            monkeypatch.setattr(simulator, "_ccd_from", reference)
            precode_ccd(small_problem(lam0=0.05))
            assert calls  # precode_ccd reaches the patched kernel
        for mode in ("simulate", "compare"):
            out = tmp_path / kernel / mode
            assert cli.main([mode, "--config", str(ini), "--out", str(out)]) == 0
            outputs[kernel, mode] = {f.name: f.read_bytes() for f in out.iterdir()}
    for mode in ("simulate", "compare"):
        assert len(outputs["package", mode]) == 3
        assert outputs["package", mode] == outputs["reference", mode]


# ---------------------------------------------------------------------------
# accelerated proximal gradient (lambda0 = 0, lambda > 0)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("peak", [None, 0.5], ids=["full_plane", "disk"])
def test_dual_bound_is_a_tight_lower_bound(peak):
    # weak duality: D(w) <= f(x) at random points of the support, for random
    # w over three decades of scale; tightness: D(w) is the Lagrangian
    # 2 Re<w, s - Hx> - ||w||^2 + lam ||x||^2 at its minimiser over the
    # support, x_j = q_j / (2 lam) clipped to the disk with q = 2 H^H w. On
    # the disk |q_j| falls on both sides of 2 lam R, inside and on the rim
    pr = small_problem(seed=24, n=64, k=32, lam=0.1, peak=peak)
    H, s, spec = pr.H, pr.s, pr.penalty
    lam, radius = spec.lam, spec.radius
    rng = np.random.default_rng(24)

    def f(x):
        r = s - H @ x
        return float(np.vdot(r, r).real + lam * np.vdot(x, x).real)

    inside = rim = 0
    for scale in np.logspace(-2, 1, 12):
        w = scale * (rng.standard_normal(pr.k) + 1j * rng.standard_normal(pr.k))
        g = H.conj().T @ w
        bound = simulator._dual_bound(spec, s, w, g)
        q = 2.0 * g
        xhat = _clip_to_support(spec, q / (2.0 * lam))
        lagrangian = (2.0 * np.vdot(w, s - H @ xhat).real - np.vdot(w, w).real
                      + lam * np.vdot(xhat, xhat).real)
        assert bound == pytest.approx(lagrangian, rel=1e-12, abs=1e-12)
        assert bound <= f(xhat) + 1e-12 * abs(f(xhat))
        for _ in range(4):
            x = _clip_to_support(spec, 10.0 ** rng.uniform(-2, 1) * (
                rng.standard_normal(pr.n) + 1j * rng.standard_normal(pr.n)))
            assert bound <= f(x)
        inside += int(np.sum(np.abs(q) <= 2.0 * lam * radius))
        rim += int(np.sum(np.abs(q) > 2.0 * lam * radius))
    assert inside > 0
    assert rim > 0 if peak is not None else rim == 0


# the mc_peak_dense benchmark point: eta = 1, a 3 dB cap at p = 0.5, n = 400,
# k = 200, at its calibrated ridge weight
_PEAK_DENSE = PenaltySpec(lam=0.115692339417, peak_power=10 ** 0.3 * 0.5)


def test_convex_solver_never_above_the_descent():
    # every trial of the mc_peak_dense point at seeds 1, 7 and 777 meets its
    # duality gap, and ends at most 1e-12 relative above the descent from the
    # same start, which its objective-decrease rule stops about 5e-11 above
    # the minimum; the accelerated iteration stopped on that rule instead
    # ends 47 of these 72 trials above the descent, by up to 1.9e-9
    for seed in (1, 7, 777):
        for t in range(24):
            pr = generate_problem(400, 200, 1.0, _PEAK_DENSE, RandomStream(seed, t))
            res = precode_ccd(pr)
            ref = _ccd_from(pr, precode_ccd(pr, max_sweeps=0).x, 500, 1e-10)
            assert res.converged and ref.converged
            assert res.objective <= (1 + 1e-12) * ref.objective


# ---------------------------------------------------------------------------
# greedy support selection
# ---------------------------------------------------------------------------

# Reference: the explicit version, which adds each rank-one term to M^{-1}
# and recomputes w and u from it after every drop. The selection in the
# package, which updates d and u from rows of the antenna Gram matrix, must
# return exactly the same masks.
def _reference_greedy_support(H: np.ndarray, s: np.ndarray, lam: float,
                              lam0: float) -> np.ndarray:
    """Active-set mask from greedy antenna removal with exact ridge deltas.

    For support S the partially minimized objective is
        F(S) = lam s^H (lam I + H_S H_S^H)^{-1} s + lam0 |S|,
    and removing column j changes the quadratic part by
    lam |u_j|^2 / (1 - d_j) with u = H^H M^{-1} s and d_j = h_j^H M^{-1} h_j.
    Columns are dropped while the best delta is negative; M^{-1} is kept by
    rank-one updates and refreshed periodically.
    """
    k, n = H.shape
    active = np.ones(n, dtype=bool)
    eye = np.eye(k)
    M_inv = np.linalg.inv(lam * eye + H @ H.conj().T)
    w = M_inv @ s
    u = H.conj().T @ w
    d = np.einsum("ij,ij->j", H.conj(), M_inv @ H).real
    drops = 0
    while active.sum() > 1:
        act = np.where(active)[0]
        denom = np.maximum(1.0 - d[act], 1e-12)
        delta = lam * np.abs(u[act]) ** 2 / denom - lam0
        i = int(np.argmin(delta))
        if delta[i] >= 0.0:
            break
        j = act[i]
        hj = H[:, j]
        v = M_inv @ hj
        dj = max(1.0 - d[j], 1e-12)
        M_inv = M_inv + np.outer(v, v.conj()) / dj
        active[j] = False
        drops += 1
        if drops % 64 == 0:
            cols = np.where(active)[0]
            Ha = H[:, cols]
            M_inv = np.linalg.inv(lam * eye + Ha @ Ha.conj().T)
        t = H.conj().T @ v
        d = d + (np.abs(t) ** 2) / dj
        w = M_inv @ s
        u = H.conj().T @ w
    return active


def _calibrated_weights(papr_db):
    from lse_precoding.replica import SystemParams, calibrate

    peak = None if papr_db is None else 10.0 ** (papr_db / 10.0) * 0.5
    params = SystemParams(alpha=0.5, lambda_s=1.0, penalty=PenaltySpec(peak_power=peak))
    lam, lam0, _ = calibrate(params, p_star=0.5, eta_star=0.5)
    return lam, lam0


def _support_ridge(pr, mask, lam):
    """The ridge solution on support `mask`, zero off it, from the solve on
    the |S| x |S| Gram matrix, which stays well conditioned when the
    support is smaller than k."""
    Ha = pr.H[:, mask]
    x = np.zeros(pr.n, dtype=complex)
    x[mask] = np.linalg.solve(Ha.conj().T @ Ha + lam * np.eye(Ha.shape[1]),
                              Ha.conj().T @ pr.s)
    return x


def _support_objective(pr, mask, lam, lam0):
    """F(S) at the ridge solution on S."""
    x = _support_ridge(pr, mask, lam)
    r = pr.s - pr.H @ x
    return float(np.vdot(r, r).real + lam * np.vdot(x, x).real) + lam0 * mask.sum()


# Stress instance 7 is a near-tie: at drop 344 of 357 the two best scores
# are 1.5e-4 apart (relative) while 1 - d_j ~ 2e-6 is resolved only to ~1e-4,
# by the reference as well. Which of the two columns goes is decided by
# rounding: on a 2-vCPU Xeon (numpy 2.4.6, OpenBLAS 0.3.31) the package
# dropped the same one under one and under two OpenBLAS threads and the
# reference the other, but another BLAS may round it the other way. The
# supports then end 8 columns apart with objectives 1.1e-3 apart. (A
# recomputation on the 56-column Gram matrix shows that the reference
# drops the runner-up.)
_STRESS_NEAR_TIE = 7


@pytest.mark.parametrize("case", ["iv_a", "disk_8db", "stress"])
def test_greedy_support_matches_reference(case):
    # n = 400 drops well over 128 columns, so many stored columns enter each
    # drop's correction; the stress weights (almost no ridge, a large
    # zero-norm weight) shrink the support to about 40 columns, fewer than
    # k = 200, where M^{-1} has eigenvalues near 1/lam = 1e6 and only the
    # reference rebuilds it from the active columns
    if case == "stress":
        lam, lam0 = 1e-6, 2.0
    else:
        lam, lam0 = _calibrated_weights(8.0 if case == "disk_8db" else None)
    for t in range(8):
        pr = generate_problem(400, 200, 1.0, PenaltySpec(), RandomStream(29, t))
        mask = _warm_start(pr.H, pr.s, lam, lam0)[0] != 0
        ref = _reference_greedy_support(pr.H, pr.s, lam, lam0)
        if case == "stress" and t == _STRESS_NEAR_TIE:
            assert mask.sum() == ref.sum()
            assert _support_objective(pr, mask, lam, lam0) == pytest.approx(
                _support_objective(pr, ref, lam, lam0), rel=2e-3)
        else:
            assert np.array_equal(mask, ref)
        assert 400 - mask.sum() > 128
        if case == "stress":
            assert mask.sum() < 100


@pytest.mark.parametrize("lam, lam0, k", [
    (1e-3, 0.2, 200), (0.01, 0.5, 200), (0.05, 1.0, 200), (1e-6, 0.05, 200),
    (None, None, 320), (None, None, 100)],
    ids=["lam1e-3", "lam0.01", "lam0.05", "lam1e-6", "iv_a_k320", "iv_a_k100"])
def test_greedy_support_matches_reference_weights_and_loads(lam, lam0, k):
    # other weights at k = 200, and the IV-A weights at loads 1.25 and 4
    if lam is None:
        lam, lam0 = _calibrated_weights(None)
    for t in range(4):
        pr = generate_problem(400, k, 1.0, PenaltySpec(), RandomStream(31, t))
        mask = _warm_start(pr.H, pr.s, lam, lam0)[0] != 0
        assert np.array_equal(mask, _reference_greedy_support(pr.H, pr.s, lam, lam0))
        assert 64 < 400 - mask.sum() < 399


def test_greedy_support_matches_reference_small():
    # the size and weights of the thread-determinism acceptance run
    for t in range(20):
        pr = generate_problem(64, 32, 1.0, PenaltySpec(), RandomStream(4242, t))
        mask = _warm_start(pr.H, pr.s, 0.1, 0.05)[0] != 0
        assert np.array_equal(mask, _reference_greedy_support(pr.H, pr.s, 0.1, 0.05))


def test_greedy_start_below_k_users_at_almost_no_ridge():
    # more users than antennas (alpha = 1.25) and lambda = 1e-6: the support
    # keeps fewer columns than k, M^{-1} has eigenvalues near 1/lambda, and
    # the u that elimination carries is ~1e-6 relative off the ridge solution
    # on its support; the descent from it must stop within its own tol of
    # the descent from that ridge solution (the k x k oracle precode_rzf
    # cannot meet its residual contract here; the Gram form on S can)
    lam, lam0, tol = 1e-6, 0.05, 1e-10
    for t in range(8):
        pr = generate_problem(64, 80, 1.0, PenaltySpec(lam=lam, lam0=lam0),
                              RandomStream(37, t))
        mask = _warm_start(pr.H, pr.s, lam, lam0)[0] != 0
        assert mask.sum() < pr.k
        res = precode_ccd(pr, tol=tol)
        ref = _ccd_from(pr, _support_ridge(pr, mask, lam), 500, tol)
        assert res.converged and ref.converged
        assert res.objective <= (1 + tol) * ref.objective


def test_descent_against_the_exact_full_plane_minimum():
    # IV-A weights at n = 10, k = 5, where all 2^10 supports can be tried:
    # no descent objective may fall below the exact minimum, and the share
    # of instances where the descent reaches it (0.845) and the paired
    # excess of its active fraction (0.0090) are pinned to within their 95 %
    # intervals. Descent from ridge without greedy reaches the minimum in
    # about 26 % of these instances, with an excess of about 0.12.
    lam, lam0 = _calibrated_weights(None)
    spec = PenaltySpec(lam=lam, lam0=lam0)
    optimal, excess = [], []
    for t in range(200):
        pr = generate_problem(10, 5, 1.0, spec, RandomStream(11, t))
        minimum, size = exact_full_plane_minimum(pr)
        res = precode_ccd(pr)
        assert res.objective >= (1 - 1e-9) * minimum
        optimal.append(res.objective <= (1 + 1e-9) * minimum)
        excess.append(stats(measure(res, pr))["eta"] - size / pr.n)
    share = float(np.mean(optimal))
    assert share == pytest.approx(0.845, abs=1.96 * math.sqrt(share * (1 - share) / 200))
    excess = np.array(excess)
    assert excess.mean() == pytest.approx(
        0.0090, abs=1.96 * excess.std(ddof=1) / math.sqrt(excess.size))


# ---------------------------------------------------------------------------
# random selection
# ---------------------------------------------------------------------------

def test_random_tas_full_selection_is_rzf():
    pr = small_problem(seed=19)
    res = random_tas_rzf(pr, 1.0, 0.1, RandomStream(19, 1))
    assert np.allclose(res.x, precode_rzf(pr.H, pr.s, 0.1))


def test_random_tas_support_size():
    pr = small_problem(seed=20, n=200, k=100)
    res = random_tas_rzf(pr, 0.5, 0.1, RandomStream(20, 1))
    assert np.count_nonzero(res.x) == 100


def test_random_tas_rejects_empty_selection():
    pr = small_problem(seed=21, n=10, k=5)
    with pytest.raises(ValueError):
        random_tas_rzf(pr, 0.01, 0.1, RandomStream(21, 1))


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def test_measure_zero_vector():
    pr = small_problem(seed=22)
    res = PrecodeResult(x=np.zeros(pr.n, dtype=complex), objective=0.0,
                        sweeps=0, converged=True)
    m = stats(measure(res, pr))
    assert m["distortion"] == pytest.approx(np.vdot(pr.s, pr.s).real / pr.k)
    assert m["power"] == 0.0 and m["eta"] == 0.0
    assert math.isinf(m["papr"])


def test_measure_disk_papr_bound():
    peak = 0.6
    pr = small_problem(seed=23, lam=0.05, lam0=0.02, peak=peak)
    res = precode_ccd(pr)
    m = stats(measure(res, pr))
    # each named column holds its own statistic of x
    assert m["distortion"] == pytest.approx(
        np.linalg.norm(pr.s - pr.H @ res.x) ** 2 / pr.k, rel=1e-12)
    assert m["power"] == pytest.approx(np.linalg.norm(res.x) ** 2 / pr.n, rel=1e-12)
    assert m["eta"] == np.count_nonzero(res.x) / pr.n < 1.0
    assert m["papr"] <= peak / m["power"] + 1e-9


# ---------------------------------------------------------------------------
# Monte Carlo runs
# ---------------------------------------------------------------------------

def _report_bytes(rep):
    return (rep.table.shape, rep.table.tobytes(), rep.magnitudes.shape,
            rep.magnitudes.tobytes())


@pytest.mark.parametrize("spec", [
    PenaltySpec(lam=0.1, lam0=0.05),                        # greedy, full plane
    PenaltySpec(lam=0.05, peak_power=1.0),                  # eta = 1, disk
    PenaltySpec(lam=0.1),                                   # ridge start, full plane
], ids=["greedy_full", "eta1_disk", "ridge_full"])
def test_monte_carlo_bit_identical_for_one_two_three_workers(spec):
    kwargs = dict(n=64, k=32, lambda_s=1.0, penalty=spec, trials=5,
                  master_seed=2024)
    reports = [monte_carlo(**kwargs, workers=w) for w in (1, 2, 3)]
    # row t is trial t
    assert reports[0].table.shape == (5, len(TRIAL_COLUMNS))
    assert reports[0].magnitudes.shape == (5, 64)
    assert _report_bytes(reports[0]) == _report_bytes(reports[1]) \
        == _report_bytes(reports[2])


class _TrialError(RuntimeError):
    """Raised by one trial of test_monte_carlo_worker_error_keeps_its_type."""


def test_monte_carlo_worker_error_keeps_its_type(monkeypatch):
    import lse_precoding.simulator as simulator
    parent = os.getpid()

    def failing(n, k, lambda_s, penalty, stream):
        # only a forked worker raises, so the error must cross the pool
        if stream.stream_index == 1 and os.getpid() != parent:
            raise _TrialError("trial 1 fails")
        return generate_problem(n, k, lambda_s, penalty, stream)

    monkeypatch.setattr(simulator, "generate_problem", failing)  # forked workers see it
    with pytest.raises(_TrialError, match="trial 1 fails"):
        monte_carlo(n=16, k=8, lambda_s=1.0, penalty=PenaltySpec(lam=0.1),
                    trials=4, master_seed=5, workers=2)


def test_trial_workers_follow_cores_over_blas_threads(monkeypatch):
    import lse_precoding.simulator as simulator
    monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: set(range(8)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    assert _trial_workers(100) == 1            # OpenBLAS default: one thread per core
    monkeypatch.setenv("OMP_NUM_THREADS", "4")
    assert _trial_workers(100) == 2
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")  # takes precedence over OMP
    assert _trial_workers(100) == 4
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert _trial_workers(100) == 8
    assert _trial_workers(3) == 3              # never more workers than trials
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "16")
    assert _trial_workers(100) == 1
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "0")  # not a thread count: OMP decides
    assert _trial_workers(100) == 2
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delattr(simulator.os, "sched_getaffinity")
    monkeypatch.setattr(simulator.os, "cpu_count", lambda: 3)
    assert _trial_workers(100) == 3
    monkeypatch.delattr(simulator.os, "fork")
    assert _trial_workers(100) == 1


def test_monte_carlo_eta_one_without_l0():
    rep = monte_carlo(n=24, k=12, lambda_s=1.0, penalty=PenaltySpec(lam=0.2),
                      trials=3, master_seed=7)
    assert rep.table[:, TRIAL_COLUMNS.index("eta")].tolist() == [1.0] * 3


def test_monte_carlo_requires_two_trials():
    with pytest.raises(ValueError):
        monte_carlo(n=8, k=4, lambda_s=1.0, penalty=PenaltySpec(lam=0.1),
                    trials=1, master_seed=1)


def test_index_independence_disk_config():
    # cyclic coordinate order must not bias early vs late antenna indices;
    # peak-capped configuration, halves compared by KS distance
    from lse_precoding.numerics import ks_distance
    from lse_precoding.replica import SystemParams, calibrate

    peak = 10.0 ** 0.8 * 0.5
    params = SystemParams(alpha=0.5, lambda_s=1.0, penalty=PenaltySpec(peak_power=peak))
    lam, lam0, _ = calibrate(params, p_star=0.5, eta_star=0.5)
    spec = PenaltySpec(lam=lam, lam0=lam0, peak_power=peak)
    rep = monte_carlo(n=400, k=200, lambda_s=1.0, penalty=spec, trials=50,
                      master_seed=313)
    ks = ks_distance(rep.magnitudes[:, :200].ravel(), rep.magnitudes[:, 200:].ravel())
    assert ks <= 0.05


def test_random_selection_pairing_at_finite_n():
    # random selection at the matched fraction reaches the same empirical
    # distortion as the penalized precoder at half the antennas
    from lse_precoding.replica import (SystemParams, calibrate,
                                       _invert_targets)

    n, k, trials, eta_r = 200, 100, 40, 0.8466
    params = SystemParams(alpha=0.5, lambda_s=1.0, penalty=PenaltySpec())
    lam, lam0, sol = calibrate(params, p_star=0.5, eta_star=0.5)
    spec = PenaltySpec(lam=lam, lam0=lam0)
    rep = monte_carlo(n=n, k=k, lambda_s=1.0, penalty=spec, trials=trials,
                      master_seed=717)

    # quadratic weight of the selected subsystem, mapped back from the
    # rescaled standard model
    sub = SystemParams(alpha=0.5 / eta_r, lambda_s=1.0 / eta_r,
                       penalty=PenaltySpec())
    lam_sub, _ = _invert_targets(sub, 0.5 / eta_r, 1.0)
    lam_phys = eta_r * lam_sub
    ds = []
    for t in range(trials):
        pr = generate_problem(n, k, 1.0, PenaltySpec(lam=lam_phys),
                              RandomStream(717, t))
        res = random_tas_rzf(pr, eta_r, lam_phys, RandomStream(718, t))
        ds.append(stats(measure(res, pr))["distortion"])
    d_tas = float(np.mean(ds))
    d_mean, d_ci95 = _mean_ci95(rep, "distortion")
    spread = d_ci95 + 1.96 * np.std(ds, ddof=1) / math.sqrt(trials)
    assert abs(d_tas - d_mean) <= 3.0 * spread
