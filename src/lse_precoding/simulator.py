"""Finite-dimensional Monte Carlo: draw (H, s), solve the penalized
least-square precoding problem by cyclic coordinate descent with exact
scalar prox steps, and measure each trial's distortion, power, sparsity and
peak ratio and the magnitudes of its precoded symbols. A run returns the
trials alone, row t of each array being trial t: the table of statistics
(TRIAL_COLUMNS) and |x|. `experiments` derives what it writes from them.

The zero-norm term makes the problem nonconvex, and coordinate descent
from a ridge warm start systematically keeps too many antennas active: the
single-coordinate exchange rate 1/||h_j||^2 understates how well the other
antennas compensate for a removal. When the zero-norm weight is active the
solver therefore selects the support first by greedy backward elimination
with exact re-optimized objective deltas and starts the descent from ridge
on it; otherwise it starts from ridge on every antenna. Both starts come
from one matrix per trial, A = lam I + H H^H, or lam I + H^H H for a ridge
start with more users than antennas. Greedy works on the antenna
Gram matrix Q0 = H^H M0 H of its one inverse M0 = A^{-1}: a drop reads one
row of Q0, corrects it by the columns stored for earlier drops and updates
the removal scores (leverages d, correlations u) in place. On the support
that remains, u is the ridge solution there, so it is the start itself.

The descent sweeps every column, in blocks of 16, in the covariance-update
form of coordinate descent (Friedman, Hastie & Tibshirani, J. Stat. Softw.
33(1), 2010): one product gives h_j^H r for a whole block, each change of
a coordinate corrects the block's later inner products through the
block's Gram matrix, and the residual moves once per block. The cyclic
order and the prox steps are those of the column-by-column loop. A sweep
does only the descent; after it the residual is recomputed as s - Hx, the
objective is taken from it, and the next sweep starts from it. The
descent stops once a sweep lowers the objective by at most tol relative.

With no zero-norm weight and a positive ridge weight the problem is
strictly convex, and the solver is restarted accelerated proximal gradient
instead (FISTA, Beck & Teboulle, SIAM J. Imaging Sci. 2(1), 2009, with the
gradient restart of O'Donoghue & Candes, Found. Comput. Math. 15, 2015),
from the same ridge start. It stops once a duality gap certifies that the
objective is within tol relative of the minimum; a result's `sweeps` then
counts its iterations and `converged` says that the gap was met.

A Monte Carlo run spreads its trials over forked worker processes when the
cores outnumber the BLAS threads of one process (for instance under
OPENBLAS_NUM_THREADS=1); trial t draws from its own substream (seed, t), so
the report does not depend on how many workers ran it.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .numerics import RandomStream, complex_normal
from .penalty import OutOfSupportError, PenaltySpec, prox_array, thresholds

_CCD_BLOCK = 16  # columns per coordinate-descent block (one product each)
# the per-trial statistics, in the column order of MonteCarloReport.table
TRIAL_COLUMNS = ("distortion", "power", "eta", "papr")


@dataclass(frozen=True)
class PrecodeProblem:
    """One finite-n instance: channel H (k x n), data s (k,), penalty."""

    H: np.ndarray
    s: np.ndarray
    penalty: PenaltySpec

    @property
    def k(self) -> int:
        return self.H.shape[0]

    @property
    def n(self) -> int:
        return self.H.shape[1]


@dataclass(frozen=True)
class PrecodeResult:
    """A solve's end point x and its objective. From the coordinate descent
    `sweeps` counts sweeps and `converged` says that the last sweep lowered
    the objective by at most tol relative; from the accelerated proximal
    gradient (lam0 = 0, lam > 0) `sweeps` counts iterations and `converged`
    says that the duality gap proved the objective within tol relative of
    the minimum."""

    x: np.ndarray
    objective: float
    sweeps: int
    converged: bool


@dataclass(frozen=True)
class MonteCarloReport:
    """The trials of a Monte Carlo run: the trials x len(TRIAL_COLUMNS)
    float array of their statistics and the trials x n array of their
    |x|. Row t of each is trial t."""

    table: np.ndarray
    magnitudes: np.ndarray


def generate_problem(n: int, k: int, lambda_s: float, penalty: PenaltySpec,
                     stream: RandomStream) -> PrecodeProblem:
    """Draw H with i.i.d. CN(0, 1/n) entries and s ~ CN(0, lambda_s I_k).

    H is drawn before s from the stream's generator, so instances are
    bit-reproducible given (master_seed, stream_index).
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be at least 1")
    rng = stream.generator()
    H = complex_normal(rng, (k, n), 1.0 / n)
    s = complex_normal(rng, k, lambda_s)
    return PrecodeProblem(H=H, s=s, penalty=penalty)


# ---------------------------------------------------------------------------
# warm start: ridge, or greedy backward elimination and its ridge vector
# ---------------------------------------------------------------------------

def _warm_start(H: np.ndarray, s: np.ndarray, lam: float,
                lam0: float) -> tuple[np.ndarray, np.ndarray]:
    """The start of the solver and the matrix A = lam I + H H^H it is
    worked out from, formed once: with lam0 = 0 the ridge solution
    x = H^H y, y = A^{-1} s with one refinement step; with lam0 > 0 the
    ridge solution on the support that greedy backward elimination keeps,
    zero at the dropped antennas.

    With lam0 = 0 and more users than antennas (k > n) the ridge solution
    is solved on the antenna side instead, from A = lam I_n + H^H H,
    A x = H^H s with one refinement step: lam I_k + H H^H has k - n
    eigenvalues equal to lam there, and at the ridge floor lam = 1e-6 its
    solve amplifies rounding that depends on the BLAS thread count about
    1e6-fold, while the smallest eigenvalue of lam I_n + H^H H is about
    (sqrt(k/n) - 1)^2. Either way the largest eigenvalue of A - lam I is
    that of H^H H.

    For support S the partially minimized objective is
        F(S) = lam s^H (lam I + H_S H_S^H)^{-1} s + lam0 |S|,
    and removing column j changes the quadratic part by
    lam |u_j|^2 / (1 - d_j) with u = H^H M^{-1} s and d_j = h_j^H M^{-1} h_j.
    On S, u is the ridge solution H_S^H M^{-1} s, so the start is u itself.
    Columns are dropped while the best delta is negative (ties go to the
    lowest index). Removing column j adds v v^H / (1 - d_j), v = M^{-1} h_j,
    to M^{-1}, hence t t^H / (1 - d_j) to Q = H^H M^{-1} H, where t = H^H v
    is column j of the current Q: with M0 = A^{-1} and Q0 = H^H M0 H,
    t = conj(Q0[j]) + sum_i conj(t_i[j]) t_i / (1 - d_i) over the stored
    columns t_i. d and u move by that term (v^H s = u_j), so a drop costs
    O(n + m n) with m stored columns. The loop stops at one antenna, so the
    support is never empty.
    """
    k, n = H.shape
    HH = H.conj().T
    if not lam0 > 0:
        if k > n:  # the same x = (lam I_n + H^H H)^{-1} H^H s, by push-through
            A, b = lam * np.eye(n) + HH @ H, HH @ s
        else:
            A, b = lam * np.eye(k) + H @ HH, s
        y = np.linalg.solve(A, b)
        y = y + np.linalg.solve(A, b - A @ y)
        return (y if k > n else HH @ y), A
    A = lam * np.eye(k) + H @ HH
    M0 = np.linalg.inv(A)
    Q0 = HH @ (M0 @ H)
    u = HH @ (M0 @ s)
    d = Q0.diagonal().real.copy()
    T = np.empty((n, n), dtype=complex)  # rows t_i, one per drop so far
    den = np.empty(n)                    # their 1 - d_i
    dead = np.zeros(n)  # inf at dropped columns
    for m in range(n - 1):
        denom = np.maximum(1.0 - d, 1e-12)
        delta = lam * np.abs(u) ** 2 / denom - lam0 + dead
        j = int(np.argmin(delta))
        if delta[j] >= 0.0:
            break
        t = Q0[j].conj()
        if m:
            t += (T[:m, j].conj() / den[:m]) @ T[:m]
        dj = denom[j]
        dead[j] = np.inf
        d += np.abs(t) ** 2 / dj
        u += t * (u[j] / dj)
        T[m] = t
        den[m] = dj
    u[dead != 0.0] = 0.0
    return u, A


# ---------------------------------------------------------------------------
# cyclic coordinate descent
# ---------------------------------------------------------------------------

def _objective(spec: PenaltySpec, x: np.ndarray, r: np.ndarray) -> float:
    """||r||^2 + lam ||x||^2 + lam0 nnz(x) for x with residual r = s - Hx;
    raises OutOfSupportError when some |x_j| exceeds the disk radius by
    more than 1e-12. The zero-norm term tests x against exact zero."""
    if spec.is_disk:
        a = float(np.max(np.abs(x)))
        if a > spec.radius + 1e-12:
            raise OutOfSupportError(f"|x_j| = {a} exceeds the disk radius")
    return float(np.vdot(r, r).real + spec.lam * np.vdot(x, x).real
                 + spec.lam0 * np.count_nonzero(x))


def _clip_to_support(spec: PenaltySpec, x: np.ndarray) -> np.ndarray:
    if not spec.is_disk:
        return x
    radius = spec.radius
    a = np.abs(x)
    over = a > radius
    x = x.copy()
    x[over] *= radius / a[over]
    return x


def _ccd_from(problem: PrecodeProblem, x0: np.ndarray, max_sweeps: int,
              tol: float) -> PrecodeResult:
    """Exact-prox cyclic descent from x0. Each sweep starts from the true
    residual r = s - Hx, and after it r and the objective are recomputed
    from the new x; the descent stops when a sweep lowers the objective by
    at most tol relative, or after max_sweeps sweeps. With max_sweeps = 0
    it returns x0 and its objective before any set-up.

    Every column is swept in index order, in blocks of _CCD_BLOCK. A block
    starts from q = (h_j^H r) of all its columns, one product; a change
    delta of x_j adds G[p][i] delta = h_i^H h_p delta to q of the block's
    later columns, and the block moves r once at its end.
    In exact arithmetic these are the iterates of the column-by-column
    loop; only the rounding of h_j^H r differs. A block trades the three
    numpy calls per coordinate of that loop (h_j^H r and the residual
    update) for at most 15 scalar products on a change; larger blocks make
    those products the cost. At n = 400, k = 200 blocks of 8 and 16 ran
    alike, and 32 and 64 ran 1.2 and 1.7 times as long (one OpenBLAS
    thread, 2-vCPU Xeon VM). A zero column (g_j = 0) raises
    ZeroDivisionError; `generate_problem` draws none.
    """
    H, s, spec = problem.H, problem.s, problem.penalty
    x = x0.astype(complex, copy=True)
    r = s - H @ x
    obj = _objective(spec, x, r)
    if max_sweeps <= 0:
        return PrecodeResult(x=x, objective=obj, sweeps=0, converged=False)
    g = np.einsum("ij,ij->j", H.conj(), H).real
    # per column j: the coordinate weight c_j = 1/||h_j||^2 and the prox
    # rule at c_j, unpacked (b and peak are not read)
    rules = []
    for gj in g.tolist():
        cj = 1.0 / gj
        tau, tau_tilde, tau_hat, _, shrink, radius, _ = thresholds(spec, cj)
        rules.append((cj, tau, tau_tilde, tau_hat, shrink, radius))
    # R[j] is column j of H; per block: its first index, its rules, R_b,
    # conj(R_b) and the Gram rows G[p][i] = h_i^H h_p
    R = np.ascontiguousarray(H.T)
    Rc = R.conj()
    blocks = [(b.start, rules[b], R[b], Rc[b], (R[b] @ Rc[b].T).tolist())
              for b in (slice(lo, lo + _CCD_BLOCK)
                        for lo in range(0, len(rules), _CCD_BLOCK))]

    converged = False
    sweeps = 0
    # a sweep works on Python complex scalars, which cost less per
    # coordinate than numpy scalars; multiplying by c_j rounds as numpy's
    # division of a complex by a real does (Python's `/` does not)
    xs = x.tolist()
    for sweep in range(max_sweeps):
        for lo, block, Rb, Rcb, Gb in blocks:
            q = (Rcb @ r).tolist()
            deltas = [0j] * len(block)
            for p, (cj, tau, tau_tilde, tau_hat, shrink, radius) in enumerate(block):
                j = lo + p
                xj = xs[j]
                zj = xj + q[p] * cj
                # the prox rule at c_j; a tie goes to the branch tested
                # first, where the competing branches cost the same
                a = abs(zj)
                if a >= tau_hat:
                    xn = zj * (radius / a)  # the rim; tau_hat > 0, so zj != 0
                elif a > tau_tilde:
                    xn = 0j
                elif a >= tau:
                    xn = zj * shrink  # rounds as penalty.prox_array does
                else:
                    xn = 0j
                if xn != xj:
                    delta = xj - xn
                    Gp = Gb[p]
                    for i in range(p + 1, len(block)):
                        q[i] += Gp[i] * delta
                    deltas[p] = delta
                    xs[j] = xn
            r += np.array(deltas) @ Rb
        x = np.array(xs, dtype=complex)
        sweeps = sweep + 1
        r = s - H @ x
        prev, obj = obj, _objective(spec, x, r)
        if prev - obj <= tol * max(abs(prev), 1e-300):
            converged = True
            break
    return PrecodeResult(x=x, objective=obj, sweeps=sweeps, converged=converged)


# ---------------------------------------------------------------------------
# restarted accelerated proximal gradient (lam0 = 0, lam > 0)
# ---------------------------------------------------------------------------

def _dual_bound(spec: PenaltySpec, s: np.ndarray, w: np.ndarray,
                g: np.ndarray) -> float:
    """D(w) = 2 Re<w, s> - ||w||^2 - sum_j u*(2 g_j) for g = H^H w: with
    lam0 = 0 and lam > 0 a lower bound on ||s - Hx||^2 + lam ||x||^2 at
    every x on the support, and its minimum at w = s - Hx*. The conjugate
    u*(q) = sup_{|v| <= R} Re(conj(q) v) - lam |v|^2 = v (|q| - lam v) at
    v = min(|q| / (2 lam), R) is |q|^2 / (4 lam) for |q| <= 2 lam R and
    R |q| - lam R^2 beyond, on the rim (R = inf on the plane)."""
    a = np.abs(g)
    v = np.minimum(a / spec.lam, spec.radius)
    return float(np.vdot(w, 2.0 * s - w).real - np.dot(v, 2.0 * a - spec.lam * v))


def _apg_from(problem: PrecodeProblem, x0: np.ndarray, A: np.ndarray,
              max_sweeps: int, tol: float) -> PrecodeResult:
    """Restarted accelerated proximal gradient from x0 for lam0 = 0 and
    lam > 0, given the start's matrix A (`_warm_start`). Each iteration
    takes a prox step of the rule `thresholds(spec, 1/L)` from the
    extrapolated point y, and restarts the momentum when
    Re<y - x+, x+ - x> > 0. It stops once f(x+) - D(s - Hy) <= tol f(x+)
    (`_dual_bound`), which proves f(x+) within tol relative of the minimum,
    or after max_sweeps iterations. Hx is kept for every iterate, so
    Hy = (1 + beta) Hx+ - beta Hx and an iteration costs two products with
    H. With max_sweeps = 0 it returns x0 and its objective.

    L is 1.1 times the estimate of lambda_max(H^H H) = lambda_max(A) - lam
    after 30 power steps on A from the all-ones vector (A's ridge weight,
    max(lam, 1e-6), is at least lam, so the floor only raises L). Those
    steps reached at least 0.95 of lambda_max in 500 draws (n = 64 to 400,
    k/n = 0.1 to 1.25), so the margin keeps the step 1/L at or below
    1/lambda_max there; a lower L would cost speed, not correctness, since
    the gap certifies whatever step was taken. The iterates are prox
    outputs, on the support by construction, so the loop takes f without
    the disk check of `_objective`, which costs about four times as much.
    """
    H, s, spec = problem.H, problem.s, problem.penalty
    x = x0.astype(complex, copy=True)
    Hx = H @ x
    r = s - Hx
    if max_sweeps <= 0:
        return PrecodeResult(x=x, objective=_objective(spec, x, r), sweeps=0,
                             converged=False)
    u = np.ones(len(A), dtype=complex)
    for _ in range(30):
        u = A @ u
        mu = np.linalg.norm(u)
        u /= mu
    c = 1.0 / (1.1 * (float(mu) - spec.lam))
    rule = thresholds(spec, c)
    HH = H.conj().T
    y, Hy, t = x, Hx, 1.0
    converged = False
    for sweeps in range(1, max_sweeps + 1):
        w = s - Hy
        g = HH @ w
        x_prev, Hx_prev = x, Hx
        x = prox_array(rule, y + c * g)
        Hx = H @ x
        r = s - Hx
        obj = float(np.vdot(r, r).real + spec.lam * np.vdot(x, x).real)
        if obj - _dual_bound(spec, s, w, g) <= tol * obj:
            converged = True
            break
        if np.vdot(y - x, x - x_prev).real > 0:
            t, beta = 1.0, 0.0
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            t, beta = t_next, (t - 1.0) / t_next
        y = x + beta * (x - x_prev)
        Hy = (1.0 + beta) * Hx - beta * Hx_prev
    return PrecodeResult(x=x, objective=_objective(spec, x, r), sweeps=sweeps,
                         converged=converged)


def precode_ccd(problem: PrecodeProblem, max_sweeps: int = 500,
                tol: float = 1e-10) -> PrecodeResult:
    """Solve one precoding instance from one start, `_warm_start` at the
    ridge weight max(lam, 1e-6): when the zero-norm weight is active the
    ridge solution on the support that greedy backward elimination
    selects, otherwise the ridge solution on every antenna. On a disk the
    start is clipped onto it. With max_sweeps = 0 the result holds the
    start itself.

    With lam0 = 0 and lam > 0 the problem is strictly convex and
    `_apg_from` solves it: `sweeps` counts iterations and `converged` says
    that the duality gap was met. Otherwise the coordinate descent
    `_ccd_from` does: `sweeps` counts sweeps and `converged` says that the
    last one lowered the objective by at most tol relative.
    """
    spec = problem.penalty
    x0, A = _warm_start(problem.H, problem.s, max(spec.lam, 1e-6), spec.lam0)
    x0 = _clip_to_support(spec, x0)
    if spec.lam0 == 0 and spec.lam > 0:
        return _apg_from(problem, x0, A, max_sweeps, tol)
    return _ccd_from(problem, x0, max_sweeps, tol)


# ---------------------------------------------------------------------------
# measurement and trials
# ---------------------------------------------------------------------------

def measure(result: PrecodeResult, problem: PrecodeProblem,
            zero_eps: float = 1e-9) -> np.ndarray:
    """One trial's statistics as a float64 row in TRIAL_COLUMNS order:
    ||s - Hx||^2 / k, ||x||^2 / n, the active fraction and max |x_j|^2 over
    the power (inf for x = 0). An antenna is active when |x_j| exceeds
    zero_eps ([simulation] zero_eps). The prox emits exact zeros, so the
    floor decides only for coefficients the descent leaves tiny but nonzero."""
    x = result.x
    r = problem.s - problem.H @ x
    distortion = float(np.vdot(r, r).real) / problem.k
    power = float(np.vdot(x, x).real) / problem.n
    mags = np.abs(x)
    eta = float(np.count_nonzero(mags > zero_eps)) / problem.n
    papr = float(np.max(mags) ** 2 / power) if power > 0 else math.inf
    return np.array([distortion, power, eta, papr])


def _trial_workers(trials: int) -> int:
    """Worker processes for `trials` Monte Carlo trials: the usable cores
    divided by the BLAS threads each process runs (OPENBLAS_NUM_THREADS,
    else OMP_NUM_THREADS, else OpenBLAS's default of one per core), at most
    one per trial, and one (no pool) where processes cannot be forked."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    blas = cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdecimal() and int(value) > 0:
            blas = int(value)
            break
    return max(1, min(trials, cores // blas))


def _run_trial(t: int, args: tuple):
    """Trial t of a Monte Carlo run: its row of statistics and |x|."""
    n, k, lambda_s, penalty, master_seed, solver_opts, zero_eps = args
    problem = generate_problem(n, k, lambda_s, penalty,
                               RandomStream(master_seed, t))
    result = precode_ccd(problem, **solver_opts)
    return measure(result, problem, zero_eps), np.abs(result.x)


def monte_carlo(n: int, k: int, lambda_s: float, penalty: PenaltySpec,
                trials: int, master_seed: int, solver_opts: dict | None = None,
                zero_eps: float = 1e-9, workers: int | None = None) -> MonteCarloReport:
    """Run `trials` independent instances; trial t owns the substream with
    stream_index = t, so results are identical for any worker count and any
    execution order. Row t of the report's `table` is trial t's `measure`
    row, and row t of its `magnitudes` the trial's |x|.

    With more than one worker the trials run in forked processes, handed
    out one at a time and collected in trial order; a trial's exception
    reaches the caller with its own type. `workers=None` derives the count
    from the cores and the BLAS thread count (`_trial_workers`); one worker
    runs the trials in this process.
    """
    if trials < 2:
        raise ValueError("at least two trials are needed for intervals")
    if workers is None:
        workers = _trial_workers(trials)
    args = (n, k, lambda_s, penalty, master_seed, dict(solver_opts or {}),
            zero_eps)
    if workers > 1:
        # fork: workers start with the package imported instead of importing
        # numpy again each (OpenBLAS stops its own threads around fork())
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            rows, mags = zip(*pool.map(_run_trial, range(trials), [args] * trials,
                                       chunksize=1))
    else:
        rows, mags = zip(*[_run_trial(t, args) for t in range(trials)])
    return MonteCarloReport(table=np.stack(rows), magnitudes=np.stack(mags))
