"""Finite-dimensional Monte Carlo: draw (H, s), solve the penalized
least-square precoding problem by cyclic coordinate descent with exact
scalar prox steps, and measure distortion, power, sparsity, peak ratio and
the marginal law of the precoded symbols.

The zero-norm term makes the problem nonconvex, and coordinate descent
from a ridge warm start systematically keeps too many antennas active: the
single-coordinate exchange rate 1/||h_j||^2 understates how well the other
antennas compensate for a removal. The default pipeline therefore selects
the support first by greedy backward elimination with exact re-optimized
objective deltas, then polishes with coordinate descent. Further starts
(ridge, zero, random supports) run only when restarts > 1 asks for them;
the lowest objective, recomputed at the end of each start, then wins.
Greedy selection works on the antenna Gram matrix Q0 = H^H M0 H, formed
once from the one inverse of a trial, M0 = (lam I + H H^H)^{-1}: a drop
reads one row of Q0, corrects it by the columns stored for earlier drops
and updates the removal scores (leverages d, correlations u) in place.

The descent sweeps the columns in blocks of 16 in the covariance-update
form of coordinate descent (Friedman, Hastie & Tibshirani, J. Stat. Softw.
33(1), 2010): one product gives h_j^H r for a whole block, each change of
a coordinate corrects the block's later inner products through the
block's Gram matrix, and the residual moves once per block. The cyclic
order and the prox steps are those of the column-by-column loop.

A Monte Carlo run spreads its trials over forked worker processes when the
cores outnumber the BLAS threads of one process (for instance under
OPENBLAS_NUM_THREADS=1); trial t draws from its own substream (seed, t), so
the report does not depend on how many workers ran it.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .numerics import RandomStream, complex_normal
from .penalty import PenaltySpec, _prox_scalar, penalty_value, thresholds

INIT_KINDS = ("auto", "greedy", "rzf", "zero", "random")  # precode_ccd inits
_RESTART_STREAM_OFFSET = 1 << 48
_CCD_BLOCK = 16  # columns per coordinate-descent block (one product each)
_HISTOGRAM_BINS = 128  # magnitude histogram of a Monte Carlo report


class SingularSystemError(np.linalg.LinAlgError):
    """The ridge system is singular or misses a required residual."""


@dataclass(frozen=True)
class PrecodeProblem:
    """One finite-n instance: channel H (k x n), data s (k,), penalty."""

    H: np.ndarray
    s: np.ndarray
    penalty: PenaltySpec
    stream: RandomStream | None = None

    @property
    def k(self) -> int:
        return self.H.shape[0]

    @property
    def n(self) -> int:
        return self.H.shape[1]


@dataclass(frozen=True)
class PrecodeResult:
    x: np.ndarray
    objective: float
    sweeps: int
    converged: bool
    degenerate_columns: tuple = ()
    max_step_increase: float = 0.0
    max_residual_drift: float = 0.0
    tracked_objective: float = math.nan  # incrementally tracked final value


@dataclass(frozen=True)
class TrialMetrics:
    distortion: float
    power: float
    eta: float
    papr: float


@dataclass(frozen=True)
class MonteCarloReport:
    trials: int
    distortion_mean: float
    distortion_ci95: float
    power_mean: float
    power_ci95: float
    eta_mean: float
    eta_ci95: float
    papr_mean: float
    papr_ci95: float
    histogram_edges: np.ndarray
    magnitude_histogram: np.ndarray
    per_index_marginals: dict
    per_trial: tuple = field(repr=False, default=())
    magnitudes: np.ndarray = field(repr=False, default=None)


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
    return PrecodeProblem(H=H, s=s, penalty=penalty, stream=stream)


# ---------------------------------------------------------------------------
# ridge warm start
# ---------------------------------------------------------------------------

def _ridge_solve(H: np.ndarray, s: np.ndarray, lam: float) -> np.ndarray:
    """Ridge solve with one refinement step, the warm start of the descent;
    returns x = H^H y with y = A^{-1} s, A = H H^H + lam I. Raises
    SingularSystemError when A cannot be factored."""
    k = H.shape[0]
    A = H @ H.conj().T + lam * np.eye(k)
    try:
        y = np.linalg.solve(A, s)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(str(exc)) from exc
    y = y + np.linalg.solve(A, s - A @ y)
    return H.conj().T @ y


# ---------------------------------------------------------------------------
# support selection by greedy backward elimination
# ---------------------------------------------------------------------------

def _greedy_backward_support(H: np.ndarray, s: np.ndarray, lam: float,
                             lam0: float) -> np.ndarray:
    """Active-set mask from greedy antenna removal with exact ridge deltas.

    For support S the partially minimized objective is
        F(S) = lam s^H (lam I + H_S H_S^H)^{-1} s + lam0 |S|,
    and removing column j changes the quadratic part by
    lam |u_j|^2 / (1 - d_j) with u = H^H M^{-1} s and d_j = h_j^H M^{-1} h_j.
    Columns are dropped while the best delta is negative (ties go to the
    lowest index). Removing column j adds v v^H / (1 - d_j), v = M^{-1} h_j,
    to M^{-1}, hence t t^H / (1 - d_j) to Q = H^H M^{-1} H, where t = H^H v
    is column j of the current Q: with M0 the one inverse of the call and
    Q0 = H^H M0 H, t = conj(Q0[j]) + sum_i conj(t_i[j]) t_i / (1 - d_i)
    over the stored columns t_i. d and u move by that term (v^H s = u_j),
    so a drop costs O(n + m n) with m stored columns.
    """
    k, n = H.shape
    HH = H.conj().T
    M0 = np.linalg.inv(lam * np.eye(k) + H @ HH)
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
        dj = max(1.0 - d[j], 1e-12)
        dead[j] = np.inf
        d += np.abs(t) ** 2 / dj
        u += t * (u[j] / dj)
        T[m] = t
        den[m] = dj
    return dead == 0.0


# ---------------------------------------------------------------------------
# cyclic coordinate descent
# ---------------------------------------------------------------------------

def _objective(problem: PrecodeProblem, x: np.ndarray) -> float:
    r = problem.s - problem.H @ x
    # Python complex scalars cost less per element than numpy scalars and
    # give the same sum bit for bit
    pen = sum(penalty_value(problem.penalty, v) for v in x.tolist())
    return float(np.vdot(r, r).real + pen)


def _clip_to_support(spec: PenaltySpec, x: np.ndarray) -> np.ndarray:
    if not spec.is_disk:
        return x
    radius = spec.support.radius
    a = np.abs(x)
    over = a > radius
    x = x.copy()
    x[over] *= radius / a[over]
    return x


def _init_vector(problem: PrecodeProblem, kind: str,
                 rng: np.random.Generator | None) -> np.ndarray:
    H, s, spec = problem.H, problem.s, problem.penalty
    lam_eff = max(spec.lam, 1e-6)
    x = np.zeros(problem.n, dtype=complex)
    if kind == "greedy":
        # the greedy loop stops at one antenna, so the support is never empty
        active = _greedy_backward_support(H, s, lam_eff, spec.lam0)
        x[active] = _ridge_solve(H[:, active], s, lam_eff)
    elif kind == "rzf":
        x = _ridge_solve(H, s, lam_eff)
    elif kind == "random":
        density = 0.25 + 0.5 * rng.random()
        mask = rng.random(problem.n) < density
        x = _ridge_solve(H, s, lam_eff)
        x[~mask] = 0.0
    elif kind != "zero":
        raise ValueError(f"unknown init {kind!r}")
    return _clip_to_support(spec, x)


def _ccd_from(problem: PrecodeProblem, x0: np.ndarray, max_sweeps: int,
              tol: float) -> PrecodeResult:
    """Exact-prox cyclic descent from x0, tracking the objective
    incrementally with a from-scratch refresh every 50 sweeps.

    The usable columns (g_j > 0, in index order) are swept in blocks of
    _CCD_BLOCK. A block starts from q = (h_j^H r) of all its columns, one
    product; a change delta of x_j adds G[p][i] delta = h_i^H h_p delta to
    q of the block's later columns, and the block moves r once at its end.
    In exact arithmetic these are the iterates of the column-by-column
    loop; only the rounding of h_j^H r differs. A block trades the three
    numpy calls per coordinate of that loop (h_j^H r and the residual
    update) for at most 15 scalar products on a change; larger blocks make
    those products the cost. At n = 400, k = 200 blocks of 8 and 16 ran
    alike, and 32 and 64 ran 1.2 and 1.7 times as long (one OpenBLAS
    thread, 2-vCPU Xeon VM).
    """
    H, s, spec = problem.H, problem.s, problem.penalty
    g = np.einsum("ij,ij->j", H.conj(), H).real
    usable = np.flatnonzero(g > 0.0)
    degenerate = tuple(int(j) for j in np.flatnonzero(g <= 0.0))
    # per usable column j: g_j = ||h_j||^2, the coordinate weight c_j = 1/g_j,
    # and the prox rule at c_j
    columns = []
    for j, gj in zip(usable.tolist(), g[usable].tolist()):
        cj = 1.0 / gj
        columns.append((j, gj, cj, thresholds(spec, cj)))
    # R[p] is usable column p of H; the whole blocks' Gram matrices come
    # from one batched product, a last short block's from its own
    m = usable.size
    R = H.T[usable]
    Rc = R.conj()
    full = m - m % _CCD_BLOCK
    R3 = R[:full].reshape(-1, _CCD_BLOCK, problem.k)
    gram = np.matmul(R3, Rc[:full].reshape(R3.shape).transpose(0, 2, 1)).tolist()
    if full < m:
        gram.append((R[full:] @ Rc[full:].T).tolist())
    # per block: its columns, R_b, conj(R_b) and the Gram rows
    # G[p][i] = h_i^H h_p
    blocks = [(columns[lo:lo + _CCD_BLOCK], R[lo:lo + _CCD_BLOCK],
               Rc[lo:lo + _CCD_BLOCK], Gb)
              for lo, Gb in zip(range(0, m, _CCD_BLOCK), gram)]
    lam, lam0 = spec.lam, spec.lam0

    x = x0.astype(complex, copy=True)
    r = s - H @ x
    obj = _objective(problem, x)
    max_inc = 0.0
    max_drift = 0.0
    converged = False
    sweeps = 0
    # a sweep works on Python complex scalars, which cost less per
    # coordinate than numpy scalars; multiplying by c_j rounds as numpy's
    # division of a complex by a real does (Python's `/` does not)
    xs = x.tolist()
    for sweep in range(max_sweeps):
        prev = obj
        for columns, Rb, Rcb, Gb in blocks:
            q = (Rcb @ r).tolist()
            deltas = None
            for p, (j, gj, cj, t) in enumerate(columns):
                xj = xs[j]
                zj = xj + q[p] * cj
                xn = _prox_scalar(zj, abs(zj), t)
                if xn != xj:
                    d_pen = (lam * (abs(xn) ** 2 - abs(xj) ** 2)
                             + lam0 * (float(xn != 0.0) - float(xj != 0.0)))
                    d_ls = gj * (abs(xn - zj) ** 2 - abs(xj - zj) ** 2)
                    step = d_ls + d_pen
                    obj += step
                    if step > max_inc:
                        max_inc = step
                    delta = xj - xn
                    Gp = Gb[p]
                    for i in range(p + 1, len(columns)):
                        q[i] += Gp[i] * delta
                    if deltas is None:
                        deltas = [0j] * len(columns)
                    deltas[p] = delta
                    xs[j] = xn
            if deltas is not None:
                r += np.array(deltas) @ Rb
        x = np.array(xs, dtype=complex)
        sweeps = sweep + 1
        r_true = s - H @ x
        drift = float(np.linalg.norm(r - r_true))
        if drift > max_drift:
            max_drift = drift
        if sweeps % 50 == 0:
            r = r_true
            obj = _objective(problem, x)
        if prev - obj <= tol * max(abs(prev), 1e-300):
            converged = True
            break
    tracked = obj
    obj = _objective(problem, x)
    return PrecodeResult(x=x, objective=obj, sweeps=sweeps, converged=converged,
                         degenerate_columns=degenerate,
                         max_step_increase=max_inc, max_residual_drift=max_drift,
                         tracked_objective=tracked)


def precode_ccd(problem: PrecodeProblem, init: str = "auto",
                max_sweeps: int = 500, tol: float = 1e-10,
                restarts: int = 1) -> PrecodeResult:
    """Solve one precoding instance; returns the result of the start with
    the lowest objective (`PrecodeResult.objective`, recomputed from
    scratch when the start's descent ends) over the deterministic
    initializations.

    init "auto" selects the support by greedy backward elimination whenever
    the zero-norm weight is active and uses the ridge warm start otherwise.
    With restarts > 1 additional starts are appended (ridge, zero, then
    random supports seeded from the problem stream, or from stream (0, 0)
    when the problem has none) and the best final objective wins.
    """
    spec = problem.penalty
    if init == "auto":
        init = "greedy" if spec.lam0 > 0 else "rzf"
    kinds = [init]
    for extra in ("rzf", "zero"):
        if len(kinds) >= restarts:
            break
        if extra not in kinds:
            kinds.append(extra)
    while len(kinds) < restarts:
        kinds.append("random")

    rng = None
    if "random" in kinds:
        base = problem.stream or RandomStream(0, 0)
        rng = base.substream(base.stream_index + _RESTART_STREAM_OFFSET).generator()

    best = None
    for kind in kinds:
        res = _ccd_from(problem, _init_vector(problem, kind, rng),
                        max_sweeps, tol)
        if best is None or res.objective < best.objective:
            best = res
    return best


# ---------------------------------------------------------------------------
# measurement and aggregation
# ---------------------------------------------------------------------------

def measure(result: PrecodeResult, problem: PrecodeProblem,
            zero_eps: float = 1e-9) -> TrialMetrics:
    """Per-trial metrics. The active count uses a small magnitude floor even
    though the prox emits exact zeros, so alternative solvers stay
    comparable."""
    x = result.x
    r = problem.s - problem.H @ x
    distortion = float(np.vdot(r, r).real) / problem.k
    power = float(np.vdot(x, x).real) / problem.n
    mags = np.abs(x)
    eta = float(np.count_nonzero(mags > zero_eps)) / problem.n
    papr = float(np.max(mags) ** 2 / power) if power > 0 else math.inf
    return TrialMetrics(distortion=distortion, power=power, eta=eta, papr=papr)


def _ci95(values: np.ndarray) -> float:
    return float(1.96 * values.std(ddof=1) / math.sqrt(values.size))


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
    """Trial t of a Monte Carlo run: its metrics and |x|."""
    n, k, lambda_s, penalty, master_seed, solver_opts, zero_eps = args
    problem = generate_problem(n, k, lambda_s, penalty,
                               RandomStream(master_seed, t))
    result = precode_ccd(problem, **solver_opts)
    return measure(result, problem, zero_eps), np.abs(result.x)


def monte_carlo(n: int, k: int, lambda_s: float, penalty: PenaltySpec,
                trials: int, master_seed: int, solver_opts: dict | None = None,
                zero_eps: float = 1e-9, workers: int | None = None
                ) -> MonteCarloReport:
    """Run `trials` independent instances; trial t owns the substream with
    stream_index = t, so results are identical for any worker count and any
    execution order.

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
            outcomes = list(pool.map(_run_trial, range(trials),
                                     [args] * trials, chunksize=1))
    else:
        outcomes = [_run_trial(t, args) for t in range(trials)]

    metrics = [m for m, _ in outcomes]
    mags = np.stack([mag for _, mag in outcomes])  # trials x n, trial order
    pooled = mags.ravel()
    top = float(pooled.max()) if pooled.size else 0.0
    edges = np.linspace(0.0, top if top > 0 else 1.0, _HISTOGRAM_BINS + 1)
    hist, _ = np.histogram(pooled, bins=edges)
    hist = hist / hist.sum()
    half = n // 2
    marginals = {}
    for name, block in (("first_half", mags[:, :half]),
                        ("second_half", mags[:, half:])):
        h, _ = np.histogram(block.ravel(), bins=edges)
        marginals[name] = h / max(h.sum(), 1)

    arr = {f: np.array([getattr(m, f) for m in metrics])
           for f in ("distortion", "power", "eta", "papr")}
    return MonteCarloReport(
        trials=trials,
        distortion_mean=float(arr["distortion"].mean()),
        distortion_ci95=_ci95(arr["distortion"]),
        power_mean=float(arr["power"].mean()),
        power_ci95=_ci95(arr["power"]),
        eta_mean=float(arr["eta"].mean()),
        eta_ci95=_ci95(arr["eta"]),
        papr_mean=float(arr["papr"].mean()),
        papr_ci95=_ci95(arr["papr"]),
        histogram_edges=edges,
        magnitude_histogram=hist,
        per_index_marginals=marginals,
        per_trial=tuple(metrics),
        magnitudes=pooled,
    )
