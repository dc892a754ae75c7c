"""Acceptance gate: one test per criterion, each at its stated tolerance.

Criteria 6 and 7 share one Monte Carlo run via a module-scoped fixture.
Every test prints a single PASS line with its measured numbers (visible
with pytest -s or in the captured block of a failure).
"""
import time

import numpy as np
import pytest

from lse_precoding.experiments import (ExperimentConfig,
                                       match_random_selection,
                                       operating_point, parse_config, run)
from lse_precoding.numerics import RandomStream, ks_distance
from lse_precoding.penalty import PenaltySpec, Support, prox
from lse_precoding import replica, simulator
from lse_precoding.replica import (SystemParams, calibrate, decoupled_sample,
                                   fixed_point_update, make_state,
                                   solve_fixed_point)
from lse_precoding.simulator import generate_problem, monte_carlo
from oracles import precode_rzf, prox_oracle, quadrature_update

IV_A = dict(alpha_inverse=2.0, lambda_s=1.0, p_target=0.5, eta_target=0.5)
# calibration targets p = 0.5 at lambda_s = 1 on the full plane
TARGETS = ExperimentConfig(p_target=0.5)


@pytest.fixture(scope="module")
def iv_a_point():
    params = SystemParams(alpha=0.5, lambda_s=1.0, penalty=PenaltySpec())
    lam, lam0, sol = calibrate(params, p_star=0.5, eta_star=0.5)
    return lam, lam0, sol


@pytest.fixture(scope="module")
def iv_a_monte_carlo(iv_a_point):
    lam, lam0, _ = iv_a_point
    spec = PenaltySpec(lam=lam, lam0=lam0)
    t0 = time.time()
    report = monte_carlo(n=400, k=200, lambda_s=1.0, penalty=spec, trials=200,
                         master_seed=20240)
    return report, time.time() - t0


def test_criterion_01_prox_global_optimality():
    t0 = time.time()
    rng = RandomStream(11011, 0).generator()
    worst = 0.0
    for _ in range(10_000):
        lam = rng.uniform(0.0, 3.0) * (rng.random() > 0.15)
        lam0 = rng.uniform(0.0, 3.0) * (rng.random() > 0.15)
        if rng.random() < 0.5:
            support = Support.full_plane()
        else:
            support = Support.disk(rng.uniform(0.2, 6.0))
        spec = PenaltySpec(lam=lam, lam0=lam0, support=support)
        c = 10.0 ** rng.uniform(-2.0, 1.0)
        z = complex(rng.normal(0.0, 2.5), rng.normal(0.0, 2.5))
        diff = abs(prox(spec, z, c) - prox_oracle(spec, z, c, grid_n=121))
        worst = max(worst, diff / max(1.0, abs(z)))
        assert diff <= 1e-6 * max(1.0, abs(z))
    elapsed = time.time() - t0
    assert elapsed < 30.0
    print(f"PASS criterion 1: prox vs oracle, worst scaled gap {worst:.2e} "
          f"in {elapsed:.1f}s")


def product_rule(alpha, chi, p, lam_s):
    """Oracle: the unitarily invariant forms of lambda_rs and D,
        lambda_rs = R^-2 d/dchi[(lambda_s chi - p) R(-chi)]
        D = lambda_s + alpha^-1 d/dchi[(p - lambda_s chi) chi R(-chi)],
    expanded by the product rule and evaluated on the Marchenko-Pastur
    R(w) = alpha/(1 - w)."""
    r = alpha / (1.0 + chi)
    dr = -alpha / (1.0 + chi) ** 2
    lrs = (lam_s * r + (lam_s * chi - p) * dr) / (r * r)
    d = lam_s + ((p - 2.0 * lam_s * chi) * r + (p - lam_s * chi) * chi * dr) / alpha
    return lrs, d


def test_criterion_02_analytic_reductions():
    worst_l, worst_d = 0.0, 0.0
    for alpha, lam_s, p in ((0.5, 1.0, 0.5), (2.0, 1.4, 0.3), (0.8, 0.6, 1.7)):
        params = SystemParams(alpha=alpha, lambda_s=lam_s, penalty=PenaltySpec())
        for chi in np.linspace(0.0, 50.0, 501):
            st = make_state(params, float(chi), p)
            lr, ref_d = product_rule(alpha, float(chi), p, lam_s)
            worst_l = max(worst_l, abs(st.lambda_rs - lr) / lr)
            d = replica._finalize(params, st, 0.0, 0).distortion
            worst_d = max(worst_d, abs(d - ref_d) / ref_d)
    assert worst_l <= 1e-12 and worst_d <= 1e-12
    print(f"PASS criterion 2: closed-form reductions, worst rel err "
          f"{max(worst_l, worst_d):.2e}")


def test_criterion_03_closed_vs_quadrature():
    rng = RandomStream(11013, 0).generator()
    worst = 0.0
    for family in ("full", "disk"):
        for _ in range(50):
            peak = rng.uniform(0.3, 6.0) if family == "disk" else None
            support = Support.disk(peak) if peak else Support.full_plane()
            params = SystemParams(
                alpha=rng.uniform(0.4, 2.5), lambda_s=rng.uniform(0.4, 2.0),
                penalty=PenaltySpec(lam=rng.uniform(0.0, 2.0),
                                    lam0=rng.uniform(0.0, 2.0),
                                    support=support))
            st = make_state(params, rng.uniform(0.05, 4.0), rng.uniform(0.05, 4.0))
            pc, cc = fixed_point_update(st)
            pq, cq = quadrature_update(params, st)
            worst = max(worst, abs(pc - pq), abs(cc - cq))
            assert abs(pc - pq) <= 1e-7 and abs(cc - cq) <= 1e-7
    print(f"PASS criterion 3: closed vs quadrature updates, worst gap {worst:.2e}")


def test_criterion_04_exact_solvable_point():
    t0 = time.time()
    sol = solve_fixed_point(SystemParams(alpha=2.0, lambda_s=1.0,
                                         penalty=PenaltySpec()))
    assert abs(sol.state.chi - 1.0) <= 1e-10
    assert abs(sol.state.p - 1.0) <= 1e-10
    assert abs(sol.distortion - 0.5) <= 1e-10

    report = monte_carlo(n=200, k=400, lambda_s=1.0, penalty=PenaltySpec(),
                         trials=100, master_seed=20241)
    assert abs(report.distortion_mean - 0.5) <= 0.03
    # spot-check the solver against plain least squares on a few instances
    for t in range(5):
        pr = generate_problem(200, 400, 1.0, PenaltySpec(), RandomStream(20241, t))
        x, *_ = np.linalg.lstsq(pr.H, pr.s, rcond=None)
        d_ls = float(np.linalg.norm(pr.s - pr.H @ x) ** 2 / 400)
        assert report.per_trial[t].distortion == pytest.approx(d_ls, rel=1e-6)
    elapsed = time.time() - t0
    assert elapsed < 120.0
    print(f"PASS criterion 4: replica (1, 1, 0.5) exact, empirical distortion "
          f"{report.distortion_mean:.4f} in {elapsed:.1f}s")


def test_criterion_05_convex_solver_equivalence():
    from lse_precoding.simulator import precode_ccd
    t0 = time.time()
    worst = 0.0
    for t in range(20):
        pr = generate_problem(64, 32, 1.0, PenaltySpec(lam=0.1),
                              RandomStream(20242, t))
        res = precode_ccd(pr)
        ref = precode_rzf(pr.H, pr.s, 0.1)
        rel = float(np.linalg.norm(res.x - ref) / np.linalg.norm(ref))
        worst = max(worst, rel)
        assert rel <= 1e-8
    elapsed = time.time() - t0
    assert elapsed < 10.0
    print(f"PASS criterion 5: coordinate descent vs ridge closed form, worst "
          f"rel gap {worst:.2e} in {elapsed:.1f}s")


def test_criterion_06_replica_vs_simulation(iv_a_point, iv_a_monte_carlo):
    _, _, sol = iv_a_point
    report, elapsed = iv_a_monte_carlo
    rel_d = abs(report.distortion_mean - sol.distortion) / sol.distortion
    assert rel_d <= 0.10
    assert abs(report.eta_mean - 0.5) <= 0.05
    assert abs(report.power_mean - 0.5) <= 0.05
    assert elapsed < 600.0
    print(f"PASS criterion 6: distortion gap {100 * rel_d:.2f}%, "
          f"eta {report.eta_mean:.3f}, power {report.power_mean:.3f} "
          f"in {elapsed:.0f}s")


def test_criterion_07_marginal_decoupling(iv_a_point, iv_a_monte_carlo):
    _, _, sol = iv_a_point
    report, _ = iv_a_monte_carlo
    law = np.abs(decoupled_sample(sol.state, RandomStream(20240, 1 << 52),
                                  10 ** 6))
    ks_law = ks_distance(report.magnitudes, law)
    mags = report.magnitudes.reshape(report.trials, 400)
    ks_half = ks_distance(mags[:, :200].ravel(), mags[:, 200:].ravel())
    assert ks_law <= 0.05
    assert ks_half <= 0.05
    print(f"PASS criterion 7: KS vs decoupled law {ks_law:.4f}, "
          f"index halves {ks_half:.4f}")


def test_criterion_08_antenna_saving_regression():
    results = {}
    for eta_t, band in ((0.5, (0.80, 0.90)), (0.3, (0.61, 0.71))):
        pt = operating_point(TARGETS, 2.0, eta_t, papr_db=None)
        eta_r = match_random_selection(2.0, 1.0, 0.5, pt.solution.distortion)
        assert band[0] <= eta_r <= band[1]
        saving = eta_r - eta_t
        assert 0.30 <= saving <= 0.40
        results[eta_t] = (eta_r, saving)
    print("PASS criterion 8: equal-distortion random fractions "
          + ", ".join(f"eta={k}: {v[0]:.3f} (saving {v[1]:.3f})"
                      for k, v in results.items()))


def test_criterion_09_peak_cap_regressions():
    # (a) the 8 dB curves track the unconstrained ones within 2 percent
    papr8 = 10.0 ** 0.8
    worst = 0.0
    for ainv in np.arange(1.0, 2.81, 0.2):
        for eta_t in (1.0, 0.5):
            free = operating_point(TARGETS, float(ainv), eta_t, papr_db=None)
            capped = operating_point(TARGETS, float(ainv), eta_t, papr_db=8.0)
            rel = abs(capped.solution.distortion - free.solution.distortion) \
                / free.solution.distortion
            worst = max(worst, rel)
            assert rel <= 0.02
    # (b) active-antenna savings at low peak caps, loads near one
    savings = {}
    for papr_db, center in ((3.0, 0.25), (0.0, 0.15)):
        ok = []
        for ainv in (1.1, 1.2):
            pt = operating_point(TARGETS, ainv, 0.5, papr_db=papr_db)
            eta_r = match_random_selection(ainv, 1.0, 0.5, pt.solution.distortion)
            saving = eta_r - 0.5
            savings[(papr_db, ainv)] = saving
            ok.append(abs(saving - center) <= 0.07)
        assert any(ok), (papr_db, savings)
    print(f"PASS criterion 9: 8 dB worst gap {100 * worst:.2f}%, savings "
          + ", ".join(f"{k[0]:g}dB@{k[1]}: {v:.3f}" for k, v in savings.items()))


def test_criterion_10_thread_count_determinism(tmp_path, monkeypatch):
    # the run is repeated serially and in three worker processes
    base = """
[run]
mode = compare
seed = 4242

[system]
alpha_inverse = 2.0
lambda_s = 1.0

[penalty]
support = full
lambda = 0.1
lambda0 = 0.05

[simulation]
n = 64
trials = 6
"""
    cfg = parse_config(base)
    cfg.out = str(tmp_path / "one")
    monkeypatch.setattr(simulator, "_trial_workers", lambda trials: 1)
    files_one = run(cfg)
    with open(files_one["manifest"]) as fh:
        manifest = fh.read()
    cfg2 = parse_config(manifest)
    cfg2.out = str(tmp_path / "two")
    monkeypatch.setattr(simulator, "_trial_workers", lambda trials: 3)
    files_two = run(cfg2)
    for name in files_one:
        with open(files_one[name], "rb") as f1, open(files_two[name], "rb") as f2:
            assert f1.read() == f2.read(), f"{name} differs across worker counts"
    print("PASS criterion 10: compare outputs byte-identical across worker counts")
