import math

import numpy as np
import pytest

from lse_precoding.numerics import RandomStream
from lse_precoding import replica
from lse_precoding.penalty import PenaltySpec, Support
from lse_precoding.replica import (NoConvergenceError, NotAchievableError,
                                   SystemParams, calibrate, decoupled_sample,
                                   fixed_point_update, make_state,
                                   random_tas_baseline,
                                   solve_constant_envelope, solve_fixed_point)
from oracles import quadrature_update

FULL = Support.full_plane()


def mp_params(alpha, lam_s=1.0, lam=0.0, lam0=0.0, peak=None):
    support = Support.disk(peak) if peak is not None else FULL
    return SystemParams(alpha=alpha, lambda_s=lam_s,
                        penalty=PenaltySpec(lam=lam, lam0=lam0, support=support))


# ---------------------------------------------------------------------------
# state derivation
# ---------------------------------------------------------------------------

def test_state_derived_quantities():
    params = mp_params(0.5, lam_s=1.0, lam=0.2, lam0=0.1)
    st = make_state(params, chi=1.4, p=0.7)
    assert st.lambda_rs == pytest.approx((1.0 + 0.7) / 0.5, rel=1e-14)
    assert st.kappa == pytest.approx((1.0 + 1.4) / 0.5, rel=1e-14)
    assert st.thresholds.tau == pytest.approx(
        math.sqrt(st.kappa * 0.1 * (1.0 + st.kappa * 0.2)), rel=1e-14)


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(alpha=0.0, lambda_s=1.0, penalty=PenaltySpec())


# ---------------------------------------------------------------------------
# one-step update
# ---------------------------------------------------------------------------

def test_update_at_true_fixed_point():
    # alpha=2, lambda_s=1, no penalty: (chi, p) = (1, 1) solves the system
    params = mp_params(2.0)
    st = make_state(params, 1.0, 1.0)
    p_new, chi_new = fixed_point_update(st)
    assert p_new == pytest.approx(1.0, abs=1e-14)
    assert chi_new == pytest.approx(1.0, abs=1e-14)


def test_update_zero_threshold_power():
    # without the zero-norm weight the power update is lambda_rs / (1+k lam)^2
    params = mp_params(0.8, lam_s=1.2, lam=0.6)
    st = make_state(params, 0.9, 0.4)
    p_new, _ = fixed_point_update(st)
    b = 1.0 + st.kappa * 0.6
    assert p_new == pytest.approx(st.lambda_rs / b ** 2, rel=1e-14)


def test_update_large_peak_matches_full_plane():
    full = mp_params(0.5, lam=0.3, lam0=0.2)
    disk = mp_params(0.5, lam=0.3, lam0=0.2, peak=1e6)
    stf = make_state(full, 0.8, 0.6)
    std = make_state(disk, 0.8, 0.6)
    pf, cf = fixed_point_update(stf)
    pd_, cd = fixed_point_update(std)
    assert pd_ == pytest.approx(pf, rel=1e-4)
    assert cd == pytest.approx(cf, rel=1e-4)


@pytest.mark.parametrize("peak", [None, 2.0])
def test_update_closed_vs_quadrature(peak):
    rng = RandomStream(77, 0).generator()
    for _ in range(12):
        params = mp_params(alpha=rng.uniform(0.4, 2.5),
                           lam_s=rng.uniform(0.4, 2.0),
                           lam=rng.uniform(0.0, 2.0),
                           lam0=rng.uniform(0.0, 2.0),
                           peak=peak and rng.uniform(0.3, 6.0))
        st = make_state(params, rng.uniform(0.05, 4.0), rng.uniform(0.05, 4.0))
        pc, cc = fixed_point_update(st)
        pq, cq = quadrature_update(params, st)
        assert abs(pc - pq) <= 1e-7
        assert abs(cc - cq) <= 1e-7


# ---------------------------------------------------------------------------
# fixed-point solve
# ---------------------------------------------------------------------------

def test_solve_exact_point():
    sol = solve_fixed_point(mp_params(2.0))
    assert sol.state.chi == pytest.approx(1.0, abs=1e-10)
    assert sol.state.p == pytest.approx(1.0, abs=1e-10)
    assert sol.distortion == pytest.approx(0.5, abs=1e-10)
    assert sol.eta == 1.0
    assert math.isinf(sol.papr)


def test_solve_eta_is_one_without_l0():
    sol = solve_fixed_point(mp_params(0.5, lam=0.25))
    assert sol.eta == 1.0


def test_solve_certificate():
    params = mp_params(0.6, lam=0.2, lam0=0.3)
    sol = solve_fixed_point(params, tol=1e-12)
    p_new, chi_new = fixed_point_update(sol.state)
    assert abs(p_new - sol.state.p) <= 1e-11
    assert abs(chi_new - sol.state.chi) <= 1e-11


def test_solve_large_peak_reduction():
    full = solve_fixed_point(mp_params(0.5, lam=0.3, lam0=0.2))
    lrs = full.state.lambda_rs
    disk = solve_fixed_point(mp_params(0.5, lam=0.3, lam0=0.2, peak=1e4 * lrs))
    assert disk.state.p == pytest.approx(full.state.p, rel=1e-3)
    assert disk.state.chi == pytest.approx(full.state.chi, rel=1e-3)
    assert disk.distortion == pytest.approx(full.distortion, rel=1e-3)
    assert disk.eta == pytest.approx(full.eta, rel=1e-3)


def test_solve_divergent_region_raises():
    # no quadratic weight below unit load: the response diverges
    with pytest.raises(NoConvergenceError):
        solve_fixed_point(mp_params(0.5), max_iter=400)


# ---------------------------------------------------------------------------
# decoupled sampling
# ---------------------------------------------------------------------------

def test_decoupled_all_zero_for_huge_l0():
    params = mp_params(0.5, lam=0.0, lam0=500.0)
    st = make_state(params, 1.0, 0.5)
    out = decoupled_sample(st, RandomStream(5, 0), 4096)
    assert np.all(out == 0)


def test_decoupled_identity_prox_is_gaussian():
    params = mp_params(2.0)
    sol = solve_fixed_point(params)
    out = decoupled_sample(sol.state, RandomStream(5, 1), 200_000)
    var = float(np.mean(np.abs(out) ** 2))
    assert var == pytest.approx(sol.state.lambda_rs, rel=0.02)


def test_decoupled_active_fraction_matches_eta():
    params = mp_params(0.5, lam=0.15593417145704414, lam0=0.11475326486959826)
    sol = solve_fixed_point(params)
    count = 10 ** 6
    out = decoupled_sample(sol.state, RandomStream(5, 2), count)
    frac = float(np.mean(out != 0))
    bound = 3.0 * math.sqrt(sol.eta * (1 - sol.eta) / count)
    assert abs(frac - sol.eta) <= bound


def test_decoupled_constant_envelope_state():
    # the 0 dB cap at p = 0.5, eta = 0.5 clamps to the boundary p = eta P
    # with P = 0.5: every active symbol sits on the rim
    sol, _, _ = solve_constant_envelope(mp_params(0.5), 0.25, 0.5)
    count = 10 ** 6
    out = decoupled_sample(sol.state, RandomStream(5, 4), count)
    active = out[out != 0]
    bound = 4.0 * math.sqrt(sol.eta * (1 - sol.eta) / count)
    assert abs(active.size / count - sol.eta) <= bound
    assert np.max(np.abs(np.abs(active) / math.sqrt(0.5) - 1.0)) <= 1e-12


def test_decoupled_sampling_is_deterministic():
    params = mp_params(2.0)
    sol = solve_fixed_point(params)
    a = decoupled_sample(sol.state, RandomStream(11, 3), 64)
    b = decoupled_sample(sol.state, RandomStream(11, 3), 64)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def test_calibrate_full_power_only():
    lam, lam0, sol = calibrate(mp_params(0.5), p_star=0.5, eta_star=1.0)
    assert lam0 == 0.0
    assert sol.state.p == pytest.approx(0.5, abs=1e-8)
    # frozen regression anchor, exact closed form chi = 2 + sqrt(6)
    assert lam == pytest.approx(0.1329931619, abs=1e-6)
    assert sol.state.chi == pytest.approx(2.0 + math.sqrt(6.0), abs=1e-8)


def test_calibrate_both_targets():
    lam, lam0, sol = calibrate(mp_params(0.5), p_star=0.5, eta_star=0.5)
    assert sol.state.p == pytest.approx(0.5, abs=1e-8)
    assert sol.eta == pytest.approx(0.5, abs=1e-8)
    # frozen regression anchors from the first validated run
    assert lam == pytest.approx(0.15593417, abs=1e-6)
    assert lam0 == pytest.approx(0.11475326, abs=1e-6)
    assert sol.distortion == pytest.approx(0.092811948, abs=1e-7)


def counting_solves(monkeypatch):
    """Route replica.solve_fixed_point through a counter; returns the list
    that collects one entry per call."""
    calls = []
    solve = replica.solve_fixed_point

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(replica, "solve_fixed_point", counted)
    return calls


# (eta target, peak cap in dB or None). A 3 dB cap with eta = 0.5 is left
# out: p <= eta * P rules it out (test_calibrate_infeasible_peak_cap).
CALIBRATION_GRID = [(1.0, None), (0.5, None), (0.3, None),
                    (1.0, 3.0), (1.0, 8.0), (0.5, 8.0)]


@pytest.mark.parametrize("alpha_inverse", [1.2, 2.0])
@pytest.mark.parametrize("eta, papr_db", CALIBRATION_GRID)
def test_calibrate_one_solve_meets_targets(monkeypatch, alpha_inverse, eta,
                                           papr_db):
    # the weights come from inverting the state equations; one forward
    # solve certifies them
    calls = counting_solves(monkeypatch)
    papr = None if papr_db is None else 10.0 ** (papr_db / 10.0)
    lam, lam0, sol = calibrate(mp_params(1.0 / alpha_inverse), p_star=0.5,
                               eta_star=eta, papr_star=papr)
    assert len(calls) == 1
    assert calls[0][0].penalty.lam == lam
    assert calls[0][0].penalty.lam0 == lam0
    assert abs(sol.state.p - 0.5) <= 1e-10
    assert abs(sol.eta - eta) <= 1e-10


@pytest.mark.parametrize("alpha, p_star, reason", [
    # the power target needs b = 1 + kappa lam below 1/alpha, where no
    # response chi is self-consistent
    (0.3, 0.5, "no response chi"),
    # lambda_rs = 1.5 below the power target: lam would be negative
    (2.0, 2.0, "unpenalized decoupled power"),
])
def test_calibrate_infeasible_power_target_is_named(monkeypatch, alpha, p_star,
                                                    reason):
    # named at once, before any fixed-point solve
    calls = counting_solves(monkeypatch)
    with pytest.raises(NotAchievableError, match=reason):
        calibrate(mp_params(alpha), p_star=p_star, eta_star=1.0)
    assert calls == []


def test_calibrate_near_the_load_limit():
    # just inside the first limit above the response runs far out (chi ~ 300)
    _, _, sol = calibrate(mp_params(0.3), p_star=0.4245, eta_star=1.0)
    assert sol.state.chi > 200
    assert abs(sol.state.p - 0.4245) <= 1e-10


def test_calibrate_names_a_missed_target(monkeypatch):
    # the certifying solve rejects weights whose fixed point misses a target
    invert = replica._invert_targets

    def off(*args):
        lam, lam0 = invert(*args)
        return 1.01 * lam, lam0

    monkeypatch.setattr(replica, "_invert_targets", off)
    with pytest.raises(NotAchievableError, match="misses the targets"):
        calibrate(mp_params(0.5), p_star=0.5, eta_star=0.5)


def test_calibrate_high_papr_matches_full_plane():
    _, _, full = calibrate(mp_params(0.5), p_star=0.5, eta_star=0.5)
    _, _, disk = calibrate(mp_params(0.5), p_star=0.5, eta_star=0.5,
                           papr_star=10.0 ** 0.8)
    assert disk.distortion == pytest.approx(full.distortion, rel=0.02)


def test_calibrate_infeasible_peak_cap():
    # p <= eta * P is a hard bound; papr 1.2 with eta 0.5 violates it
    with pytest.raises(NotAchievableError):
        calibrate(mp_params(0.5), p_star=0.5, eta_star=0.5, papr_star=1.2)


def test_calibrate_boundary_dispatches_to_constant_envelope():
    # papr = 1/eta sits exactly on the feasibility boundary
    lam, lam0, sol = calibrate(mp_params(0.5), p_star=0.5, eta_star=0.5,
                               papr_star=2.0)
    assert sol.state.p == pytest.approx(0.5, abs=1e-10)
    assert sol.eta == pytest.approx(0.5, abs=1e-12)
    assert sol.papr == pytest.approx(2.0, rel=1e-12)


def test_constant_envelope_all_antennas():
    # eta = 1 at the boundary is the all-at-peak limit: p = P
    sol, lam, lam0 = solve_constant_envelope(mp_params(0.5), 0.5, 1.0)
    assert sol.eta == 1.0
    assert sol.papr == pytest.approx(1.0)
    assert sol.state.thresholds.tau_hat == 0.0
    assert math.isnan(lam)
    # distortion between the unconstrained value and the data variance
    assert 0.05 < sol.distortion < 1.0


def test_constant_envelope_consistency_with_update():
    # the boundary state is an exact fixed point of the closed-form map
    params = mp_params(0.5)
    sol, _, _ = solve_constant_envelope(params, 0.5, 0.5)
    p_new, chi_new = fixed_point_update(sol.state)
    assert p_new == pytest.approx(sol.state.p, abs=1e-10)
    assert chi_new == pytest.approx(sol.state.chi, abs=1e-10)


def test_fixed_point_overflow_is_named():
    # no penalty and more antennas than users: no fixed point exists and chi
    # runs off until an iterate is no longer finite
    with pytest.raises(NoConvergenceError, match="iterate is not finite") as info:
        solve_fixed_point(mp_params(0.5))
    assert info.value.state is not None
    assert info.value.state.chi > 1e300


def test_calibrate_monotone_distortion_in_eta():
    # more antenna freedom never hurts at fixed power and load
    ds = []
    for eta in (0.3, 0.5, 0.75, 1.0):
        _, _, sol = calibrate(mp_params(0.5), p_star=0.5, eta_star=eta)
        ds.append(sol.distortion)
    assert all(a >= b - 1e-12 for a, b in zip(ds, ds[1:]))


# ---------------------------------------------------------------------------
# random selection baseline
# ---------------------------------------------------------------------------

def test_baseline_full_selection_equals_ridge_solution():
    params = mp_params(0.5)
    base = random_tas_baseline(params, 1.0, 0.5)
    _, _, ref = calibrate(params, p_star=0.5, eta_star=1.0)
    assert base.distortion == pytest.approx(ref.distortion, rel=1e-9)
    assert base.eta == pytest.approx(1.0)


def test_baseline_improves_with_more_antennas():
    params = mp_params(0.5)
    ds = [random_tas_baseline(params, er, 0.5).distortion
          for er in (0.5, 0.7, 0.9)]
    assert ds[0] > ds[1] > ds[2]


def test_baseline_matches_frozen_pairings():
    # random-selection fractions that tie the calibrated solutions at
    # inverse load 2: frozen after first validated computation
    params = mp_params(0.5)
    _, _, opt5 = calibrate(params, p_star=0.5, eta_star=0.5)
    _, _, opt3 = calibrate(params, p_star=0.5, eta_star=0.3)
    d85 = random_tas_baseline(params, 0.8465735903, 0.5).distortion
    d66 = random_tas_baseline(params, 0.6611918413, 0.5).distortion
    assert d85 == pytest.approx(opt5.distortion, rel=1e-6)
    assert d66 == pytest.approx(opt3.distortion, rel=1e-6)
