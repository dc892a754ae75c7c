"""Marchenko-Pastur closed forms of the replica state: R(w) = alpha/(1 - w),
the decoupled input variance lambda_rs and the asymptotic distortion."""
import numpy as np
import pytest

from lse_precoding import replica
from lse_precoding.penalty import PenaltySpec
from lse_precoding.replica import SystemParams, make_state


def central_diff(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2 * h)


def mp_params(alpha, lam_s=1.0):
    return SystemParams(alpha=alpha, lambda_s=lam_s, penalty=PenaltySpec())


def mp_r(alpha, chi):
    """R(-chi) as the package evaluates it."""
    return replica._mp_r(mp_params(alpha), chi)


def lambda_rs(alpha, chi, p, lam_s):
    return make_state(mp_params(alpha, lam_s), chi, p).lambda_rs


def distortion(alpha, chi, p, lam_s):
    params = mp_params(alpha, lam_s)
    return replica._finalize(params, make_state(params, chi, p), 0.0, 0).distortion


def test_mp_at_zero_equals_mean_eigenvalue():
    assert mp_r(0.5, 0.0) == pytest.approx(0.5, rel=1e-15)
    # kappa = 1/R(-chi) is the inverse mean eigenvalue at chi = 0
    assert make_state(mp_params(0.5), 0.0, 0.5).kappa == pytest.approx(2.0, rel=1e-15)


def test_mp_direct_substitution():
    assert mp_r(1.0, 1.0) == pytest.approx(0.5, rel=1e-15)
    assert mp_r(2.0, 3.0) == pytest.approx(0.5, rel=1e-15)
    assert make_state(mp_params(2.0), 3.0, 0.5).kappa == pytest.approx(2.0, rel=1e-15)


def test_mp_rejects_nonpositive_load():
    with pytest.raises(ValueError):
        mp_params(0.0)
    with pytest.raises(ValueError):
        mp_params(-1.0)


# ---------------------------------------------------------------------------
# decoupled input variance
# ---------------------------------------------------------------------------

def test_lambda_rs_examples():
    assert lambda_rs(0.5, 0.7, 0.5, 1.0) == pytest.approx(3.0, rel=1e-14)
    assert lambda_rs(1.0, 2.3, 0.0, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert lambda_rs(2.0, 5.0, 1.0, 2.0) == pytest.approx(1.5, rel=1e-14)


def test_lambda_rs_mp_collapse():
    # (lambda_s + p)/alpha for every chi, to machine precision
    for alpha, lam_s, p in ((0.5, 1.0, 0.5), (2.0, 1.3, 0.2), (1.0, 0.7, 2.0)):
        expected = (lam_s + p) / alpha
        for chi in np.linspace(0.0, 50.0, 201):
            got = lambda_rs(alpha, float(chi), p, lam_s)
            assert got == pytest.approx(expected, rel=1e-12)


def test_lambda_rs_matches_product_rule_oracle():
    # finite difference of chi -> (lambda_s chi - p) R(-chi), independent of
    # the closed form
    alpha, lam_s, p, chi = 0.8, 1.2, 0.4, 0.9

    def product(x):
        return (lam_s * x - p) * mp_r(alpha, x)

    expected = central_diff(product, chi) / mp_r(alpha, chi) ** 2
    assert lambda_rs(alpha, chi, p, lam_s) == pytest.approx(expected, rel=1e-9)


# ---------------------------------------------------------------------------
# asymptotic distortion
# ---------------------------------------------------------------------------

def test_distortion_examples():
    assert distortion(0.5, 1.0, 0.5, 1.0) == pytest.approx(0.375, rel=1e-14)
    # chi = 0 plug-in gives lambda_s + p
    assert distortion(0.5, 0.0, 0.7, 1.0) == pytest.approx(1.7, rel=1e-14)
    assert distortion(2.0, 1.0, 1.0, 1.0) == pytest.approx(0.5, rel=1e-14)


def test_distortion_mp_collapse():
    for alpha, lam_s, p in ((0.5, 1.0, 0.5), (2.0, 1.3, 0.2), (1.0, 0.7, 2.0)):
        for chi in np.linspace(0.0, 50.0, 201):
            got = distortion(alpha, float(chi), p, lam_s)
            assert got == pytest.approx((lam_s + p) / (1.0 + chi) ** 2, rel=1e-12)


def test_distortion_matches_product_rule_oracle():
    alpha, lam_s, p, chi = 1.4, 0.9, 1.1, 0.6

    def product(x):
        return (p - lam_s * x) * x * mp_r(alpha, x)

    expected = lam_s + central_diff(product, chi) / alpha
    assert distortion(alpha, chi, p, lam_s) == pytest.approx(expected, rel=1e-9)
