"""The replica state's Marchenko-Pastur closed form of the asymptotic
distortion, checked against product-rule oracles built on R(w) =
alpha/(1 - w) (whose own values `test_replica` checks)."""
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


def distortion(alpha, chi, p, lam_s):
    params = mp_params(alpha, lam_s)
    return replica._finalize(params, make_state(params, chi, p), 0.0, 0).distortion


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
