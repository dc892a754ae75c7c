import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from lse_precoding.numerics import RandomStream
from lse_precoding.penalty import (OutOfSupportError, PenaltySpec,
                                   constant_envelope_rule, gaussian_law,
                                   prox_array, thresholds)
from oracles import (active_fraction, closed_moments, constant_envelope_rim,
                     penalty_value, prox, prox_oracle)


def objective(spec, v, z, c):
    a = abs(v)
    return abs(v - z) ** 2 + c * (spec.lam * a * a + (spec.lam0 if v != 0 else 0.0))


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------

def test_thresholds_full_plane_no_l0():
    t = thresholds(PenaltySpec(lam=0.3), 1.7)
    assert t.tau == 0.0
    assert math.isinf(t.tau_tilde) and math.isinf(t.tau_hat)


def test_thresholds_disk_projection_case():
    t = thresholds(PenaltySpec(peak_power=1.0), 1.0)
    assert (t.tau, t.tau_tilde, t.tau_hat) == (0.0, 1.0, 1.0)


def test_thresholds_disk_degenerate_equality():
    # tau_hat's two arguments tie at 1: the max branch is exercised
    t = thresholds(PenaltySpec(lam=0.0, lam0=1.0, peak_power=1.0), 1.0)
    assert (t.tau, t.tau_tilde, t.tau_hat) == (1.0, 1.0, 1.0)


def test_thresholds_require_positive_weight():
    with pytest.raises(ValueError):
        thresholds(PenaltySpec(), 0.0)


@given(st.floats(0.0, 4.0), st.floats(0.01, 5.0), st.floats(0.01, 5.0))
@settings(max_examples=60, deadline=None)
def test_tau_monotone_in_l0_and_weight(lam, lam0, c):
    spec_lo = PenaltySpec(lam=lam, lam0=lam0)
    spec_hi = PenaltySpec(lam=lam, lam0=lam0 * 2.0)
    assert thresholds(spec_hi, c).tau >= thresholds(spec_lo, c).tau
    assert thresholds(spec_lo, c * 2.0).tau >= thresholds(spec_lo, c).tau


# ---------------------------------------------------------------------------
# prox
# ---------------------------------------------------------------------------

def test_prox_keeps_strong_symbol():
    spec = PenaltySpec(lam=0.0, lam0=1.0)
    assert prox(spec, 2.0 + 0.0j, 1.0) == 2.0 + 0.0j  # tau = 1


def test_prox_pure_shrinkage_without_l0():
    spec = PenaltySpec(lam=0.7)
    z = 1.3 - 0.4j
    assert prox(spec, z, 2.0) == z / (1.0 + 2.0 * 0.7)


def test_prox_disk_projection():
    spec = PenaltySpec(peak_power=1.0)
    assert prox(spec, 3.0 + 0.0j, 1.0) == pytest.approx(1.0 + 0.0j)


def test_prox_disk_drop_below_tau():
    # tau = sqrt(0.5) > 0.6, verified against the brute-force oracle below
    spec = PenaltySpec(lam=0.0, lam0=0.5, peak_power=1.0)
    assert prox(spec, 0.6 + 0.0j, 1.0) == 0.0
    assert prox_oracle(spec, 0.6 + 0.0j, 1.0, grid_n=201) == 0.0


def test_prox_zero_input_stays_zero():
    for spec in (PenaltySpec(), PenaltySpec(lam=1.0, lam0=2.0),
                 PenaltySpec(lam=0.5, lam0=0.1, peak_power=2.0)):
        v = prox(spec, 0.0 + 0.0j, 1.3)
        assert v == 0.0


def test_prox_zero_branch_is_exact_zero():
    spec = PenaltySpec(lam=0.2, lam0=3.0)
    v = prox(spec, 0.1 + 0.1j, 1.0)
    assert v == 0.0 and penalty_value(spec, v) == 0.0


def test_prox_oracle_contains_shrink_candidate():
    spec = PenaltySpec(lam=0.9)
    z = 0.8 + 0.3j
    assert prox_oracle(spec, z, 1.5) == z / (1.0 + 1.5 * 0.9)


def test_prox_oracle_rejects_coarse_grid():
    with pytest.raises(ValueError):
        prox_oracle(PenaltySpec(), 1.0 + 0.0j, 1.0, grid_n=50)


def _random_specs(rng, count):
    for _ in range(count):
        lam = rng.uniform(0.0, 3.0) * (rng.random() > 0.2)
        lam0 = rng.uniform(0.0, 3.0) * (rng.random() > 0.2)
        peak = None if rng.random() < 0.5 else rng.uniform(0.2, 5.0)
        c = 10.0 ** rng.uniform(-2, 1)
        z = complex(rng.normal(0, 2), rng.normal(0, 2))
        yield PenaltySpec(lam=lam, lam0=lam0, peak_power=peak), z, c


def test_prox_objective_certificate():
    rng = RandomStream(20241, 0).generator()
    for spec, z, c in _random_specs(rng, 500):
        v = prox(spec, z, c)
        candidates = [0.0 + 0.0j, z / (1.0 + c * spec.lam)]
        if spec.is_disk and z != 0:
            candidates.append(z / abs(z) * spec.radius)
        best = objective(spec, v, z, c)
        for w in candidates:
            if spec.is_disk and abs(w) > spec.radius + 1e-12:
                continue
            assert best <= objective(spec, w, z, c) + 1e-12


@given(st.floats(0, 2 * math.pi), st.floats(0.01, 4.0), st.floats(0.0, 2.0),
       st.floats(0.0, 2.0), st.floats(0.05, 5.0))
@example(theta=0.8238731597168758, mag=0.8238731597168758, lam=0.0,
         lam0=0.8238731597168758, c=0.8238731597168758)  # |z| at the threshold
@settings(max_examples=120, deadline=None)
def test_prox_phase_equivariance(theta, mag, lam, lam0, c):
    spec = PenaltySpec(lam=lam, lam0=lam0, peak_power=1.5)
    # compare against the prox of |w| itself: rot * z may round to a
    # magnitude an ulp off mag, which at |z| = threshold flips the branch
    w = cmath.exp(1j * theta) * (mag + 0.0j)
    expected = (w / abs(w)) * prox(spec, abs(w) + 0.0j, c)
    assert prox(spec, w, c) == pytest.approx(expected, abs=1e-12)


@given(st.floats(0.0, 6.0), st.floats(0.0, 3.0), st.floats(0.0, 3.0),
       st.floats(0.05, 5.0), st.floats(0.2, 4.0))
@settings(max_examples=120, deadline=None)
def test_prox_nonexpansive_energy(mag, lam, lam0, c, peak):
    spec = PenaltySpec(lam=lam, lam0=lam0, peak_power=peak)
    v = prox(spec, mag + 0.0j, c)
    assert abs(v) <= min(mag, math.sqrt(peak)) + 1e-12


def test_prox_array_matches_scalar():
    # scalar and vector paths may differ by an ulp through libm hypot, but
    # the branch decision (exact zero or not) must coincide
    rng = RandomStream(20242, 0).generator()
    spec = PenaltySpec(lam=0.4, lam0=0.8, peak_power=2.0)
    z = rng.normal(0, 2, 256) + 1j * rng.normal(0, 2, 256)
    vec = prox_array(thresholds(spec, 0.7), z)
    for i in range(256):
        s = prox(spec, complex(z[i]), 0.7)
        assert (vec[i] == 0) == (s == 0)
        assert abs(vec[i] - s) <= 1e-13 * max(1.0, abs(z[i]))


# Reference: prox_array as it was before its branches became masked ufunc
# passes; it gathers each branch's inputs and scatters the results. The
# package must write exactly the same bytes.
def _masked_index_prox_array(spec, z, c):
    t = thresholds(spec, c)
    z = np.asarray(z, dtype=complex)
    a = np.abs(z)
    out = np.zeros_like(z)
    shrink = (a >= t.tau) & (a <= t.tau_tilde)
    out[shrink] = z[shrink] * (1.0 / (1.0 + c * spec.lam))
    if spec.is_disk:
        rim = a >= t.tau_hat
        out[rim] = z[rim] * (spec.radius / a[rim])
    return out


def _weight():
    return st.just(0.0) | st.floats(0.0, 3.0)


@given(_weight(), _weight(), st.none() | st.floats(0.2, 4.0),
       st.floats(0.05, 5.0),
       st.lists(st.complex_numbers(max_magnitude=8.0, allow_nan=False,
                                   allow_infinity=False), max_size=40))
@example(lam=0.0, lam0=1.0, peak=1.0, c=1.0, extra=[])  # tau = tau_tilde = tau_hat
@example(lam=0.5, lam0=0.0, peak=2.0, c=0.7, extra=[])  # tau_tilde = tau_hat
@settings(max_examples=150, deadline=None)
def test_prox_array_bytes_match_masked_index_version(lam, lam0, peak, c, extra):
    spec = PenaltySpec(lam=lam, lam0=lam0, peak_power=peak)
    t = thresholds(spec, c)
    # magnitudes exactly at 0 and at each finite threshold, and an ulp
    # either side of each, on both axes and in both directions
    edges = [0.0]
    for m in (t.tau, t.tau_tilde, t.tau_hat):
        if math.isfinite(m):
            edges += [math.nextafter(m, 0.0), m, math.nextafter(m, math.inf)]
    z = np.array([m * u for m in edges for u in (1, -1, 1j, -1j)] + extra,
                 dtype=complex)
    assert np.array_equal(np.abs(z[:4 * len(edges)]), np.repeat(edges, 4))
    assert prox_array(t, z).tobytes() == \
        _masked_index_prox_array(spec, z, c).tobytes()


# ---------------------------------------------------------------------------
# Gaussian law of the rule
# ---------------------------------------------------------------------------

def _bits(values):
    return [float(v).hex() for v in values]


@given(_weight(), _weight(), st.none() | st.floats(0.2, 4.0),
       st.floats(0.05, 5.0), st.floats(0.05, 10.0))
@example(lam=0.0, lam0=3.0, peak=0.2, c=1.0, lrs=1.0)  # tau > tau_tilde
@example(lam=0.0, lam0=1.0, peak=1.0, c=1.0, lrs=0.7)  # tau = tau_tilde = tau_hat
@example(lam=0.5, lam0=0.0, peak=None, c=0.7, lrs=2.0)  # tau = 0, full plane
@settings(max_examples=300, deadline=None)
def test_gaussian_law_matches_closed_forms_bit_for_bit(lam, lam0, peak, c, lrs):
    # the one law reads b, shrink, sqrt(P) and P from the rule; the old
    # closed forms derived them from (spec, c) themselves
    spec = PenaltySpec(lam=lam, lam0=lam0, peak_power=peak)
    t = thresholds(spec, c)
    assert _bits(gaussian_law(t, lrs)) == \
        _bits(closed_moments(spec, t, c, lrs) + (active_fraction(spec, t, lrs),))


@given(st.floats(0.05, 8.0), st.just(1.0) | st.floats(0.01, 1.0),
       st.floats(0.05, 10.0))
@example(peak=1.0, eta=1.0, lrs=1.0)  # tau_hat = 0
@settings(max_examples=200, deadline=None)
def test_gaussian_law_matches_constant_envelope_bit_for_bit(peak, eta, lrs):
    m, tau_hat = constant_envelope_rim(peak, eta, lrs)
    t = constant_envelope_rule(peak, tau_hat)
    assert (t.tau, t.tau_tilde, t.tau_hat) == (tau_hat, tau_hat, tau_hat)
    # the rule at b = 1 is the prox of lam = 0 on the disk of power `peak`
    spec = PenaltySpec(peak_power=peak)
    law = gaussian_law(t, lrs)
    assert _bits(law) == \
        _bits(closed_moments(spec, t, 1.0, lrs) + (active_fraction(spec, t, lrs),))
    assert _bits(law[1:2]) == _bits([m])


# ---------------------------------------------------------------------------
# penalty value
# ---------------------------------------------------------------------------

def test_penalty_value_zero():
    assert penalty_value(PenaltySpec(lam=2.0, lam0=3.0), 0.0) == 0.0


def test_penalty_value_direct():
    assert penalty_value(PenaltySpec(lam=2.0, lam0=3.0), 1.0 + 0.0j) == 5.0


def test_penalty_value_tiny_nonzero_counts():
    assert penalty_value(PenaltySpec(lam=0.0, lam0=1.0), 1e-30 + 0.0j) == 1.0


def test_penalty_value_out_of_support():
    spec = PenaltySpec(peak_power=1.0)
    with pytest.raises(OutOfSupportError):
        penalty_value(spec, 1.1 + 0.0j)


def test_spec_validation():
    with pytest.raises(ValueError):
        PenaltySpec(lam=-0.1)
    for peak in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            PenaltySpec(peak_power=peak)
