import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings
import hypothesis.strategies as st

import oracles
from lse_precoding.numerics import (EmptySampleError, NonFiniteError,
                                    RandomStream, complex_normal, ks_distance,
                                    q_function)
from lse_precoding.replica import NotAchievableError, _root_of_decreasing
from oracles import ShapeMismatchError, radial_expectation


# ---------------------------------------------------------------------------
# Q-function
# ---------------------------------------------------------------------------

def q_oracle(x: float):
    """Q at the exact double x as a 40-digit mpmath number, independent of
    the implementation."""
    import mpmath
    mpmath.mp.dps = 40
    return mpmath.erfc(mpmath.mpf(x) / mpmath.sqrt(2)) / 2


def test_q_at_zero():
    assert q_function(0.0) == 0.5


def test_q_deep_tail():
    v = q_function(40.0)
    assert 0.0 <= v <= 1e-300


def test_q_against_series_oracle():
    # the reference is Q at the exact double x. For x >= 0 the error is also
    # bounded relative to Q: Q(8) is 6e-16, so the absolute bound says
    # nothing past x = 7, and rounding x / sqrt(2) alone costs up to
    # x^2 ulp(1)/2 ~ 7e-15 there. 1.96, the two-sided 95 % point, is off the
    # grid's doubles, so it is added.
    for x in np.linspace(-8.0, 8.0, 3201).tolist() + [1.96]:
        exact = q_oracle(x)
        err = abs(q_function(x) - exact)
        assert err <= 1e-12, x
        if x >= 0.0:
            assert err <= 1e-14 * exact, x


def test_q_monotone_decreasing():
    # below x ~ -7.5 adjacent grid values differ by ~5e-19, under the ulp of
    # 1.0, so binary64 cannot resolve a strict decrease there
    xs = np.arange(-8.0, 8.0 + 1e-3, 1e-3)
    vals = np.array([q_function(x) for x in xs.tolist()])
    assert np.all(np.diff(vals) <= 0)
    strict = xs[:-1] >= -7.4
    assert np.all(np.diff(vals)[strict] < 0)


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

def test_root_linear():
    assert _root_of_decreasing(lambda u: 1.0 - u, "t") == 1.0


def test_root_sqrt2():
    x = _root_of_decreasing(lambda u: 2.0 - u * u, "t")
    assert x == pytest.approx(math.sqrt(2.0), rel=4e-16)


def test_root_q_quantile():
    # quantile from the erfc oracle: Q(0.67449) = 0.25
    x = _root_of_decreasing(lambda u: q_function(u) - 0.25, "t")
    assert x == pytest.approx(0.67449, abs=1e-4)
    assert abs(q_function(x) - 0.25) <= 1e-15


def test_root_no_sign_change():
    # a positive f that only tends to 0 never brackets a root
    with pytest.raises(NotAchievableError, match="^active fraction 1e-100 is out of reach"):
        _root_of_decreasing(lambda u: math.exp(-u), "active fraction 1e-100")


def test_root_non_finite():
    # the walk brackets [0, 1]; the first refining point is 0.5
    with pytest.raises(NonFiniteError):
        _root_of_decreasing(lambda u: math.nan if 0.1 < u < 0.9 else 0.5 - u, "t")


def test_root_of_a_step_is_a_point_of_the_final_bracket():
    # no point has |f| <= 1e-15, so the search ends on the bracket width;
    # the answer sits at the step, on the side where |f| is smaller, and
    # not at the starting end, which has the smallest |f| ever seen
    calls = []

    def f(u):
        calls.append(u)
        return 1.0 if u < 0.999 else -8.0

    x = _root_of_decreasing(f, "t")
    assert 0.999 - 2e-15 <= x < 0.999
    # the walk's two values are reused, not computed again
    assert calls[:2] == [0.0, 1.0] and calls.count(0.0) == calls.count(1.0) == 1
    assert len(calls) < 2 + 200


def test_bracket_steps_run_out():
    xs = []

    def f(u):
        xs.append(u)
        return 1.0

    with pytest.raises(NotAchievableError, match="^power 9 is out of reach"):
        _root_of_decreasing(f, "power 9")
    assert xs == [float(i) for i in range(1 + 200)]


def test_bracket_non_finite():
    with pytest.raises(NonFiniteError):
        _root_of_decreasing(lambda u: math.nan, "t")
    with pytest.raises(NonFiniteError):
        _root_of_decreasing(lambda u: 1.0 if u < 3.0 else math.inf, "t")


@given(st.floats(0, 3), st.floats(0.1, 3))
@settings(max_examples=50, deadline=None)
def test_root_residual_bound(root, scale):
    def f(u):
        return -scale * (u - root) * (1.0 + 0.1 * (u - root) ** 2)

    x = _root_of_decreasing(f, "t")
    # the bracket ends at most 1e-15 max(1, hi) <= 4e-15 wide, where the
    # slope is at most 3 (1 + 0.3 * 4e-15^2) ~ 3
    assert abs(f(x)) <= 1.2e-14


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov distance
# ---------------------------------------------------------------------------

def test_ks_identical_samples():
    a = [0.3, -1.2, 4.5, 0.0]
    assert ks_distance(a, list(a)) == 0.0


def test_ks_empty_sample():
    with pytest.raises(EmptySampleError):
        ks_distance([], [1.0])
    with pytest.raises(EmptySampleError):
        ks_distance([1.0], [])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # scipy kstwo internals
@given(st.lists(st.floats(-10, 10), min_size=1, max_size=40),
       st.lists(st.floats(-10, 10), min_size=1, max_size=40))
@settings(max_examples=80, deadline=None)
def test_ks_matches_scipy(a, b):
    ours = ks_distance(a, b)
    ref = scipy.stats.ks_2samp(a, b, method="asymp").statistic
    assert 0.0 <= ours <= 1.0
    assert ours == pytest.approx(float(ref), abs=1e-12)


# Reference: both EDFs evaluated at the union of the sample points.
def _reference_ks_distance(sample_a, sample_b) -> float:
    a = np.sort(np.asarray(sample_a, dtype=float))
    b = np.sort(np.asarray(sample_b, dtype=float))
    pts = np.concatenate([a, b])
    fa = np.searchsorted(a, pts, side="right") / a.size
    fb = np.searchsorted(b, pts, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


@given(st.lists(st.integers(-6, 6), min_size=1, max_size=40),
       st.lists(st.integers(-6, 6), min_size=1, max_size=40),
       st.sampled_from([0.0, -20.0, 20.0]))
@settings(max_examples=200, deadline=None)
def test_ks_matches_union_point_reference(a, b, shift):
    # rounded samples tie within and across samples; the shift puts all of
    # b below or above a
    assume(len(a) != len(b))
    a = [0.25 * v for v in a]
    b = [0.25 * v + shift for v in b]
    assert ks_distance(a, b) == _reference_ks_distance(a, b)
    assert ks_distance(b, a) == _reference_ks_distance(b, a)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_radial_expectation_normalization():
    for variance in (0.25, 1.0, 7.3):
        assert radial_expectation(lambda r: np.ones_like(r), variance) == \
            pytest.approx(1.0, rel=1e-12)


def test_radial_expectation_second_moment():
    variance = 2.4
    val = radial_expectation(lambda r: r ** 2, variance,
                             tail=(0.0, 0.0, 1.0))
    assert val == pytest.approx(variance, rel=1e-12)


def test_radial_expectation_indicator():
    # mass above a magnitude threshold equals exp(-tau^2 / variance)
    variance, tau = 1.3, 0.9
    val = radial_expectation(lambda r: (r >= tau).astype(float), variance,
                             breakpoints=(tau,), tail=(1.0, 0.0, 0.0))
    assert val == pytest.approx(math.exp(-tau * tau / variance), rel=1e-10)


@given(st.floats(0.0, 9.9), st.floats(0.01, 10.0), st.floats(0.05, 4.0))
@settings(max_examples=60, deadline=None)
def test_radial_expectation_interval_indicator(a_frac, gap, variance):
    sigma = math.sqrt(variance)
    a = a_frac * sigma
    b = min(a + gap * sigma, 10.0 * sigma)
    if b <= a:
        return
    val = radial_expectation(lambda r: ((r >= a) & (r < b)).astype(float),
                             variance, breakpoints=(a, b))
    exact = math.exp(-a * a / variance) - math.exp(-b * b / variance)
    assert abs(val - exact) <= 1e-8 * max(1.0, abs(exact))


def test_legendre_rule_integrates_even_monomials():
    # radial_expectation's 64-point panel rule is exact for degree <= 127:
    # int_{-1}^{1} x^2m = 2/(2m+1)
    from numpy.polynomial.legendre import leggauss
    nodes, weights = leggauss(oracles._NODES_PER_PANEL)
    assert nodes.shape == weights.shape == (64,)
    for m in range(64):
        exact = 2.0 / (2 * m + 1)
        assert abs(float(np.dot(weights, nodes ** (2 * m))) - exact) <= 1e-12 * exact, m


def test_radial_expectation_non_finite():
    with pytest.raises(NonFiniteError):
        radial_expectation(lambda r: np.where(r > 1, np.inf, 1.0), 1.0)


def test_radial_expectation_needs_one_value_per_node():
    # g is called on the node array itself; a scalar-only function or a
    # scalar result is an error, not a cue to loop or broadcast
    with pytest.raises(TypeError):
        radial_expectation(lambda r: math.exp(-r), 1.0)
    with pytest.raises(ShapeMismatchError):
        radial_expectation(lambda r: 1.0, 1.0)


# ---------------------------------------------------------------------------
# random streams
# ---------------------------------------------------------------------------

def test_stream_repeatability():
    a = RandomStream(123456789, 7).generator().standard_normal(32)
    b = RandomStream(123456789, 7).generator().standard_normal(32)
    assert np.array_equal(a, b)


def test_stream_distinct_indices():
    a = RandomStream(1, 0).generator().standard_normal(32)
    b = RandomStream(1, 1).generator().standard_normal(32)
    assert not np.array_equal(a, b)


def test_stream_key_derivation_is_stable():
    # the documented mixing must not drift between versions: these words pin
    # it, at the decoupled law's reserved index 1 << 52 too, and a seed of
    # 2**64 or more, or below 0, is taken modulo 2**64
    assert RandomStream(0, 0).key_words() == (12035550249420947055, 2558736989570252433)
    assert RandomStream(0, 1).key_words() == (6791897765849424158, 12793040940332582595)
    words = (17189906226252350294, 11551765290396061847)
    assert RandomStream(20240, 1 << 52).key_words() == words
    assert RandomStream((1 << 64) + 20240, 1 << 52).key_words() == words
    assert RandomStream(-1, 0).key_words() == (3303439293501059696, 8756501097250568067)


def test_stream_rejects_negative_index():
    with pytest.raises(ValueError):
        RandomStream(1, -1)


@pytest.mark.parametrize("size", [(200, 400), (200,), 10 ** 6],
                         ids=["channel", "symbols", "million"])
def test_complex_normal_matches_whole_array_expression(size):
    # forming the sample in place keeps the bytes of scale * (re + 1j im)
    out = complex_normal(RandomStream(3, 1).generator(), size, 1.0 / 400)
    ref = oracles.complex_normal_reference(RandomStream(3, 1).generator(),
                                           size, 1.0 / 400)
    assert out.dtype == np.complex128 and out.shape == ref.shape
    assert out.tobytes() == ref.tobytes()
