"""Tests for the quadratic curvature law, reduced objective, and lock-in."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from goldenschur.folded import moments
from goldenschur.golden import lambda_n
from goldenschur.lockin import (
    QuadLawCoeffs,
    bracket_residual,
    f_red_prime_q,
    f_red_q,
    kappa_quadratic,
    stationarity_check,
    synthesize_consistent_ab,
    uniqueness_scan,
)
from goldenschur.oracle import f_red_prime_direct_q
from goldenschur.qfield import Q5, QSTAR, decimal_str

# Reported reference constants for the N = 12 lock-in discussion; the
# residual they produce is informational, not a consistency requirement.
REPORTED = QuadLawCoeffs(0.707473678, -1.060165816, 12, 2.0)


def rand_exact_coeffs(rng, n=12):
    a = Fraction(rng.randint(-40, 40), rng.randint(1, 20))
    b = Fraction(rng.randint(-40, 40), rng.randint(1, 20))
    m2 = Fraction(rng.randint(1, 12), rng.randint(1, 4))
    return QuadLawCoeffs(a, b, n, m2)


# ---------------------------------------------------------------------------
# coefficient container
# ---------------------------------------------------------------------------


def test_coeffs_normalization_and_exactness():
    c = QuadLawCoeffs(1, -2, 12)
    assert c.is_exact
    assert isinstance(c.a, Fraction) and isinstance(c.m_rho_sq, Fraction)
    assert not QuadLawCoeffs(0.5, -1.0, 12, 2.0).is_exact
    assert QuadLawCoeffs(QSTAR, Fraction(1, 2), 12).is_exact
    cf = QuadLawCoeffs(Fraction(1, 2), -1, 12).as_floats()
    assert (cf.a, cf.b, cf.m_rho_sq) == (0.5, -1.0, 2.0)
    assert not cf.is_exact


@pytest.mark.parametrize(
    "a, b, m_rho_sq, message",
    [
        (1, Fraction(-1, 10**400), 2, "coefficient B is nonzero but underflows to 0.0"),
        (Q5(0, Fraction(1, 10**400)), 1, 2, "coefficient A is nonzero but underflows to 0.0"),
        (1, 1, Fraction(1, 10**400), "coefficient m_rho_sq is nonzero but underflows to 0.0"),
        (10**400, 1, 2, "coefficient A is too large for a float"),
        (Q5(0, 10**308), 1, 2, "coefficient A is too large for a float"),  # √5·10³⁰⁸ is inf
    ],
)
def test_as_floats_rejects_coefficients_a_float_cannot_hold(a, b, m_rho_sq, message):
    coeffs = QuadLawCoeffs(a, b, 12, m_rho_sq)
    with pytest.raises(ValueError, match=f"^{message}"):
        coeffs.as_floats()


def test_coeffs_reject_bad_mass():
    with pytest.raises(ValueError):
        QuadLawCoeffs(1, 1, 12, 0)
    with pytest.raises(ValueError):
        QuadLawCoeffs(1, 1, 12, Fraction(-2))


def test_coeffs_reject_bad_n():
    # folded's rule: a bool or a float is not a family size
    for n in (0, True, 12.0, 3.5):
        with pytest.raises(ValueError, match=f"family size must be a positive integer, got {n!r}"):
            QuadLawCoeffs(1, 1, n)


# ---------------------------------------------------------------------------
# κ(q) = A·I₁² + B·Var
# ---------------------------------------------------------------------------


def test_kappa_quadratic_components():
    q = Fraction(1, 2)
    m = moments(12, q)
    assert kappa_quadratic(QuadLawCoeffs(1, 0, 12), q) == m.i1 * m.i1
    assert kappa_quadratic(QuadLawCoeffs(0, 1, 12), q) == m.var
    assert kappa_quadratic(QuadLawCoeffs(2, -3, 12), q) == 2 * m.i1**2 - 3 * m.var


def test_kappa_quadratic_exact_at_qstar():
    m = moments(12, QSTAR)
    got = kappa_quadratic(QuadLawCoeffs(Fraction(7, 3), Fraction(-5, 4), 12), QSTAR)
    assert got == Fraction(7, 3) * m.i1 * m.i1 - Fraction(5, 4) * m.var
    assert isinstance(got, Q5)


def test_kappa_quadratic_float_lane():
    exact = kappa_quadratic(QuadLawCoeffs(Fraction(7, 3), Fraction(-5, 4), 12), Fraction(1, 2))
    approx = kappa_quadratic(QuadLawCoeffs(7 / 3, -5 / 4, 12), 0.5)
    assert math.isclose(float(exact), approx, rel_tol=1e-12)


def test_exact_coeffs_with_float_q_use_float_lane():
    got = kappa_quadratic(QuadLawCoeffs(Fraction(1), Fraction(1), 12), 0.5)
    assert isinstance(got, float)


# ---------------------------------------------------------------------------
# reduced objective and its derivative lanes
# ---------------------------------------------------------------------------


def test_f_red_formula():
    c = QuadLawCoeffs(Fraction(7, 3), Fraction(-5, 4), 12, Fraction(2))
    q = Fraction(1, 2)
    m = moments(12, q)
    expected = 12 - 4 * m.i1**2 / (12 * Fraction(2)) + kappa_quadratic(c, q) / 12
    assert f_red_q(c, q) == expected
    assert math.isclose(f_red_q(c, 0.5), float(expected), rel_tol=1e-12)


def test_f_red_prime_zero_coefficients():
    # A = B = 0 leaves only the negative mass term: −8 I₁ Var / (N m²) < 0.
    c = QuadLawCoeffs(0, 0, 12, Fraction(2))
    for q in (Fraction(1, 3), Fraction(1, 2), Fraction(9, 10)):
        m = moments(12, q)
        expected = -8 * m.i1 * m.var / (12 * Fraction(2))
        assert f_red_prime_q(c, q) == expected
        assert f_red_prime_q(c, q) < 0
        assert f_red_prime_direct_q(c, q) == expected


def test_f_red_prime_degenerate_family():
    c = QuadLawCoeffs(Fraction(3), Fraction(-1), 1)
    for q in (Fraction(1, 4), Fraction(3, 4)):
        assert f_red_prime_q(c, q) == 0
        assert f_red_prime_direct_q(c, q) == 0


def test_derivative_lanes_coincide_iff_b_zero():
    q = Fraction(2, 5)
    c0 = QuadLawCoeffs(Fraction(3, 2), 0, 12)
    assert f_red_prime_q(c0, q) == f_red_prime_direct_q(c0, q)
    c1 = QuadLawCoeffs(Fraction(3, 2), Fraction(-1), 12)
    assert f_red_prime_q(c1, q) != f_red_prime_direct_q(c1, q)


def test_derivative_lane_gap_identity():
    # the two lanes differ by exactly B·I₂′·(I₁ − 1)/N at every q
    rng = random.Random(77)
    for _ in range(40):
        n = rng.choice([2, 3, 5, 12, 24])
        c = rand_exact_coeffs(rng, n)
        q = Fraction(rng.randint(1, 99), 100)
        m = moments(n, q)
        gap = f_red_prime_q(c, q) - f_red_prime_direct_q(c, q)
        assert gap == c.b * m.i2_prime * (m.i1 - 1) / n


def test_f_red_prime_direct_matches_finite_differences():
    # truncation is h²·|f‴|/6 and f‴ scales with the high moments, hence the
    # max(1, I₃) scale
    h = 1e-4
    for c in (REPORTED, QuadLawCoeffs(Fraction(7, 3), Fraction(-5, 4), 12, Fraction(2))):
        for n in (2, 12, 24):
            cn = QuadLawCoeffs(c.a, c.b, n, c.m_rho_sq)
            for k in range(1, 10):
                q = k / 10
                theta = math.log(q)
                up, down = f_red_q(cn, math.exp(theta + h)), f_red_q(cn, math.exp(theta - h))
                fd = (up - down) / (2 * h)
                exact = f_red_prime_direct_q(cn, math.exp(theta))
                bound = 10 * h * h * max(1.0, float(moments(n, q).i3))
                assert abs(fd - exact) <= bound


# ---------------------------------------------------------------------------
# the bracket identity at θ⋆
# ---------------------------------------------------------------------------


def test_bracket_identity_exact():
    rng = random.Random(12345)
    m = moments(12, QSTAR)
    i1p = m.var
    lam = lambda_n(12)
    for _ in range(100):
        c = rand_exact_coeffs(rng)
        bracket = c.b * lam + 2 * c.a - 2 * c.b - 8 / c.m_rho_sq
        lhs = f_red_prime_q(c, QSTAR)
        assert lhs == bracket * m.i1 * i1p / 12


def test_bracket_residual_values():
    # B = 0, m² = 2 reduces the bracket to 2A − 4
    assert bracket_residual(QuadLawCoeffs(Fraction(5), 0, 12)) == 6
    assert bracket_residual(QuadLawCoeffs(2, 0, 12)) == 0
    lam = lambda_n(12)
    c = QuadLawCoeffs(Fraction(1), Fraction(1), 12)
    assert bracket_residual(c) == lam + 2 - 2 - 4
    # passing Λ(N) explicitly is the default
    assert bracket_residual(c, lam) == bracket_residual(c)


def test_reported_constants_residual():
    # The reference constants do not satisfy the bracket: the residual is a
    # certified −6.2514498…, reported as information.
    res = bracket_residual(REPORTED)
    assert isinstance(res, float)
    exact = bracket_residual(
        QuadLawCoeffs(Fraction("0.707473678"), Fraction("-1.060165816"), 12, Fraction(2))
    )
    assert decimal_str(exact, 7) == "-6.2514498"
    assert math.isclose(res, float(exact), rel_tol=1e-9)


# ---------------------------------------------------------------------------
# synthesis and stationarity
# ---------------------------------------------------------------------------


def test_synthesize_consistent_ab_golden_case():
    c = synthesize_consistent_ab(Fraction(-1), 12)
    assert c.a == Q5(Fraction(15, 2), Fraction(-2425, 1438))
    assert bracket_residual(c) == 0
    assert f_red_prime_q(c, QSTAR) == 0


def test_synthesize_zero_b():
    c = synthesize_consistent_ab(0, 12)
    assert c.a == 2  # A = (8/m²)/2 with m² = 2
    assert bracket_residual(c) == 0


def test_synthesize_respects_mass():
    c = synthesize_consistent_ab(Fraction(-1, 2), 12, Fraction(4))
    assert bracket_residual(c) == 0
    assert c.m_rho_sq == 4


@pytest.mark.parametrize("b", [Fraction(-1, 2), Fraction(-1), Fraction(-3, 2)])
def test_stationarity_of_synthesized_coeffs(b):
    rep = stationarity_check(synthesize_consistent_ab(b, 12))
    assert not rep.degenerate
    assert rep.stationary
    assert rep.f_prime_at_star == 0
    assert rep.bracket == 0


@settings(max_examples=200)
@given(
    log_b=st.floats(-3.0, 9.0),
    negative=st.booleans(),
    n=st.integers(3, 60),
    log_m2=st.floats(-2.0, 2.0),
)
def test_float_synthesized_coeffs_are_stationary(log_b, negative, n, log_m2):
    # |B| and m_ρ² log-uniform over many decades: the relative bracket test
    # accepts the synthesized family and rejects it once A moves by 1e-6
    c = synthesize_consistent_ab((-1 if negative else 1) * 10**log_b, n, 10**log_m2)
    rep = stationarity_check(c)
    assert rep.stationary and not rep.degenerate
    m = moments(n, float(QSTAR))
    assert rep.f_prime_at_star == rep.bracket * m.i1 * m.var / n
    moved = QuadLawCoeffs(c.a * (1 + 1e-6), c.b, n, c.m_rho_sq)
    assert not stationarity_check(moved).stationary


@settings(max_examples=200)
@given(
    b=st.one_of(
        st.integers(-10**6, 10**6),
        st.fractions(-10**6, 10**6, max_denominator=10**4),
        st.floats(-1e6, 1e6),
    ),
    m2=st.one_of(
        st.integers(1, 1000),
        st.fractions(Fraction(1, 1000), 1000, max_denominator=10**4).filter(lambda x: x > 0),
        st.floats(1e-3, 1e3),
    ),
    n=st.integers(2, 40),
)
def test_float_lane_synthesis_bits(b, m2, n):
    # any float input puts A in the float lane, with the bits of the formula
    # evaluated in floats; B and m_ρ² come back as given, ints as Fractions
    assume(isinstance(b, float) or isinstance(m2, float))
    c = synthesize_consistent_ab(b, n, m2)
    expected = (8 / float(m2) - float(b) * float(lambda_n(n)) + 2 * float(b)) / 2
    assert type(c.a) is float and c.a.hex() == expected.hex()
    for got, given_value in ((c.b, b), (c.m_rho_sq, m2)):
        assert got == given_value
        assert type(got) is (float if isinstance(given_value, float) else Fraction)


def test_stationarity_generic_coeffs_not_stationary():
    rep = stationarity_check(QuadLawCoeffs(Fraction(1), Fraction(1), 12))
    assert not rep.stationary
    assert rep.f_prime_at_star != 0


def test_stationarity_degenerate_family():
    rep = stationarity_check(QuadLawCoeffs(1, 1, 1))
    assert rep.degenerate
    assert rep.f_prime_at_star == 0
    assert rep.bracket is None


# ---------------------------------------------------------------------------
# uniqueness of the interior stationary point
# ---------------------------------------------------------------------------


def qgrid(lo=0.05, hi=0.95, step=0.001):
    count = round((hi - lo) / step) + 1
    return [math.log(lo + k * step) for k in range(count)]


@pytest.mark.parametrize("b", [Fraction(-1, 2), Fraction(-1), Fraction(-2)])
def test_uniqueness_scan_brackets_golden_ratio(b):
    rep = uniqueness_scan(synthesize_consistent_ab(b, 12), qgrid())
    assert rep.sign_changes == 1
    (lo, hi), = rep.sign_change_intervals
    q_lo, q_hi = math.exp(lo), math.exp(hi)
    assert q_hi - q_lo <= 1e-3 + 1e-9
    assert q_lo - 1e-9 <= float(QSTAR) <= q_hi + 1e-9


def test_uniqueness_scan_zero_coefficients():
    # strictly decreasing objective: no crossing anywhere
    rep = uniqueness_scan(QuadLawCoeffs(0, 0, 12), qgrid())
    assert rep.sign_changes == 0
    assert rep.sign_change_intervals == ()


def test_uniqueness_scan_degenerate_family():
    rep = uniqueness_scan(QuadLawCoeffs(2, 1, 1), qgrid())
    assert rep.degenerate
    assert rep.sign_changes == 0


@pytest.mark.parametrize("b", [Fraction(-1), Fraction(5, 7), -1.0, 2.5])
def test_uniqueness_scan_n2_synthesized_is_degenerate(b):
    # Λ ≡ 3 at N = 2, so synthesized coefficients make F′_red vanish identically
    rep = uniqueness_scan(synthesize_consistent_ab(b, 2), qgrid())
    assert rep.stationary and rep.degenerate
    assert rep.sign_changes == 0


@pytest.mark.parametrize("coeffs", [QuadLawCoeffs(1, 1, 2), QuadLawCoeffs(0.5, -3.0, 2)])
def test_uniqueness_scan_n2_generic_coeffs(coeffs):
    rep = uniqueness_scan(coeffs, qgrid())
    assert not rep.stationary and not rep.degenerate
    assert rep.sign_changes == 0


def test_uniqueness_scan_rejects_bad_grid():
    # a NaN compares false either way, so it fails the order check too
    nan = math.nan
    for grid in ([-1.0], [math.log(0.5), math.log(0.4)], [-1.0, -1.0],
                 [-1.0, nan, -0.5], [nan, -1.0], [-1.0, nan]):
        with pytest.raises(ValueError, match="^scan grid must be strictly increasing with >= 2"):
            uniqueness_scan(QuadLawCoeffs(1, 1, 12), grid)
    with pytest.raises(ValueError):
        uniqueness_scan(QuadLawCoeffs(1, 1, 12), [math.log(0.5), 0.1])  # θ must stay below 0


_LAW_SCALARS = st.one_of(
    st.integers(-50, 50),
    st.fractions(-50, 50, max_denominator=1000),
    st.floats(-50, 50),
)


@settings(max_examples=100, deadline=None)
@given(
    a=_LAW_SCALARS,
    b=_LAW_SCALARS,
    m2=st.one_of(
        st.integers(1, 12),
        st.fractions(Fraction(1, 100), 100, max_denominator=1000).filter(lambda x: x > 0),
        st.floats(1e-2, 1e2),
    ),
    n=st.integers(3, 200),
    grid=st.lists(
        st.floats(-30, -1e-3, exclude_min=True, exclude_max=True),
        min_size=2, max_size=24, unique=True,
    ).map(sorted),
)
def test_uniqueness_scan_values_are_f_red_prime_bits(a, b, m2, n, grid):
    # the one-pass scan evaluates F′_red with the bits of f_red_prime_q at the
    # same float q = e^θ, both forming the slope of exact coefficients exactly
    import goldenschur.lockin as lockin

    coeffs = QuadLawCoeffs(a, b, n, m2)
    seen = []
    original = lockin._f_prime

    def recorded(*args):
        seen.append(original(*args))
        return seen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lockin, "_f_prime", recorded)
        uniqueness_scan(coeffs, grid)
    expected = [f_red_prime_q(coeffs, math.exp(t)) for t in grid]
    assert [v.hex() for v in seen] == [v.hex() for v in expected]


@pytest.mark.parametrize(
    "grid, match",
    [
        pytest.param([-800.0, -1.0], r"^weight ratio must satisfy 0 < q < 1, got 0\.0$",
                     id="grid0-0.0"),
        pytest.param([-1.0, -1e-20], r"^weight ratio must satisfy 0 < q < 1, got 1\.0$",
                     id="grid1-1.0"),
        pytest.param([-2.0, math.nan, -1.0], r"^scan grid must be strictly increasing",
                     id="grid2-nan"),
    ],
)
def test_uniqueness_scan_rejects_q_outside_domain(grid, match):
    # e^θ underflows to 0 or rounds to 1: the point is not in 0 < q < 1; a NaN θ,
    # whose e^θ is NaN, is already caught by the grid's order check
    with pytest.raises(ValueError, match=match):
        uniqueness_scan(QuadLawCoeffs(1, -1, 12), grid)
