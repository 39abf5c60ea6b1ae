"""Tests for the quadratic curvature law, reduced objective, and lock-in."""

import math
import random
import re
import struct
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
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
)
from goldenschur.oracle import (
    exact_sign_changes,
    f_red_prime_direct_q,
    moments_from_sums,
    sums_bruteforce,
)
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
    # coefficients are exact: a Q5 is stored as it is, and an int, a float or a
    # float-like as the Fraction it equals (0.1 as its binary rational)
    import numpy as np

    assert QuadLawCoeffs(QSTAR, Fraction(1, 2), 12).a is QSTAR
    cases = [
        ((1, -2, 2), (1, -2, 2)),
        ((0.1, -2.0, 2.5), (Fraction(0.1), -2, Fraction(5, 2))),
        (
            (np.float32(0.1), np.int64(2**60 + 1), np.float64(2.5)),
            (Fraction(float(np.float32(0.1))), 2**60 + 1, Fraction(5, 2)),
        ),
    ]
    for (a, b, m2), expected in cases:
        c = QuadLawCoeffs(a, b, 12, m2)
        assert (c.a, c.b, c.m_rho_sq) == expected
        assert all(type(x) is Fraction for x in (c.a, c.b, c.m_rho_sq))
        assert all(type(x.numerator) is int for x in (c.a, c.b, c.m_rho_sq))
    floats = QuadLawCoeffs(Fraction(1, 2), -1, 12).as_floats()
    assert floats == (0.5, -1.0, 2.0) and all(type(x) is float for x in floats)


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
    # the float lane, which a float q picks, reads the coefficients through as_floats
    coeffs = QuadLawCoeffs(a, b, 12, m_rho_sq)
    with pytest.raises(ValueError, match=f"^{message}"):
        coeffs.as_floats()
    for route in (kappa_quadratic, f_red_q, f_red_prime_q, f_red_prime_direct_q):
        with pytest.raises(ValueError, match=f"^{message}"):
            route(coeffs, 0.5)
    # an exact q never reads them as floats
    assert not isinstance(kappa_quadratic(coeffs, Fraction(1, 2)), float)


def _coeffs_with(position, value):
    args = [Fraction(1), Fraction(-1), Fraction(2)]
    args[position] = value
    return QuadLawCoeffs(args[0], args[1], 12, args[2])


_NAMES = ("A", "B", "m_rho_sq")


@pytest.mark.parametrize("position", range(3))
def test_coeffs_reject_a_bool(position):
    # a bool is a flag, not a coefficient, though Fraction(True) is 1 and
    # float(numpy.True_) is 1.0
    import numpy as np

    for flag in (True, np.True_):
        message = f"^coefficient {_NAMES[position]} must be a number, got {flag!r}$"
        with pytest.raises(ValueError, match=message):
            _coeffs_with(position, flag)


@pytest.mark.parametrize("position", range(3))
def test_coeffs_reject_a_number_no_float_equals(position):
    # Decimal("0.1") would lose digits as a float; the error names the
    # coefficient, as every other coefficient error does
    message = (
        rf"^coefficient {_NAMES[position]}: no float equals Decimal\('0\.1'\); "
        r"pass a Fraction to stay exact$"
    )
    with pytest.raises(ValueError, match=message):
        _coeffs_with(position, Decimal("0.1"))


def test_numpy_integer_coefficients_compute_as_python_ints():
    # a numpy integer is stored as a Fraction of Python ints; kept as int64,
    # B·13 and B·Λ(12) would wrap
    import numpy as np

    big = 10**18
    for a, b in ((0, big), (big, -big), (-big, 3)):
        wide = QuadLawCoeffs(a, b, 12)
        narrow = QuadLawCoeffs(np.int64(a), np.int64(b), 12, np.int64(2))
        assert narrow == wide
        # a Fraction of numpy integers is stored as one of Python ints too
        held = QuadLawCoeffs(Fraction(np.int64(a), np.int64(7)), Fraction(np.int64(b)), 12)
        assert held == (Fraction(a, 7), b, 12, 2)
        assert all(type(x.numerator) is type(x.denominator) is int for x in held[:2])
        assert stationarity_check(narrow) == stationarity_check(wide)
        for lam in (None, 3, 13):
            assert bracket_residual(narrow, lam) == bracket_residual(wide, lam)
        for q in (Fraction(1, 3), QSTAR):
            assert kappa_quadratic(narrow, q) == kappa_quadratic(wide, q)
            assert f_red_prime_q(narrow, q) == f_red_prime_q(wide, q)


class _SubFraction(Fraction):
    pass


def test_a_fraction_subclass_coefficient_is_stored_as_a_fraction():
    # a Q5 stays a Q5, and every rational coefficient is a plain Fraction, so
    # the exact derivative at a Fraction q is a Fraction
    coeffs = QuadLawCoeffs(_SubFraction(1, 2), _SubFraction(-3), 12, _SubFraction(2))
    assert [type(x) for x in (coeffs.a, coeffs.b, coeffs.m_rho_sq)] == [Fraction] * 3
    assert type(f_red_prime_q(coeffs, Fraction(1, 3))) is Fraction
    assert type(QuadLawCoeffs(QSTAR, 1, 12).a) is Q5


def test_f_red_prime_at_a_fraction_of_numpy_integers_computes_on_python_ints():
    # the numerators of q = 1/3 at N = 50 wrap in int64
    import numpy as np

    q = Fraction(np.int64(1), np.int64(3))
    for coeffs in (QuadLawCoeffs(Fraction(1, 2), 3, 50), synthesize_consistent_ab(-1, 50)):
        got, want = f_red_prime_q(coeffs, q), f_red_prime_q(coeffs, Fraction(1, 3))
        assert got == want
        assert type(got) is type(want)


@pytest.mark.parametrize("position", range(3))
def test_coeffs_reject_nan(position):
    with pytest.raises(ValueError, match=f"^coefficient {_NAMES[position]} must be finite, got nan$"):
        _coeffs_with(position, math.nan)


@pytest.mark.parametrize("value", [math.inf, -math.inf])
@pytest.mark.parametrize("position", range(3))
def test_coeffs_reject_infinities(position, value):
    message = f"^coefficient {_NAMES[position]} must be finite, got {value!r}$"
    with pytest.raises(ValueError, match=message):
        _coeffs_with(position, value)


def test_coeffs_reject_bad_mass():
    with pytest.raises(ValueError):
        QuadLawCoeffs(1, 1, 12, 0)
    with pytest.raises(ValueError):
        QuadLawCoeffs(1, 1, 12, Fraction(-2))
    # a Q5 mass is ordered exactly against 0
    for m2 in (Q5(0), -QSTAR, 2 - Q5(0, 1)):
        with pytest.raises(ValueError, match="m_rho_sq must be positive"):
            QuadLawCoeffs(1, 1, 12, m2)
    assert QuadLawCoeffs(1, 1, 12, QSTAR).m_rho_sq == QSTAR


def test_coeffs_reject_bad_n():
    # folded's rule: a bool or a float is not a family size
    for n in (0, True, 12.0, 3.5):
        with pytest.raises(ValueError, match=f"N must be an integer >= 1, got {n!r}"):
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


def test_a_scalar_that_a_float_equals_runs_as_that_float():
    # a numpy.float32 runs in double precision, and a Decimal as the float it
    # equals: the bits of q = 0.5, as a Python float
    import numpy as np

    coeffs = QuadLawCoeffs(Fraction(7, 3), Fraction(-5, 4), 12)
    want = [route(coeffs, 0.5).hex() for route in (kappa_quadratic, f_red_q, f_red_prime_q)]
    for q in (np.float32(0.5), Decimal("0.5")):
        got = [route(coeffs, q) for route in (kappa_quadratic, f_red_q, f_red_prime_q)]
        assert all(type(x) is float for x in got)
        assert [x.hex() for x in got] == want


def test_a_scalar_that_no_float_equals_is_refused():
    # as a q, Decimal("0.1") would lose digits on its way into the float
    # lane, and as a given Λ on its way to the Fraction it is read as
    message = r"no float equals Decimal\('0\.1'\); pass a Fraction to stay exact$"
    coeffs = QuadLawCoeffs(Fraction(7, 3), Fraction(-5, 4), 12)
    for route, label in (
        (kappa_quadratic, ""), (f_red_q, ""), (f_red_prime_q, ""), (bracket_residual, "lam: "),
    ):
        with pytest.raises(ValueError, match="^" + label + message):
            route(coeffs, Decimal("0.1"))


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


@pytest.mark.parametrize("b", [10**308, -10**308])
def test_f_red_prime_float_lane_rejects_a_slope_too_large_for_a_float(b):
    # at N = 3, A and B fit in a float but the exact slope −B·Λ(3) does not
    c = synthesize_consistent_ab(b, 3)
    assert f_red_prime_q(c, QSTAR) == 0
    with pytest.raises(ValueError, match="^slope 2A - 2B - 8/m_rho_sq is too large for a float$"):
        f_red_prime_q(c, 0.5)


def test_f_red_prime_float_lane_rejects_a_slope_that_underflows():
    # the slope 2·10⁻⁴⁰⁰ is 0.0 as a float, which gave F′ = 0.0 where F′ > 0
    c = QuadLawCoeffs(2 + Fraction(1, 10**400), 0, 12)
    assert f_red_prime_q(c, Fraction(1, 2)) > 0
    with pytest.raises(
        ValueError, match="^slope 2A - 2B - 8/m_rho_sq is nonzero but underflows to 0.0 as a float$"
    ):
        f_red_prime_q(c, 0.5)


def test_f_red_prime_float_lane_rounds_a_q5_slope():
    # synthesized coefficients are Q5s: their slope is rounded to a float
    # before it meets the float moments
    c = synthesize_consistent_ab(Fraction(-1), 12)
    assert isinstance(c.a, Q5)
    got = f_red_prime_q(c, 0.5)
    assert type(got) is float
    assert math.isclose(got, float(f_red_prime_q(c, Fraction(1, 2))), rel_tol=1e-12)


_fractions_in_unit = st.builds(
    lambda d, k: Fraction(k % (d - 1) + 1, d), st.integers(2, 10**12), st.integers(0, 10**12)
)
_small = st.fractions(-50, 50, max_denominator=40)


@st.composite
def _q_and_coeffs(draw):
    """An exact q in (0, 1) (a Fraction, or a Q5 other than q⋆) and exact
    coefficients at N: Fraction, Q5 or synthesized (a Q5 A)."""
    n = draw(st.integers(1, 40))
    q = draw(_fractions_in_unit)
    if draw(st.booleans()):
        q = Q5(q, draw(st.fractions(-1, 1, max_denominator=10**6)) / 10)
        assume(0 < q < 1 and q != QSTAR)
    b = draw(_small)
    m2 = draw(st.fractions(Fraction(1, 20), 20, max_denominator=40))
    kind = draw(st.sampled_from(["fraction", "q5", "synthesized"]))
    if kind == "synthesized" and n > 1:
        coeffs = synthesize_consistent_ab(b, n, m2)
    elif kind == "q5":
        coeffs = QuadLawCoeffs(Q5(draw(_small), draw(_small)), Q5(b, draw(_small)), n, m2)
    else:
        coeffs = QuadLawCoeffs(draw(_small), b, n, m2)
    return q, coeffs


@settings(max_examples=300, deadline=None)
@given(_q_and_coeffs())
def test_f_red_prime_is_the_bracket_form_on_direct_sums(case):
    # the library route at an exact q ≠ q⋆ against the bracket form built
    # from the moments of direct sums, exactly and in the same type
    q, c = case
    m = moments_from_sums(sums_bruteforce(c.n, q))
    slope = 2 * c.a - 2 * c.b - 8 / c.m_rho_sq
    want = (c.b * m.i2_prime + slope * m.var) * m.i1 / c.n
    got = f_red_prime_q(c, q)
    assert type(got) is type(want)
    assert got == want


@settings(max_examples=100, deadline=None)
@given(_q_and_coeffs())
def test_f_red_prime_flips_sign_on_the_k64_grid_where_the_oracle_does(case):
    # the oracle signs the integer numerators of direct sums; the library
    # route reads the moments
    _, c = case
    flips, last = [], None
    for k in range(1, 64):
        q = Fraction(k, 64)
        value = f_red_prime_q(c, q)
        if value == 0:
            continue
        if last is not None and (value > 0) != (last[1] > 0):
            flips.append((last[0], q))
        last = q, value
    assert flips == exact_sign_changes(c)


@pytest.mark.parametrize(
    "q",
    [Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 3), 0, 1, 2, Q5(1), Q5(-1, 1),
     Q5(0, 1), Q5(-3, 1)],
    ids=repr,
)
def test_f_red_prime_rejects_an_exact_q_outside_the_domain(q):
    # f_red_prime_q reads the moments at every q, and so raises their message
    c = synthesize_consistent_ab(Fraction(-1), 12)
    with pytest.raises(ValueError) as want:
        moments(12, q)
    assert str(want.value) == f"weight ratio must satisfy 0 < q < 1, got {q!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
        f_red_prime_q(c, q)


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


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf], ids=repr)
def test_bracket_residual_rejects_a_lambda_that_is_not_finite(lam):
    # a NaN Λ gave nan, and an infinite one ±inf
    with pytest.raises(ValueError, match=f"^lam must be finite, got {re.escape(repr(lam))}$"):
        bracket_residual(QuadLawCoeffs(1, 2, 12), lam)


@pytest.mark.parametrize("lam", [True, False, "3"], ids=repr)
def test_bracket_residual_rejects_a_lambda_that_is_not_a_number(lam):
    # True ran as Λ = 1.0, where every coefficient refuses a bool
    with pytest.raises(ValueError, match=f"^lam must be a number, got {re.escape(repr(lam))}$"):
        bracket_residual(QuadLawCoeffs(1, 2, 12), lam)


@pytest.mark.parametrize("lam", [3.0, 10.0, 5.458324276165522])
def test_bracket_residual_reads_a_float_lambda_exactly(lam):
    # with B = 1e-20, the float lane added B·Λ to the rounded 2A and lost it:
    # it gave 0.0 at Λ = 3.0 and 10.0, where the bracket is B·(Λ − Λ(12))
    c = synthesize_consistent_ab(Fraction(1, 10**20), 12)
    got = bracket_residual(c, lam)
    assert isinstance(got, Q5) and got == bracket_residual(c, Fraction(lam))
    assert got == Fraction(1, 10**20) * (Fraction(lam) - lambda_n(12)) != 0


def test_reported_constants_residual():
    # The reference constants do not satisfy the bracket: read as the binary
    # rationals their floats are, or as the decimals they were printed as,
    # the residual is a certified −6.2514498…, reported as information.
    res = bracket_residual(REPORTED)
    assert isinstance(res, Q5)
    assert decimal_str(res, 10) == "-6.2514498222"
    exact = bracket_residual(
        QuadLawCoeffs(Fraction("0.707473678"), Fraction("-1.060165816"), 12, Fraction(2))
    )
    assert decimal_str(exact, 7) == "-6.2514498"
    assert math.isclose(res, float(exact), rel_tol=1e-9)
    # a float Λ is read exactly, as the binary rational it equals
    lam = float(lambda_n(12))
    approx = bracket_residual(REPORTED, lam)
    assert type(approx) is Fraction and approx == bracket_residual(REPORTED, Fraction(lam))
    assert math.isclose(approx, float(res), rel_tol=1e-12)


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
    # float |B| and m_ρ² log-uniform over many decades are the Fractions they
    # equal: the synthesized bracket is exactly zero, q⋆ is the one zero of
    # F′_red, and moving A by 1e-6 leaves the golden point
    c = synthesize_consistent_ab((-1 if negative else 1) * 10**log_b, n, 10**log_m2)
    rep = stationarity_check(c)
    assert rep.stationary and not rep.degenerate
    assert rep.bracket == 0 and rep.f_prime_at_star == 0
    assert rep.sign_change_intervals == ((QSTAR, QSTAR),)
    moved = QuadLawCoeffs(c.a + Fraction(1, 10**6), c.b, n, c.m_rho_sq)
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
def test_synthesis_reads_float_inputs_as_their_fractions(b, m2, n):
    # a float B or m_ρ² gives the coefficients of the Fraction it equals,
    # with A solved exactly in Q(√5)
    assume(isinstance(b, float) or isinstance(m2, float))
    c = synthesize_consistent_ab(b, n, m2)
    fb, fm2 = Fraction(b), Fraction(m2)
    assert c == synthesize_consistent_ab(fb, n, fm2)
    assert c.a == (8 / fm2 - fb * lambda_n(n) + 2 * fb) / 2
    assert (c.b, c.m_rho_sq) == (fb, fm2)
    assert type(c.b) is Fraction and type(c.m_rho_sq) is Fraction


def test_stationarity_generic_coeffs_not_stationary():
    rep = stationarity_check(QuadLawCoeffs(Fraction(1), Fraction(1), 12))
    assert not rep.stationary
    assert rep.f_prime_at_star != 0


def test_stationarity_degenerate_family():
    rep = stationarity_check(QuadLawCoeffs(1, 1, 1))
    assert rep.degenerate
    assert rep.f_prime_at_star == 0
    assert rep.bracket is None


def _product_form_decision(coeffs):
    """The report's decision from the brackets at Λ(N), 3 and N + 1, each by
    ``bracket_residual``, and their products."""
    bracket = bracket_residual(coeffs)
    stationary = bracket == 0
    low, high = bracket_residual(coeffs, 3), bracket_residual(coeffs, coeffs.n + 1)
    intervals = ()
    if low * high < 0:
        if stationary:
            intervals = ((QSTAR, QSTAR),)
        elif bracket * low > 0:
            intervals = ((QSTAR, Fraction(1)),)
        else:
            intervals = ((Fraction(0), QSTAR),)
    degenerate = low == high == 0 or (coeffs.n == 2 and stationary)
    return bracket, stationary, degenerate, len(intervals), intervals


_SMALL_RATIONAL = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-12, max_value=12, max_denominator=9),
)


@settings(deadline=None)
@given(
    n=st.sampled_from([2, 3, 12]),
    b=_SMALL_RATIONAL,
    ratio=st.one_of(
        st.sampled_from([Fraction(3), Fraction(4), Fraction(13)]),
        st.fractions(min_value=0, max_value=16, max_denominator=9),
    ),
    c0=_SMALL_RATIONAL,
    m2=st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=9).filter(bool),
    synthesized=st.booleans(),
)
@example(n=12, b=Fraction(0), ratio=Fraction(0), c0=Fraction(0), m2=Fraction(2), synthesized=False)
@example(n=2, b=Fraction(-1), ratio=Fraction(0), c0=Fraction(0), m2=Fraction(2), synthesized=True)
def test_stationarity_decision_equals_the_product_form(n, b, ratio, c0, m2, synthesized):
    # the report takes c = 2A − 2B − 8/m_ρ² once and decides from the signs of
    # 3B + c, (N + 1)B + c and BΛ + c.  −c/B = ratio for B ≠ 0, so that the
    # bracket crosses zero in (3, N + 1) often, and c = c0 for B = 0, B = c = 0
    # included; a synthesized A makes the golden point stationary
    if synthesized:
        coeffs = synthesize_consistent_ab(b, n, m2)
    else:
        c = -ratio * b if b else c0
        coeffs = QuadLawCoeffs((c + 2 * b + 8 / m2) / 2, b, n, m2)
    rep = stationarity_check(coeffs)
    got = (rep.bracket, rep.stationary, rep.degenerate, rep.sign_changes, rep.sign_change_intervals)
    assert got == _product_form_decision(coeffs)


# ---------------------------------------------------------------------------
# uniqueness of the interior stationary point: the decision from the
# monotonicity of Λ, and the exact k/64 sign scan of the oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("b", [Fraction(-1, 2), Fraction(-1), Fraction(-2)])
def test_stationarity_check_brackets_golden_ratio(b):
    c = synthesize_consistent_ab(b, 12)
    rep = stationarity_check(c)
    assert rep.sign_changes == 1
    assert rep.sign_change_intervals == ((QSTAR, QSTAR),)
    (lo, hi), = exact_sign_changes(c)
    assert (lo, hi) == (Fraction(24, 64), Fraction(25, 64))
    assert lo < QSTAR < hi


def test_sign_scan_forms_the_slope_once(monkeypatch):
    # the oracle writes its own slope 2A − 2B − 8/m_ρ², once per scan: it
    # reads A and m_ρ² once, and lockin's slope not at all, under any name
    from goldenschur import lockin, oracle

    reads = []

    class Counted(QuadLawCoeffs):
        __slots__ = ()
        a = property(lambda self: reads.append("a") or self[0])
        m_rho_sq = property(lambda self: reads.append("m_rho_sq") or self[3])

    def refused(coeffs):
        pytest.fail("lockin's slope was read")

    c = Counted(*synthesize_consistent_ab(Fraction(-1), 12))
    for module in (lockin, oracle):
        monkeypatch.setattr(module, "_slope", refused, raising=False)
    assert exact_sign_changes(c) == [(Fraction(24, 64), Fraction(25, 64))]
    assert sorted(reads) == ["a", "m_rho_sq"]


def _one_zero_at(q0):
    """B = 1, m_ρ² = 2 and s = −Λ(q₀), with Λ = I₂′/Var at N = 12: F′_red
    has the sign of Λ(q) − Λ(q₀), which rises strictly, so its one zero is
    at q₀."""
    m = moments(12, q0)
    s = -m.i2_prime / m.var
    return QuadLawCoeffs((s + 6) / 2, 1, 12, 2)


def test_sign_scan_skips_a_zero_on_the_grid():
    # F′_red(5/64) = 0 exactly: the flip is spanned from 4/64 to 6/64
    c = _one_zero_at(Fraction(5, 64))
    assert f_red_prime_q(c, Fraction(5, 64)) == 0
    assert exact_sign_changes(c) == [(Fraction(4, 64), Fraction(6, 64))]


@pytest.mark.parametrize("k", [1, 62])
def test_sign_scan_reaches_both_ends_of_the_grid(k):
    # the zero at (2k + 1)/128 lies between the first two grid points, or
    # the last two
    lo, hi = Fraction(k, 64), Fraction(k + 1, 64)
    c = _one_zero_at((lo + hi) / 2)
    assert f_red_prime_q(c, lo) < 0 < f_red_prime_q(c, hi)
    assert exact_sign_changes(c) == [(lo, hi)]


def test_zero_coefficients_have_no_stationary_point():
    # strictly decreasing objective: no crossing anywhere
    rep = stationarity_check(QuadLawCoeffs(0, 0, 12))
    assert (rep.sign_changes, rep.sign_change_intervals) == (0, ())
    assert not rep.degenerate
    assert exact_sign_changes(QuadLawCoeffs(0, 0, 12)) == []


def test_n1_family_is_degenerate_with_no_sign_change():
    rep = stationarity_check(QuadLawCoeffs(2, 1, 1))
    assert rep.degenerate
    assert (rep.sign_changes, rep.sign_change_intervals) == (0, ())
    assert exact_sign_changes(QuadLawCoeffs(2, 1, 1)) == []


@pytest.mark.parametrize("b", [Fraction(-1), Fraction(5, 7), -1.0, 2.5])
def test_stationarity_check_n2_synthesized_is_degenerate(b):
    # Λ ≡ 3 at N = 2, so synthesized coefficients make F′_red vanish identically
    c = synthesize_consistent_ab(b, 2)
    rep = stationarity_check(c)
    assert rep.stationary and rep.degenerate
    assert rep.sign_changes == 0
    assert exact_sign_changes(c) == []


@pytest.mark.parametrize("coeffs", [QuadLawCoeffs(1, 1, 2), QuadLawCoeffs(0.5, -3.0, 2)])
def test_stationarity_check_n2_generic_coeffs(coeffs):
    rep = stationarity_check(coeffs)
    assert not rep.stationary and not rep.degenerate
    assert rep.sign_changes == 0


@pytest.mark.parametrize("n", [3, 12, 64])
def test_synthesized_zero_b_is_degenerate(n):
    # B = 0 forces c = 2A − 8/m_ρ² = 0: F′_red vanishes at every q
    c = synthesize_consistent_ab(0, n)
    rep = stationarity_check(c)
    assert rep.stationary and rep.degenerate
    assert (rep.sign_changes, rep.sign_change_intervals) == (0, ())
    assert all(f_red_prime_q(c, Fraction(k, 7)) == 0 for k in range(1, 7))


@pytest.mark.parametrize("n", [3, 12, 64])
@pytest.mark.parametrize("b", [Fraction(-1), Fraction(5, 7), Fraction(10**400)])
def test_synthesized_coeffs_have_one_zero_at_golden_point(n, b):
    rep = stationarity_check(synthesize_consistent_ab(b, n))
    assert rep.stationary and not rep.degenerate
    assert rep.sign_changes == 1
    assert rep.sign_change_intervals == ((QSTAR, QSTAR),)


def lambda_at(n, q):
    m = moments(n, q)
    return m.i2_prime / m.var


def coeffs_with_ratio(ratio, n, b=Fraction(1)):
    """Exact coefficients with −c/B = ratio, c = 2A − 2B − 8/m_ρ², m_ρ² = 2."""
    return QuadLawCoeffs((2 * b + 4 - b * ratio) / 2, b, n)


def test_decision_finds_the_zero_a_grid_misses():
    # the one zero is at q = 99/100, beyond the old θ-grid's last point 0.95
    c = coeffs_with_ratio(lambda_at(12, Fraction(99, 100)), 12)
    assert f_red_prime_q(c, Fraction(99, 100)) == 0
    assert f_red_prime_q(c, Fraction(98, 100)) < -Fraction(58, 100)
    assert f_red_prime_q(c, Fraction(995, 1000)) > Fraction(3, 10)
    rep = stationarity_check(c)
    assert rep.sign_changes == 1
    assert rep.sign_change_intervals == ((QSTAR, Fraction(1)),)


@pytest.mark.parametrize("coeffs", [REPORTED, QuadLawCoeffs(
    Fraction("0.707473678"), Fraction("-1.060165816"), 12, Fraction(2))])
def test_reported_constants_have_no_stationary_point(coeffs):
    # −c/B ≈ −0.438 lies outside (3, 13): F′_red < 0 on all of 0 < q < 1
    c = Fraction(coeffs.a) * 2 - Fraction(coeffs.b) * 2 - 4
    assert -c / Fraction(coeffs.b) == pytest.approx(-0.43835, abs=1e-5)
    rep = stationarity_check(coeffs)
    assert (rep.sign_changes, rep.sign_change_intervals) == (0, ())
    assert not rep.stationary and not rep.degenerate


@pytest.mark.parametrize(
    "ratio, interval",
    [
        (Fraction(4), (Fraction(0), QSTAR)),
        (Fraction(12), (QSTAR, Fraction(1))),
        (Fraction(3), None),
        (Fraction(13), None),
        (Fraction(-1), None),
    ],
)
@pytest.mark.parametrize("b", [Fraction(1), Fraction(-3, 2)])
def test_decision_places_the_zero_by_the_sign_at_golden_point(ratio, interval, b):
    # Λ(q⋆) ≈ 5.458 at N = 12, and Λ sweeps (3, 13) over 0 < q < 1
    rep = stationarity_check(coeffs_with_ratio(ratio, 12, b))
    assert rep.sign_change_intervals == (() if interval is None else (interval,))
    assert rep.sign_changes == len(rep.sign_change_intervals)


def test_float_coefficients_are_decided_as_the_rationals_they_are():
    # a float B below 1e-16 of 8/m_ρ² is the Fraction it equals, and A keeps
    # the B·Λ that a float A would round away: one bracket decides both the
    # stationarity and the one zero, at q⋆
    c = synthesize_consistent_ab(1e-20, 12)
    assert c == synthesize_consistent_ab(Fraction(1e-20), 12)
    assert float(c.a) == 2.0
    rep = stationarity_check(c)
    assert rep.stationary and rep.sign_changes == 1
    assert rep.sign_change_intervals == ((QSTAR, QSTAR),)


def _same_float(x, y):
    return type(x) is float and struct.pack("<d", x) == struct.pack("<d", y)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    a=_finite,
    b=_finite,
    m2=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    n=st.integers(1, 24),
    q=st.one_of(st.just(QSTAR), st.fractions(Fraction(1, 1000), Fraction(999, 1000), max_denominator=1000)),
    qf=st.floats(1e-3, 0.999),
)
def test_q_alone_picks_the_lane(a, b, m2, n, q, qf):
    # float coefficients are the Fractions they equal: an exact q gives the
    # values of those Fractions, and a float q the bits of the float formulas
    floats = QuadLawCoeffs(a, b, n, m2)
    exact = QuadLawCoeffs(Fraction(a), Fraction(b), n, Fraction(m2))
    for route in (kappa_quadratic, f_red_q, f_red_prime_q):
        assert route(floats, q) == route(exact, q)
    if n >= 2:
        assert bracket_residual(floats) == bracket_residual(exact)
    assert stationarity_check(floats) == stationarity_check(exact)
    assert exact_sign_changes(floats) == exact_sign_changes(exact)
    m = moments(n, qf)
    kappa = a * (m.i1 * m.i1) + b * m.var
    assert _same_float(kappa_quadratic(floats, qf), kappa)
    assert _same_float(f_red_q(floats, qf), n - 4 * (m.i1 * m.i1) / (n * m2) + kappa / n)


# ---------------------------------------------------------------------------
# the identity behind the decision, in integer polynomials of q
# ---------------------------------------------------------------------------

#: Kronecker slot width: every coefficient below is at most 14·N¹⁰ < 2⁶⁴ for
#: N ≤ 64 (the product of the L1 norms Σ s^k ≤ N^{k+1}), so 80 bits hold it.
_SLOT = 80


def power_sum_poly(n, k):
    """Coefficients of S_k = Σ_{s=1}^N s^k q^s, indexed by the exponent."""
    return [0] + [s**k for s in range(1, n + 1)]


def poly_mul(a, b):
    """The product of two polynomials with nonnegative integer coefficients,
    by Kronecker substitution at q = 2^_SLOT."""
    assert min(a) >= 0 and min(b) >= 0

    def pack(p):
        return sum(c << (_SLOT * i) for i, c in enumerate(p))

    x = pack(a) * pack(b)
    mask = (1 << _SLOT) - 1
    return [(x >> (_SLOT * i)) & mask for i in range(len(a) + len(b) - 1)]


def poly_sub(a, b):
    size = max(len(a), len(b))
    a, b = a + [0] * (size - len(a)), b + [0] * (size - len(b))
    return [x - y for x, y in zip(a, b)]


def hankel_polys(n):
    s = [power_sum_poly(n, k) for k in range(5)]
    v = poly_sub(poly_mul(s[2], s[0]), poly_mul(s[1], s[1]))
    u = poly_sub(poly_mul(s[3], s[0]), poly_mul(s[1], s[2]))
    # D = det [[S0, S1, S2], [S1, S2, S3], [S2, S3, S4]] by the first row; the
    # three minors have nonnegative coefficients (s²t²(s−t)², st(s+t)(s−t)²,
    # st(s−t)² summed over pairs)
    minors = [
        poly_sub(poly_mul(s[2], s[4]), poly_mul(s[3], s[3])),
        poly_sub(poly_mul(s[1], s[4]), poly_mul(s[2], s[3])),
        poly_sub(poly_mul(s[1], s[3]), poly_mul(s[2], s[2])),
    ]
    d = poly_sub(poly_mul(s[0], minors[0]), poly_mul(s[1], minors[1]))
    d = [x + y for x, y in zip(d, poly_mul(s[2], minors[2]))]
    return s, u, v, d


def test_lambda_derivative_identity_as_integer_polynomials():
    # dΛ/dθ = ((S₄S₀ − S₂²)·V − U²)/V² = S₀·D/V², coefficient by coefficient
    for n in range(3, 65):
        s, u, v, d = hankel_polys(n)
        s4s0_s2s2 = poly_sub(poly_mul(s[4], s[0]), poly_mul(s[2], s[2]))
        lhs = poly_sub(poly_mul(s4s0_s2s2, v), poly_mul(u, u))
        rhs = poly_mul(s[0], d)
        assert lhs == rhs + [0] * (len(lhs) - len(rhs)), n
        assert min(d) == 0 and d[6] == 4 and d.index(4) == 6  # D > 0 from q⁶ on


def test_hankel_determinant_is_the_cauchy_binet_triple_sum():
    # D = Σ_{s<t<u} q^{s+t+u}·((t − s)(u − s)(u − t))²: every term positive,
    # so D > 0 on 0 < q < 1 for N ≥ 3, and D ≡ 0 at N = 2, which has no triple
    for n in list(range(2, 25)) + [40, 64]:
        _, _, _, d = hankel_polys(n)
        triple = [0] * len(d)
        for s in range(1, n + 1):
            for t in range(s + 1, n + 1):
                for u in range(t + 1, n + 1):
                    triple[s + t + u] += ((t - s) * (u - s) * (u - t)) ** 2
        assert d == triple, n
        assert any(d) == (n >= 3), n


def test_lambda_at_one_from_the_pair_form():
    # V = Σ_{s<t} (t − s)²·q^{s+t} and U = Σ_{s<t} (s + t)(t − s)²·q^{s+t}; the
    # reflection (s, t) ↦ (N + 1 − t, N + 1 − s) gives U(1) = (N + 1)·V(1)
    for n in range(2, 65):
        _, u, v, _ = hankel_polys(n)
        pair_u, pair_v = [0] * len(u), [0] * len(v)
        for s in range(1, n + 1):
            for t in range(s + 1, n + 1):
                pair_v[s + t] += (t - s) ** 2
                pair_u[s + t] += (s + t) * (t - s) ** 2
        assert (u, v) == (pair_u, pair_v), n
        assert sum(u) == (n + 1) * sum(v), n
        assert (u[3], v[3]) == (3, 1)  # Λ(0⁺) = 3, from the lowest term


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(3, 24),
    t=st.fractions(Fraction(-1, 2), Fraction(3, 2), max_denominator=1000),
    b=st.fractions(-50, 50, max_denominator=100).filter(lambda x: x != 0),
)
def test_decision_agrees_with_exact_signs_on_the_k64_grid(n, t, b):
    # −c/B = 3 + (N − 2)·t sweeps past both ends of Λ's range (3, N + 1).  In
    # (Λ(1/64), Λ(63/64)) the zero lies between grid points or on one, and the
    # exact scan sees the one sign change; outside (3, N + 1) neither sees any
    ratio = 3 + (n - 2) * t
    c = coeffs_with_ratio(ratio, n, b)
    rep = stationarity_check(c)
    cells = exact_sign_changes(c)
    if lambda_at(n, Fraction(1, 64)) < ratio < lambda_at(n, Fraction(63, 64)):
        assert rep.sign_changes == len(cells) == 1
        ((a, z),), ((x, y),) = rep.sign_change_intervals, cells
        assert a <= y and x <= z  # the decision's interval meets the grid's cell
    elif not 3 < ratio < n + 1:
        assert rep.sign_changes == len(cells) == 0
    else:
        assert rep.sign_changes == 1 and len(cells) <= 1
