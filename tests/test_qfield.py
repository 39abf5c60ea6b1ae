"""Tests for the exact Q(√5) field layer."""

import contextlib
import math
import numbers
import operator
import random
import sys
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from goldenschur import cli, qfield
from goldenschur.cli import _exact_strs, _unlimited_int_digits
from goldenschur.floatlaw import quadratic_law_fit
from goldenschur.folded import _golden_exact_forms, moments, sums_closed
from goldenschur.golden import lambda_n
from goldenschur.lockin import QuadLawCoeffs, bracket_residual, f_red_prime_q
from goldenschur.oracle import fibonacci
from goldenschur.qfield import (
    PHI,
    QSTAR,
    SQRT5,
    GoldenBasis,
    Q5,
    _q5,
    _sqrt5_floor,
    decimal_str,
    exact_forms,
)


def rand_q5(rng, span=40):
    return Q5(
        Fraction(rng.randint(-span, span), rng.randint(1, span)),
        Fraction(rng.randint(-span, span), rng.randint(1, span)),
    )


# ---------------------------------------------------------------------------
# construction and basic arithmetic
# ---------------------------------------------------------------------------


def test_constants():
    assert SQRT5 == Q5(0, 1)
    assert QSTAR == Q5(Fraction(3, 2), Fraction(-1, 2))
    assert PHI == Q5(Fraction(1, 2), Fraction(1, 2))
    # φ² q⋆ = 1 and q⋆ = φ⁻²
    assert PHI * PHI * QSTAR == Q5(1, 0)
    assert QSTAR == (PHI * PHI).inverse()


def test_conjugate_product():
    x = Q5(1, 1)  # 1 + √5
    assert x * x.conjugate() == Q5(-4, 0)
    assert x.norm() == Fraction(-4)


def test_division_by_conjugate():
    # S1(q⋆)/S0(q⋆) for the N = 12 family reduces to 13/2 − (131/60)√5.
    s0 = Q5(83880, -37512)
    s1 = Q5(954726, -426966)
    assert s1 / s0 == Q5(Fraction(13, 2), Fraction(-131, 60))


def test_mixed_scalar_arithmetic():
    x = Q5(Fraction(1, 2), Fraction(1, 3))
    assert x + 1 == Q5(Fraction(3, 2), Fraction(1, 3))
    assert 1 + x == x + Fraction(1)
    assert 2 * x == x + x
    assert x - Fraction(1, 2) == Q5(0, Fraction(1, 3))
    assert Fraction(1, 2) - x == -Q5(0, Fraction(1, 3))
    assert x / Fraction(1, 3) == Q5(Fraction(3, 2), 1)
    assert (Fraction(1, 3) / x) * x == Q5(Fraction(1, 3))


def _isinstance_coords(value):
    """The exactness rule as an ``isinstance`` chain alone, with no dispatch
    on the exact type first: the reference for ``_coords``.  An integer of
    any type but bool is exact, and every integer is read as a Python int."""
    if isinstance(value, Q5):
        return value._p, value._q, value._d
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value), 0, 1
    if isinstance(value, Fraction):
        return int(value.numerator), 0, int(value.denominator)
    return None


class _Int(int):
    pass


class _Fraction(Fraction):
    pass


class _Q5(Q5):
    __slots__ = ()


@settings(max_examples=200)
@given(
    st.integers(-(10**30), 10**30),
    st.integers(1, 10**30),
    st.integers(-(10**30), 10**30),
    st.floats(allow_nan=True, allow_infinity=True),
)
def test_coords_dispatch_agrees_with_the_isinstance_chain(p, d, q, f):
    import numpy as np

    sub = object.__new__(_Q5)
    sub._p, sub._q, sub._d = p, q, d
    values = [
        p, True, False, Fraction(p, d), _q5(p, q, d), sub, _Int(p), _Fraction(p, d),
        np.int64(p % 2**62), np.int8(p % 100), np.uint64(d % 2**64), np.bool_(True),
        Fraction(np.int64(p % 2**62), np.int64(d % 2**62 + 1)), _Fraction(np.int16(p % 100)),
        np.float64(f), f, Decimal(p), None, "1",
    ]
    for value in values:
        got = qfield._coords(value)
        assert got == _isinstance_coords(value)
        assert got is None or all(type(x) is int for x in got)
    assert qfield._coords(True) is None and qfield._coords(np.bool_(True)) is None
    assert qfield._coords(np.int64(3)) == (3, 0, 1)
    assert qfield._coords(_Int(p)) == (p, 0, 1)


def test_float_mixing_is_rejected():
    with pytest.raises(TypeError):
        SQRT5 + 0.5  # noqa: B018 - evaluating for the raise
    with pytest.raises(TypeError):
        0.5 * SQRT5  # noqa: B018


@pytest.mark.parametrize("bad", [0.1, 0.5, True, False, "1/3", None, 1j])
def test_constructors_take_only_int_and_fraction(bad):
    # a float would keep its binary value silently, and a bool is not a number
    # here; both constructors reject what every operator rejects
    for build in (lambda x: Q5(x), lambda x: Q5(1, x), lambda x: GoldenBasis(x),
                  lambda x: GoldenBasis(0, x)):
        with pytest.raises(TypeError):
            build(bad)
    assert Q5(3, Fraction(-1, 2)) == Q5(Fraction(3), Fraction(-1, 2))
    assert GoldenBasis(2, Fraction(1, 3)).c0 == Fraction(2)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Q5(1, 1) / Q5(0, 0)
    with pytest.raises(ZeroDivisionError):
        Q5(0, 0).inverse()


def test_pow():
    assert QSTAR**0 == Q5(1, 0)
    assert QSTAR**2 == QSTAR * QSTAR
    assert QSTAR**2 == 3 * QSTAR - 1  # minimal polynomial x² = 3x − 1
    assert SQRT5**2 == Q5(5, 0)
    assert QSTAR**-3 == (QSTAR**3).inverse()


def test_field_axioms_random():
    rng = random.Random(20260819)
    for _ in range(200):
        x, y, z = (rand_q5(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert x * (y + z) == x * y + x * z
        assert (x * y) * z == x * (y * z)
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        assert (x * y).norm() == x.norm() * y.norm()
        if y != 0:
            assert (x / y) * y == x


def test_pow_matches_repeated_multiplication():
    rng = random.Random(7)
    for _ in range(30):
        x = rand_q5(rng, span=6)
        acc = Q5(1, 0)
        for m in range(8):
            assert x**m == acc
            acc = acc * x


# ---------------------------------------------------------------------------
# ordering and sign
# ---------------------------------------------------------------------------


def test_sign_basic():
    assert SQRT5.sign() == 1
    assert (-SQRT5).sign() == -1
    assert Q5(0, 0).sign() == 0
    assert Q5(3, -2).sign() == -1  # 3 − 2√5 < 0 since 9 < 20
    assert Q5(3, -1).sign() == 1  # 3 − √5 > 0 since 9 > 5
    assert Q5(Fraction(13), Fraction(-2425, 719)).sign() == 1  # Λ(12) > 0


def test_sign_on_sqrt5_convergents():
    # p/q → √5 continued-fraction convergents give p² − 5q² = ±1 (after the
    # leading 2/1), so q√5 − p is a tiny number whose sign is forced by the
    # Pell residue.  Floating point loses these digits long before m = 40.
    ps = [2, 9]  # numerators; x_{k+1} = 4 x_k + x_{k-1}
    qs = [1, 4]
    for _ in range(40):
        ps.append(4 * ps[-1] + ps[-2])
        qs.append(4 * qs[-1] + qs[-2])
    for p, q in zip(ps, qs):
        pell = p * p - 5 * q * q
        assert pell in (-1, 1)
        x = Q5(-p, q)  # q√5 − p
        assert x.sign() == (1 if pell < 0 else -1)


def test_comparisons():
    assert QSTAR < Fraction(1, 2) < PHI
    assert QSTAR <= QSTAR
    assert SQRT5 > 2
    assert SQRT5 < Fraction(9, 4)
    assert sorted([PHI, QSTAR, Q5(Fraction(1, 2))]) == [
        QSTAR,
        Q5(Fraction(1, 2)),
        PHI,
    ]


def test_eq_hash():
    assert Q5(Fraction(3, 2)) == Fraction(3, 2)
    assert Q5(1, 0) == 1
    assert Q5(1, 0) != Q5(1, 1)
    d = {QSTAR: "golden"}
    assert d[Q5(Fraction(3, 2), Fraction(-1, 2))] == "golden"
    assert hash(Q5(Fraction(7, 3))) == hash(Fraction(7, 3))


def test_is_rational():
    assert Q5(Fraction(7, 3), 0).is_rational
    assert not QSTAR.is_rational


# ---------------------------------------------------------------------------
# golden basis
# ---------------------------------------------------------------------------


def test_golden_basis_conversions():
    g = SQRT5.to_golden()
    assert (g.c0, g.c1) == (Fraction(3), Fraction(-2))  # √5 = 3 − 2q⋆
    assert g.to_q5() == SQRT5
    # I₁(q⋆) at N = 12 in both bases
    i1 = Q5(Fraction(13, 2), Fraction(-131, 60))
    gi = i1.to_golden()
    assert (gi.c0, gi.c1) == (Fraction(-1, 20), Fraction(131, 30))
    assert gi.to_q5() == i1


def test_golden_basis_is_a_coordinate_view():
    g = QSTAR.to_golden()
    assert (g.c0, g.c1) == (0, 1)
    assert g == GoldenBasis(0, 1) and hash(g) == hash(GoldenBasis(0, 1))
    assert GoldenBasis(Fraction(5, 2), 0) == Fraction(5, 2)
    assert hash(GoldenBasis(Fraction(5, 2), 0)) == hash(Fraction(5, 2))
    assert float(g) == float(QSTAR)
    assert str(GoldenBasis(Fraction(2072, 719), Fraction(4850, 719))) == "2072/719 + 4850/719·q⋆"
    assert repr(g) == "GoldenBasis(Fraction(0, 1), Fraction(1, 1))"
    # arithmetic lives in Q5; the view has none of its own
    with pytest.raises(TypeError):
        g * g
    with pytest.raises(TypeError):
        g + 1


# ---------------------------------------------------------------------------
# certified decimal rendering
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "value, digits, expected",
    [
        (QSTAR, 11, "0.38196601125"),
        (Fraction(719, 720), 9, "0.998611111"),
        (Q5(Fraction(13, 2), Fraction(-131, 60)), 15, "1.617918249125459"),
        (Fraction(0), 3, "0.000"),
        (SQRT5, 10, "2.2360679775"),
        (PHI, 12, "1.618033988750"),
        (Fraction(1, 8), 2, "0.13"),
        (Fraction(-1, 8), 2, "-0.13"),
        (Fraction(-5, 2), 0, "-3"),
        (7, 0, "7"),
        (Q5(13, Fraction(-2425, 719)), 10, "5.4583242762"),
    ],
)
def test_decimal_str(value, digits, expected):
    assert decimal_str(value, digits) == expected


def test_decimal_str_matches_float():
    rng = random.Random(5)
    for _ in range(100):
        x = rand_q5(rng)
        rendered = decimal_str(x, 12)
        assert abs(float(rendered) - float(x)) < 5e-12 * max(1.0, abs(float(x)))


def test_decimal_str_rejects_negative_digits():
    with pytest.raises(ValueError):
        decimal_str(QSTAR, -1)


def test_decimal_str_rejects_floats():
    with pytest.raises(TypeError):
        decimal_str(0.5, 3)


def test_decimal_str_renders_a_golden_basis_value():
    assert decimal_str(GoldenBasis(0, 1), 11) == "0.38196601125"  # q⋆
    assert decimal_str(GoldenBasis(1, -2), 10) == "0.2360679775"  # √5 − 2


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "value, expected",
    [
        (Q5(Fraction(13, 2), Fraction(-131, 60)), "13/2 - 131/60·√5"),
        (Q5(3, 0), "3"),
        (Q5(0, 0), "0"),
        (Q5(0, -2), "-2·√5"),
        (Q5(-1, 1), "-1 + √5"),
        (SQRT5, "√5"),
    ],
)
def test_str(value, expected):
    assert str(value) == expected


def test_golden_str():
    assert str(QSTAR.to_golden()) == "q⋆"
    assert str(Q5(Fraction(13, 2), Fraction(-131, 60)).to_golden()) == "-1/20 + 131/30·q⋆"


def test_float_conversion():
    assert math.isclose(float(QSTAR), (3 - math.sqrt(5)) / 2, rel_tol=1e-15)
    assert math.isclose(float(PHI), (1 + math.sqrt(5)) / 2, rel_tol=1e-15)


def _pell(d, x, y, count):
    """``count`` solutions of ``x² − d·y² = ±1`` from the fundamental one,
    by powers of ``x + y·√d``."""
    out = [(x, y)]
    for _ in range(count - 1):
        m, a = out[-1]
        out.append((x * m + d * y * a, y * m + x * a))
    return out


#: ``m² − 5a² = ±1``: a·√5 is within ``1/(2a√5)`` of the integer m.
PELL = _pell(5, 2, 1, 60)


def _mp_float(p, q, d):
    """The float nearest ``(p + q·√5)/d`` from mpmath at 60 digits; a value
    with cancelling coordinates is evaluated as ``(p² − 5q²)/((p − q√5)·d)``."""
    with mpmath.workdps(60):
        root = mpmath.sqrt(5)
        if p * q < 0:
            value = mpmath.mpf(p * p - 5 * q * q) / ((p - q * root) * d)
        else:
            value = (p + q * root) / d
        return float(value)


def _mp_sums(n):
    """S₀…S₃ at q⋆ by direct summation in mpmath at 60 digits, stopping once
    the terms fall far below that precision."""
    with mpmath.workdps(60):
        q = (3 - mpmath.sqrt(5)) / 2
        sums, power = [mpmath.mpf(0)] * 4, mpmath.mpf(1)
        for r in range(1, min(n, 400) + 1):
            power *= q
            sums = [s + power * r**k for k, s in enumerate(sums)]
        return [float(s) for s in sums]


@pytest.mark.parametrize("n", [12, 40, 500, 10_000])
def test_float_of_golden_sums_is_correctly_rounded(n):
    # the coordinates of S_k cancel to O(1): 17 digits at N = 40 and 4180 at
    # N = 10⁴, where float(a) + float(b)·√5 gave 0.0, −9.1e192 or an OverflowError
    s = sums_closed(n, QSTAR)
    assert [float(v) for v in s.as_tuple()] == _mp_sums(n)
    m = moments(n, QSTAR)
    for v in (m.i1, m.i2, m.i3, m.var, m.i2_prime):
        assert float(v) == _mp_float(v._p, v._q, v._d)


def test_float_is_correctly_rounded_on_random_and_pell_values():
    assert float(QSTAR) == 0.38196601125010515 == _mp_float(3, -1, 2)
    rng = random.Random(18)
    for _ in range(2000):
        p, q = rng.randint(-(10**30), 10**30), rng.randint(-(10**30), 10**30) or 1
        d = rng.randint(1, 10 ** rng.randint(0, 30))
        x = _q5(p, q, d)
        assert float(x) == _mp_float(x._p, x._q, x._d)
        assert float(x.to_golden()) == float(x)
    for m, a in PELL:
        for d in (1, 7, 10**40):
            for x in (_q5(m, -a, d), _q5(-m, a, d)):  # ±(m − a√5)/d, near zero
                assert float(x) == _mp_float(x._p, x._q, x._d)
    assert float(Q5(Fraction(1, 3))) == 1 / 3  # a rational value: int / int


def test_float_at_the_ends_of_the_range():
    with pytest.raises(OverflowError):
        float(Q5(0, 10**400))
    tiny = SQRT5 / 10**400
    assert float(tiny) == 0.0 and math.copysign(1, float(tiny)) == 1
    assert float(-tiny) == 0.0 and math.copysign(1, float(-tiny)) == -1
    # subnormals round correctly too: √5·2⁻¹⁰⁷⁴ is 2.24 units of the last place
    assert float(SQRT5 / 2**1074) == 2 * 5e-324
    assert float(SQRT5 / 2**1075) == 5e-324


# ---------------------------------------------------------------------------
# exact rendering against the str() renderer
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _int_digit_limit(limit):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def _str_outcome(render, n):
    """``render(n)``, or the message of the ValueError it raises."""
    try:
        return render(n)
    except ValueError as exc:
        return ("ValueError", str(exc))


def test_str_of_exact_values_keeps_the_digit_limit():
    # without the CLI lifting it, str() of values past the limit raises as
    # Fraction.__str__ does; with the limit lifted they print
    big = 10**5000 + 1
    values = [Q5(big, 1), Q5(1, Fraction(big, 3)), GoldenBasis(Fraction(1, big), 1)]
    with _int_digit_limit(4300):
        for value in values:
            with pytest.raises(ValueError, match="limit"):
                str(value)
        with pytest.raises(ValueError, match="limit"):
            exact_forms(Fraction(big, 3))
    with _unlimited_int_digits():
        assert str(values[0]) == f"{big} + √5"
        assert exact_forms(Fraction(big, 3)) == (f"{big}/3",) * 2


def test_exact_forms_keep_the_digit_limit_on_derived_integers():
    # p, q and d have at most 4300 digits (and fewer bits than 4300·log₂10),
    # so their own digits fit the limit, but p + 3q (first value) or 2q
    # (second) has 4301: its golden form raises as str() of it does
    values = [_q5(4 * 10**4299, 4 * 10**4299 + 1, 1), _q5(-6 * 10**4299, 5 * 10**4299, 1)]
    past = [values[0]._p + 3 * values[0]._q, 2 * values[1]._q]
    with _int_digit_limit(4300):
        expected = _str_outcome(str, past[0])
        assert isinstance(expected, tuple) and expected == _str_outcome(str, past[1])
        for value in values:
            assert max(value._p, value._q).bit_length() < 4300 * math.log2(10)
            assert _str_outcome(str, value) == fraction_format_linear(value.a, value.b, "√5")
            assert _str_outcome(exact_forms, value) == expected
            assert _str_outcome(str, value.to_golden()) == expected
    # d has 4301 digits, but d/gcd(p, d) = d/11, d/gcd(q, d) = d/7 and
    # d/gcd(p + 3q, d) = d/13 have at most 4300, as has every other printed
    # integer: it prints under the limit, as str() of each printed integer does
    within = _q5(11 * (10**4289 + 11), 7 * (10**4289 + 3), 1001 * (10**4297 + 3))
    with _unlimited_int_digits():
        assert len(str(within._d)) == 4301
        for value in (*values, within):
            golden = value.to_golden()
            assert exact_forms(value) == (
                fraction_format_linear(value.a, value.b, "√5"),
                fraction_format_linear(golden.c0, golden.c1, "q⋆"),
            )
        expected = exact_forms(within)
    with _int_digit_limit(4300):
        assert exact_forms(within) == expected


def fraction_format_linear(c0, c1, symbol):
    """``c0 + c1·symbol`` with ``Fraction.__str__`` digits: the oracle of
    ``exact_forms``."""
    if c1 == 0:
        return str(c0)
    mag = abs(c1)
    term = symbol if mag == 1 else f"{mag}·{symbol}"
    if c0 == 0:
        return term if c1 > 0 else f"-{term}"
    joiner = " + " if c1 > 0 else " - "
    return f"{c0}{joiner}{term}"


def fraction_exact_str(v):
    """The CLI's exact column through ``Q5.a``/``.b``, ``to_golden()`` and
    ``Fraction.__str__``: the oracle of ``cli._exact_strs``."""
    if isinstance(v, Q5):
        if v.is_rational:
            return str(v.a)
        g = v.to_golden()
        sqrt5 = fraction_format_linear(v.a, v.b, "√5")
        return f"{sqrt5} = {fraction_format_linear(g.c0, g.c1, 'q⋆')}"
    return str(v)


def _big_int(digits, seed):
    """A random int of at most ``digits`` digits."""
    return random.Random(seed).randrange(10**digits)


_digit_counts = st.one_of(st.integers(1, 5000), st.just(5000))
big_naturals = st.builds(_big_int, _digit_counts, st.integers(0, 2**32))
# coordinates from 0 and ±1 to 5000 digits, denominators from 1
big_coords = st.one_of(
    st.integers(-3, 3),
    st.integers(-(10**6), 10**6),
    st.builds(lambda n, negative: -n if negative else n, big_naturals, st.booleans()),
)
denominators = st.one_of(st.integers(1, 12), big_naturals.map(lambda n: n + 1))
exact_values = st.one_of(
    st.builds(
        lambda a, da, b, db: Q5(Fraction(a, da), Fraction(b, db)),
        big_coords, denominators, big_coords, denominators,
    ),
    st.builds(_q5, big_coords, big_coords, denominators),
    st.builds(Fraction, big_coords, denominators),
)
_P5000, _Q5000, _D5000 = (random.Random(seed).randrange(10**4999, 10**5000) for seed in (1, 2, 3))


@given(value=exact_values)
@example(value=SQRT5)
@example(value=-SQRT5)
@example(value=Q5(0, 0))
@example(value=Q5(-7, 0))
@example(value=Q5(-3, 1))
@example(value=Q5(Fraction(-5, 2), Fraction(-1, 2)))
@example(value=QSTAR)
@example(value=-QSTAR)
@example(value=Q5(Fraction(3, 2), Fraction(1, 2)))
@example(value=Q5(Fraction(-3, 2), Fraction(1, 2)))
@example(value=Fraction(-4, 1))
@example(value=Fraction(0))
@example(value=_q5(_P5000, -_Q5000, _D5000))
@example(value=_q5(-_P5000, _Q5000, 1))
@example(value=Fraction(-_P5000, _D5000))
# d even or odd, with gcd(2q, d) = 2·gcd(q, d) or = gcd(q, d)
@example(value=_q5(1, 1, 4))
@example(value=_q5(1, 3, 6))
@example(value=_q5(-5, -3, 6))
@example(value=_q5(2, 3, 9))
@example(value=_q5(4, 3, 9))
@example(value=_q5(7, 6, 15))
@example(value=_q5(_P5000, 6 * _Q5000, 12 * _D5000 + 6))
# golden coordinates 0 and ±1: p + 3q = 0, and −2q/d = ±1
@example(value=_q5(-3, 1, 1))
@example(value=_q5(9, -3, 2))
@example(value=_q5(1, -1, 2))
@example(value=_q5(5, 1, 2))
@example(value=Q5(2, 1))
@example(value=Q5(-2, -1))
@example(value=Q5(0, 5))
# a 5000-digit q: gcd(2q, d) = gcd(q, d) (1 and 3), and
# gcd(2q, d) = 2·gcd(q, d) (2 and 6)
@example(value=_q5(1, _Q5000, 3))
@example(value=_q5(1, 6 * _Q5000, 9))
@example(value=_q5(1, 2 * _Q5000 + 1, 4))
@example(value=_q5(1, 3 * (2 * _Q5000 + 1), 12))
# a 5000-digit p + 3q with a small gcd(p + 3q, d) = 7, and with gcd 1
@example(value=_q5(7 * _P5000 - 3 * _Q5000, _Q5000, 7))
@example(value=_q5(_P5000, _Q5000, 7))
# d divides p (p/d = 10001, as in Λ(10⁴)), d/gcd(p, d) = 2 with
# p/gcd(p, d) = 13, and gcd(p, d) = 3
@example(value=_q5(10_001 * _D5000, _Q5000, _D5000))
@example(value=_q5(13 * _D5000, _Q5000, 2 * _D5000))
@example(value=_q5(3 * _P5000 + 3, _Q5000, 3 * _D5000))
# gcds past 2⁶⁴, with large and small quotients
@example(value=_q5(_P5000, (2**100 + 1) * _Q5000, (2**100 + 1) * 3))
@example(value=_q5(_P5000 * (2**100 + 1), 7, (2**100 + 1) * _D5000))
@example(value=_q5(5 * _D5000, _Q5000, (2**100 + 1) * _D5000))
# negative coordinates, one or both
@example(value=_q5(-_P5000, _Q5000, _D5000))
@example(value=_q5(-10_001 * _D5000, -_Q5000, _D5000))
@example(value=_q5(-_P5000, -_Q5000, 12 * _D5000 + 6))
@example(value=_q5(_P5000, -3 * _Q5000, 3))
@example(value=_q5(-3 * _Q5000 - 1, _Q5000, 1))
def _check_exact_rendering(value):
    expected = fraction_exact_str(value)
    assert _exact_strs([value]) == [expected]
    if isinstance(value, Q5):
        golden = value.to_golden()
        sqrt5_form = fraction_format_linear(value.a, value.b, "√5")
        golden_form = fraction_format_linear(golden.c0, golden.c1, "q⋆")
        assert str(value) == sqrt5_form
        assert str(golden) == golden_form
        assert exact_forms(value) == (sqrt5_form, golden_form)
    else:
        assert exact_forms(value) == (str(value),) * 2


def test_exact_rendering_matches_fraction_renderer():
    # hypothesis takes the repr of each explicit example, 5000-digit ones
    # too, so the limit is lifted around it as well as around the renderers
    with _unlimited_int_digits():
        _check_exact_rendering()


def _related(value):
    """Values that share coordinates with ``value``, when it is a Q5."""
    if not isinstance(value, Q5):
        return [value]
    return [value, -value, value.conjugate(), 2 * value, value + 1]


@settings(max_examples=30)
@given(values=st.lists(exact_values, max_size=3).map(lambda vs: [r for v in vs for r in _related(v)]))
def _check_rendering_in_one_call(values):
    alone = [form for value in values for form in exact_forms(value)]
    assert exact_forms(*values) == tuple(alone)
    assert _exact_strs(values) == [text for value in values for text in _exact_strs([value])]


def test_rendering_several_values_in_one_call_matches_each_alone():
    with _unlimited_int_digits():
        _check_rendering_in_one_call()


@pytest.mark.parametrize("value", [0.5, True, "1/2"])
def test_exact_forms_rejects_what_it_cannot_render(value):
    # a bool is not printed as the int it equals
    with pytest.raises(TypeError, match=f"^cannot render {type(value).__name__} exactly$"):
        exact_forms(QSTAR, value)


# ---------------------------------------------------------------------------
# the integer kernel against a Fraction-pair reference
# ---------------------------------------------------------------------------


class PairQ5:
    """``a + b·√5`` on two Fractions: the reference the integer kernel must match."""

    def __init__(self, a, b=0):
        self.a, self.b = Fraction(a), Fraction(b)

    @staticmethod
    def lift(x):
        return x if isinstance(x, PairQ5) else PairQ5(x)

    def __add__(self, other):
        y = PairQ5.lift(other)
        return PairQ5(self.a + y.a, self.b + y.b)

    def __sub__(self, other):
        y = PairQ5.lift(other)
        return PairQ5(self.a - y.a, self.b - y.b)

    def __mul__(self, other):
        y = PairQ5.lift(other)
        return PairQ5(self.a * y.a + 5 * self.b * y.b, self.a * y.b + self.b * y.a)

    def norm(self):
        return self.a * self.a - 5 * self.b * self.b

    def inverse(self):
        n = self.norm()
        return PairQ5(self.a / n, -self.b / n)

    def __truediv__(self, other):
        return self * PairQ5.lift(other).inverse()

    def __pow__(self, m):
        base = self.inverse() if m < 0 else self
        out = PairQ5(1)
        for _ in range(abs(m)):
            out = out * base
        return out

    def sign(self):
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0 or (a > 0) == (b > 0):
            return 1 if b > 0 else -1
        if a > 0:
            return 1 if a * a > 5 * b * b else -1
        return 1 if a * a < 5 * b * b else -1

    def __float__(self):
        """Correctly rounded: bracket √5 by isqrt bounds, doubling the bits
        until both ends round to the same float (Fraction → float rounds
        correctly)."""
        if self.b == 0:
            return float(self.a)
        bits = 64
        while True:
            t = math.isqrt(5 << 2 * bits)
            ends = sorted(self.a + self.b * Fraction(r, 1 << bits) for r in (t, t + 1))
            lo, hi = (float(e) for e in ends)
            if lo == hi and (lo != 0 or ends[0] * ends[1] > 0):
                return lo
            bits *= 2


def assert_same(x, ref):
    """``x`` is the reference value, in canonical (p, q, d) form."""
    assert isinstance(x, Q5)
    assert (x.a, x.b) == (ref.a, ref.b)
    p, q, d = x._p, x._q, x._d
    assert all(type(v) is int for v in (p, q, d))
    assert d > 0 and math.gcd(math.gcd(p, q), d) == 1
    assert (Fraction(p, d), Fraction(q, d)) == (ref.a, ref.b)


small_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=60)
big_rationals = st.builds(
    Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**30)
)
rationals = st.one_of(small_rationals, big_rationals, st.integers(-(10**25), 10**25))
elements = st.builds(lambda a, b: (Q5(a, b), PairQ5(a, b)), rationals, rationals)
# an operand is a Q5 or a plain int/Fraction, paired with its reference
operands = st.one_of(elements, rationals.map(lambda r: (r, r)))

OPS = [operator.add, operator.sub, operator.mul, operator.truediv]


@given(x=elements, y=operands, op=st.sampled_from(OPS), flip=st.booleans())
def test_kernel_arithmetic_matches_fraction_pairs(x, y, op, flip):
    (xq, xr), (yq, yr) = x, y
    if flip:  # the plain scalar, if any, on the left
        xq, yq, xr, yr = yq, xq, yr, xr
    divisor = yr if op is operator.truediv else 1
    if PairQ5.lift(divisor).norm() == 0:
        with pytest.raises(ZeroDivisionError):
            op(xq, yq)
        return
    assert_same(op(xq, yq), op(PairQ5.lift(xr), yr))


@given(x=elements, m=st.integers(-6, 9))
@example(x=(Q5(3, -2), PairQ5(3, -2)), m=2)  # 3 − 2√5 < 0
def test_kernel_inverse_and_powers_match_fraction_pairs(x, m):
    xq, xr = x
    if xr.norm() == 0:
        with pytest.raises(ZeroDivisionError):
            xq.inverse()
        assume(m >= 0)
    else:
        assert_same(xq.inverse(), xr.inverse())
        assert xq.norm() == xr.norm()
    assert_same(xq**m, xr**m)
    assert_same(-xq, PairQ5(-xr.a, -xr.b))
    assert_same(+xq, xr)
    assert_same(abs(xq), PairQ5(-xr.a, -xr.b) if xr.sign() < 0 else xr)
    assert_same(xq.conjugate(), PairQ5(xr.a, -xr.b))


# divisors of one coordinate: a rational (negative, with a denominator, or
# zero), which `_div` takes without a norm, or √5 times one, which takes the
# conjugate formula; both are held to the quotients of Fraction pairs
_nonzero_rationals = rationals.filter(lambda r: r != 0)
one_coordinate = st.one_of(
    _nonzero_rationals.map(lambda r: (Q5(r), PairQ5(r))),
    _nonzero_rationals.map(lambda r: (Q5(0, r), PairQ5(0, r))),
)
numerators = st.one_of(elements, st.just((Q5(0), PairQ5(0))))


@given(x=numerators, y=one_coordinate)
@example(x=(Q5(0), PairQ5(0)), y=(Q5(0, Fraction(-3, 7)), PairQ5(0, Fraction(-3, 7))))
@example(x=(Q5(1, 2), PairQ5(1, 2)), y=(Q5(Fraction(-5, 3)), PairQ5(Fraction(-5, 3))))
@example(x=(Q5(Fraction(2, 9), 3), PairQ5(Fraction(2, 9), 3)), y=(Q5(0, -6), PairQ5(0, -6)))
def test_division_by_one_coordinate_matches_the_conjugate_formula(x, y):
    (xq, xr), (yq, yr) = x, y
    assert yq.a == 0 or yq.b == 0
    assert_same(xq / yq, xr / yr)
    assert_same(yq.inverse(), yr.inverse())
    if yq.is_rational:  # the divisor as a plain Fraction takes the same path
        assert_same(xq / yq.a, xr / yr)


@pytest.mark.parametrize("x", [Q5(0), Q5(3), Q5(1, -2), SQRT5])
def test_division_by_zero_keeps_its_messages(x):
    with pytest.raises(ZeroDivisionError, match=r"^inverse of zero in Q\(√5\)$"):
        x / Q5(0)
    with pytest.raises(ZeroDivisionError, match=r"^inverse of zero in Q\(√5\)$"):
        Q5(0).inverse()
    with pytest.raises(ZeroDivisionError, match=r"^division by zero$"):
        x / Fraction(0)
    with pytest.raises(ZeroDivisionError, match=r"^inverse of zero in Q\(√5\)$"):
        1 / Q5(0)


@given(x=elements, y=operands)
def test_kernel_order_equality_hash_and_float(x, y):
    (xq, xr), (yq, yr) = x, y
    diff = xr - yr
    assert xq.sign() == xr.sign()
    assert (xq < yq) == (diff.sign() < 0)
    assert (xq >= yq) == (diff.sign() >= 0)
    assert (yq > xq) == (diff.sign() < 0)
    assert (xq == yq) == (diff.a == 0 and diff.b == 0)
    if xq == yq:
        assert hash(xq) == hash(yq)
    if xr.b == 0:
        assert hash(xq) == hash(xr.a)
    assert float(xq).hex() == float(xr).hex()
    assert (xq.a, xq.b) == (xr.a, xr.b)


def test_kernel_rejects_floats_on_both_sides():
    for op in OPS:
        with pytest.raises(TypeError):
            op(QSTAR, 0.5)
        with pytest.raises(TypeError):
            op(0.5, QSTAR)
    with pytest.raises(TypeError):
        QSTAR < 0.5  # noqa: B015
    assert (QSTAR == 0.5) is False


# ---------------------------------------------------------------------------
# decimal_str against the guard-doubling renderer it replaced
# ---------------------------------------------------------------------------


def _round_half_up(value):
    if value < 0:
        return -math.floor(-value + Fraction(1, 2))
    return math.floor(value + Fraction(1, 2))


def decimal_oracle(a, b, digits):
    """Bracket √5 by isqrt bounds, doubling the guard digits until both ends
    of ``a + b·√5`` round to the same string."""
    a, b = Fraction(a), Fraction(b)
    scale = 10**digits
    guard = 12
    while True:
        gscale = 10 ** (digits + guard)
        t = math.isqrt(5 * gscale * gscale)
        lo5, hi5 = Fraction(t, gscale), Fraction(t + 1, gscale)
        lo, hi = (a + b * lo5, a + b * hi5) if b >= 0 else (a + b * hi5, a + b * lo5)
        n_lo, n_hi = _round_half_up(lo * scale), _round_half_up(hi * scale)
        if n_lo == n_hi:
            break
        guard *= 2
    sign = "-" if n_lo < 0 else ""
    n = abs(n_lo)
    return f"{sign}{n}" if digits == 0 else f"{sign}{n // scale}.{n % scale:0{digits}d}"


@given(a=rationals, b=rationals, digits=st.integers(0, 40))
def test_decimal_str_matches_guard_doubling_oracle(a, b, digits):
    assert decimal_str(Q5(a, b), digits) == decimal_oracle(a, b, digits)


@given(
    k=st.integers(-(10**12), 10**12),
    digits=st.integers(0, 40),
    shift=st.integers(0, 3),
)
def test_decimal_str_rational_ties_round_away_from_zero(k, digits, shift):
    # (2k + 1)/(2·10^digits) sits exactly halfway between two printed values
    tie = Fraction(2 * k + 1, 2 * 10**digits)
    text = decimal_str(tie, digits)
    assert text == decimal_oracle(tie, 0, digits)
    away = math.floor(abs(tie) * 10**digits + Fraction(1, 2))
    assert int(text.replace(".", "").lstrip("-")) == away
    assert text.startswith("-") == (tie < 0)
    # a value just short of the tie rounds toward zero
    near = tie - Fraction(1, 10 ** (digits + 1 + shift)) * (1 if tie > 0 else -1)
    assert decimal_str(near, digits) == decimal_oracle(near, 0, digits)


@pytest.mark.parametrize("digits", [0, 1, 3, 12, 40])
def test_decimal_str_tiny_negatives_print_unsigned_zero(digits):
    # 682² − 5·305² = −1, so 682 − 305√5 ≈ −7.3e-4 with both coordinates large
    # next to it; scaled down it rounds to zero at any digit count
    scale = Fraction(1, 10**digits)
    zero = "0" if digits == 0 else "0." + "0" * digits
    for value in (Q5(682, -305) * scale, Q5(-scale / 3), Q5(-scale / 2 + scale / 10**9)):
        assert value < 0
        assert decimal_str(value, digits) == decimal_oracle(value.a, value.b, digits) == zero
    # the exact half rounds away from zero
    assert decimal_str(-scale / 2, digits) == "-" + zero[:-1] + "1"


@pytest.mark.parametrize("digits", [0, 12, 40])
def test_decimal_str_large_coordinates(digits):
    # coordinates of thousands of digits that cancel to a small value, as at q⋆
    x = QSTAR**3000
    assert max(abs(x.a.numerator), abs(x.b.numerator)) > 10**600
    assert decimal_str(x, digits) == decimal_oracle(x.a, x.b, digits)
    y = (PHI**2500 - 1) / PHI**2499
    assert decimal_str(y, digits) == decimal_oracle(y.a, y.b, digits)
    assert decimal_str(-y, digits) == decimal_oracle(-y.a, -y.b, digits)


# ---------------------------------------------------------------------------
# the cached √5 expansion: enclosures, the one exact retry, the isqrt count
# ---------------------------------------------------------------------------


@pytest.fixture
def cleared_sqrt5_cache(monkeypatch):
    """Start from an empty √5 expansion; the cache is restored afterwards."""
    monkeypatch.setattr(qfield, "_sqrt5_cache", (0, 2))


def _check_enclosure(a):
    exact = math.isqrt(5 * a * a)  # 5a² is never a square
    lo, hi = _sqrt5_floor(a, 32)
    assert lo <= exact <= hi <= lo + 1
    assert _sqrt5_floor(a, a.bit_length() + 3) == (exact, exact)
    return hi - lo


@pytest.mark.usefixtures("cleared_sqrt5_cache")
def test_sqrt5_floor_encloses_isqrt_on_random_values():
    rng = random.Random(1805)
    sizes = [1, 2, 3, 31, 32, 33, 64, 1000, 13_900, 60_000]
    sizes += [rng.randint(1, 60_000) for _ in range(40)]
    for bits in sizes:
        for a in (rng.getrandbits(bits) | 1 << (bits - 1), (1 << bits) - 1, 1 << (bits - 1)):
            _check_enclosure(a)


@pytest.mark.usefixtures("cleared_sqrt5_cache")
def test_sqrt5_floor_encloses_isqrt_on_pell_values():
    # a√5 is nearest an integer here: the 32-bit enclosure cannot decide once
    # a passes about 2^16, and the exact floor must still come out
    undecided = [_check_enclosure(a) for _, a in PELL]
    undecided += [_check_enclosure(2 * a) for _, a in PELL]
    assert sum(undecided) > len(PELL)


def _spy_guards(monkeypatch):
    """Record the guard bits of every ``_sqrt5_floor`` call."""
    guards = []
    real = qfield._sqrt5_floor

    def spy(a, guard):
        guards.append(guard)
        return real(a, guard)

    monkeypatch.setattr(qfield, "_sqrt5_floor", spy)
    return guards


@pytest.mark.parametrize("digits", [0, 12, 60])
def test_decimal_str_of_golden_sums_near_integers(monkeypatch, digits):
    # S₁ = 1 − ε and S₃ = 7 − ε with ε < 10⁻⁴¹⁰⁰ at N = 10⁴: 2Q√5 lies so
    # close to an integer that 32 guard bits leave its floor undecided, yet
    # both ends of the enclosure give the same digits, so there is no retry
    s = sums_closed(10_000, QSTAR)
    for value, whole in ((s.s1, 1), (s.s3, 7)):
        lo, hi = _sqrt5_floor(2 * abs(value._q) * 10**digits, 32)
        assert hi == lo + 1
        guards = _spy_guards(monkeypatch)
        text = decimal_str(value, digits)
        assert guards == [32]
        assert text == decimal_oracle(value.a, value.b, digits)
        assert text == (f"{whole}" if digits == 0 else f"{whole}.{'0' * digits}")


@pytest.mark.parametrize("digits", [0, 3, 12])
def test_decimal_str_retries_when_the_digits_hinge_on_the_floor(monkeypatch, digits):
    # x² − 20y² = 1 puts 2y√5 just below the odd integer x, so
    # (p + y√5)/10^digits lies just below the halfway point p + x/2 of two
    # printed values: the ends of the 32-bit enclosure round apart, and the
    # exact floor decides (toward zero)
    x, y = _pell(20, 9, 2, 30)[-1]
    assert x % 2 == 1 and x * x - 20 * y * y == 1
    for p in (0, 1, -5 * y):
        value = Q5(p, y) / 10**digits
        for v in (value, -value):
            guards = _spy_guards(monkeypatch)
            text = decimal_str(v, digits)
            assert len(guards) == 2 and guards[0] == 32 < guards[1]
            assert text == decimal_oracle(v.a, v.b, digits)
            n = abs(p + (x - 1) // 2)  # rounded toward zero, not away
            body = f"{n}" if digits == 0 else f"{n // 10**digits}.{n % 10**digits:0{digits}d}"
            assert text == ("-" if v < 0 and n else "") + body


def _spy_int_str(monkeypatch):
    """The integers that ``qfield._Digits`` converts from now on."""
    converted = []
    real = qfield._Digits.__missing__

    def spy(digits, n):
        converted.append(n)
        return real(digits, n)

    monkeypatch.setattr(qfield._Digits, "__missing__", spy)
    return converted


@pytest.mark.parametrize(
    "argv,most",
    [
        # each coordinate once, shared denominators once: 40 and 4 when each
        # printed integer was converted
        (["moments", "--q", "phi^-2", "--N", "10000"], 21),
        (["lambda", "--N", "10000"], 3),
    ],
)
def test_golden_values_print_from_one_conversion_per_coordinate(monkeypatch, capsys, argv, most):
    converted = _spy_int_str(monkeypatch)
    assert cli.main(argv) == 0
    capsys.readouterr()
    big = [n for n in converted if abs(n).bit_length() > 3000]
    assert 0 < len(big) <= most
    assert len(set(map(abs, big))) == len(big)  # none twice


@pytest.mark.parametrize(
    "argv", [["moments", "--q", "phi^-2", "--N", "10000"], ["lambda", "--N", "10000"]]
)
def test_golden_values_print_from_the_digits_of_f_n_and_l_n(monkeypatch, capsys, argv):
    # every printed integer derives from F_N and L_N, converted once each (18
    # and 2 conversions of ints above 3000 bits when each coordinate was)
    converted = _spy_int_str(monkeypatch)
    assert cli.main(argv) == 0
    capsys.readouterr()
    big = sorted(abs(n) for n in converted if abs(n).bit_length() > 3000)
    assert big == [fibonacci(10_000), fibonacci(9_999) + fibonacci(10_001)]


#: sizes whose golden-point values print through both routes in the tests:
#: sums' coordinates pass 3000 bits from N = 2161, and I₁…I₃'s near N = 4320
GOLDEN_SIZES = [*range(1, 401), 2160, 2161, 4320, 9999, 10_000, 10_001]


def golden_values(n):
    """The golden-point values of N, by their names in ``folded``'s forms."""
    named = {**sums_closed(n, QSTAR)._asdict(), **moments(n, QSTAR)._asdict()}
    del named["n"], named["q"]
    if n >= 2:
        named["lambda"] = lambda_n(n)
    return named


def test_golden_route_prints_what_exact_forms_prints():
    with _unlimited_int_digits():
        for n in GOLDEN_SIZES:
            named = golden_values(n)
            assert _golden_exact_forms(n, list(named)) == exact_forms(*named.values()), n


def test_golden_commands_print_the_bytes_of_exact_forms(monkeypatch, capsys):
    # the stdout of every format of `moments --q phi^-2`, `lambda` and
    # `stationarity` (N ≥ 3), with the golden-point values printed from F_N
    # and L_N and through exact_forms
    from goldenschur import folded

    def outputs():
        texts = []
        for n in GOLDEN_SIZES:
            for argv in (
                *(["moments", "--q", "phi^-2", "--format", f] for f in ("exact", "decimal", "both")),
                *(["lambda", "--format", f] for f in ("table", "csv", "json")),
                *(["stationarity", "--B=-7/3", "--format", f] for f in ("table", "csv", "json") if n >= 3),
            ):
                code = cli.main([*argv, "--N", str(n)])
                texts.append((argv, n, code, *capsys.readouterr()))
        return texts

    printed = outputs()
    monkeypatch.setattr(
        folded,
        "_golden_exact_forms",
        lambda n, names: exact_forms(*map(golden_values(n).__getitem__, names)),
    )
    for new, old in zip(printed, outputs()):
        assert new == old, new[:2]


@pytest.mark.parametrize("n", [3, 4, 12, 10_000, 10_001])
def test_stationarity_prints_lambda_through_the_golden_route(monkeypatch, capsys, n):
    # Λ's exact column is the golden-point route's, as in `lambda`; A's is
    # exact_forms'
    from goldenschur import folded

    calls, golden = [], folded._golden_exact_forms
    monkeypatch.setattr(folded, "_golden_exact_forms", lambda *args: calls.append(args) or golden(*args))
    assert cli.main(["stationarity", "--N", str(n), "--B=-7/3"]) == 0
    capsys.readouterr()
    assert calls == [(n, ["lambda"])]


def test_golden_values_keep_the_digit_limit():
    # at N = 10500, F_N and L_N and the coordinates of I₁ have about 2200
    # digits, and those of S₀ and Λ about 4390: derived digits past the
    # limit raise as str() of the integer does, and the others print
    n = 10_500
    named = golden_values(n)
    with _int_digit_limit(4300):
        outcomes = [_str_outcome(lambda v: _golden_exact_forms(n, [v]), v) for v in named]
        assert outcomes == [_str_outcome(exact_forms, value) for value in named.values()]
    assert outcomes[0][0] == "ValueError" != outcomes[4][0]  # S₀ raises, I₁ prints


@pytest.mark.usefixtures("cleared_sqrt5_cache")
def test_golden_moments_print_with_at_most_one_isqrt(monkeypatch, capsys):
    calls = []
    real = math.isqrt

    def counted(n):
        calls.append(n.bit_length())
        return real(n)

    monkeypatch.setattr(qfield.math, "isqrt", counted)
    assert cli.main(["moments", "--q", "phi^-2", "--N", "10000"]) == 0
    assert capsys.readouterr().out.count("≈") == 10
    assert len(calls) <= 1
    # and the expansion stops a little past the bits the largest value needs
    s = sums_closed(10_000, QSTAR)
    m = moments(10_000, QSTAR)
    values = (*s.as_tuple(), *m[2:])
    needed = max((2 * abs(v._q) * 10**12).bit_length() + 32 for v in values)
    assert needed <= qfield._sqrt5_cache[0] < 1.1 * needed


# ---------------------------------------------------------------------------
# one reader of exact values: integers of any type are read as Python ints
# ---------------------------------------------------------------------------

_NUMPY_INTEGERS = (
    "int8", "int16", "int32", "int64", "uint8", "uint16", "uint32", "uint64",
)


def _held_ints(x):
    """The integers that an exact value holds."""
    if isinstance(x, Q5):
        return x._p, x._q, x._d
    if isinstance(x, GoldenBasis):
        return (*_held_ints(x.c0), *_held_ints(x.c1))
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    return ()


def _assert_same(got, want):
    """got equals want, with the same type throughout, and every integer an
    exact value of got holds is a Python int."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same(g, w)
        return
    assert got == want
    assert all(type(i) is int for i in _held_ints(got)), got


def _outcome(call, *args):
    """call's result, or the type and text of the ValueError it raises."""
    try:
        return call(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _exact_results(a, d, c, n, cast):
    """What each exact route returns for q = a/d, an integer c and size n,
    with every integer passed through ``cast`` first."""
    q, c_ = Fraction(cast(a), cast(d)), cast(c)
    x, y = Q5(q, c_), Q5(c_, Fraction(cast(a), cast(d + 1)))
    field = (x + y, x - y, x * y, x / y, x**12, y**-3, c_ - x, c_ * y, q / x, q - y, x == c_)
    coeffs = QuadLawCoeffs(c_, q, n, cast(d))
    samples = [(q, c_), (Fraction(cast(a), cast(d + 1)), Fraction(cast(c), cast(d)))]
    return (
        Q5(c_), GoldenBasis(q, c_), GoldenBasis(c_, q).to_q5(), field,
        decimal_str(q, 30), decimal_str(c_, 3), decimal_str(x, 30), exact_forms(q, c_, x, y),
        sums_closed(n, q), moments(n, q), coeffs, f_red_prime_q(coeffs, q),
        bracket_residual(coeffs), bracket_residual(coeffs, c_),
        _outcome(quadratic_law_fit, samples, n),
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 126), st.integers(1, 126), st.integers(-126, 126), st.integers(3, 40))
def test_numpy_integers_give_the_values_and_types_of_python_ints(a, gap, c, n):
    # q = a/(a + gap) lies in (0, 1); every integer is cast to each numpy type
    # that holds it, and each route gives what Python ints give, with no
    # warning (a RuntimeWarning is an error here)
    import numpy as np

    d = a + gap
    want = _exact_results(a, d, c, n, int)
    for name in _NUMPY_INTEGERS:
        info = np.iinfo(name)
        if info.min <= min(c, a) and d + 1 <= info.max:
            _assert_same(_exact_results(a, d, c, n, np.dtype(name).type), want)


def test_power_of_a_q5_of_numpy_integers_does_not_wrap():
    # its coordinates were kept as int64, and the 40th power wrapped with only
    # a RuntimeWarning
    import numpy as np

    third = Fraction(np.int64(1), np.int64(3))
    got = Q5(third, third) ** 40
    _assert_same(got, Q5(Fraction(1, 3), Fraction(1, 3)) ** 40)


def test_numpy_integers_are_exact_where_python_ints_are():
    # decimal_str raised OverflowError, a numpy-integer Λ took the float lane,
    # B·Λ wrapped for a Fraction of numpy integers, and an int64 κ overflowed
    # inside the fit
    import numpy as np

    third = Fraction(np.int64(1), np.int64(3))
    assert decimal_str(third, 25) == "0." + "3" * 25
    _assert_same(bracket_residual(QuadLawCoeffs(1, 2, 12), np.int64(4)), Fraction(2))
    coeffs, lam = QuadLawCoeffs(1, 2**40, 12), Fraction(np.int64(2**62), np.int64(3))
    _assert_same(bracket_residual(coeffs, lam), bracket_residual(coeffs, Fraction(2**62, 3)))
    big = Fraction(np.int64(2**61), np.int64(7))
    got = quadratic_law_fit([(third, big), (Fraction(1, 2), np.int64(5))], 12)
    _assert_same(got, quadratic_law_fit([(Fraction(1, 3), Fraction(2**61, 7)), (Fraction(1, 2), 5)], 12))
