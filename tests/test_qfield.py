"""Tests for the exact Q(√5) field layer."""

import math
import random
from fractions import Fraction

import pytest

from goldenschur.qfield import PHI, QSTAR, SQRT5, GoldenBasis, Q5, decimal_str


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


def test_float_mixing_is_rejected():
    with pytest.raises(TypeError):
        SQRT5 + 0.5  # noqa: B018 - evaluating for the raise
    with pytest.raises(TypeError):
        0.5 * SQRT5  # noqa: B018


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
