"""Tests for the exact Q(√5) field layer."""

import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

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
        return float(self.a) + float(self.b) * math.sqrt(5.0)


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
    assert_same(xq.conjugate(), PairQ5(xr.a, -xr.b))


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
