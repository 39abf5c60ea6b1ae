"""Exact arithmetic in the real quadratic field Q(√5), on plain integers.

Every element is stored as three ints ``(p, q, d)`` meaning
``(p + q·√5)/d``, with ``d > 0`` and ``gcd(p, q, d) = 1``: one common
denominator for both coordinates (Cohen, *A Course in Computational
Algebraic Number Theory*, §4.2).  √5 is irrational, so this form is
canonical, which makes equality structural and lets :meth:`Q5.sign` decide
order by integer case analysis — no floating point and no
:class:`fractions.Fraction` arithmetic in any field operation.  The
rational coordinates ``a = p/d`` and ``b = q/d`` are built on demand.

The module also provides :class:`GoldenBasis`, the coordinates of an
element in the golden basis ``{1, q⋆}`` with ``q⋆ = (3 − √5)/2`` (the inverse
square of the golden ratio), related to the √5 basis by ``√5 = 3 − 2·q⋆``.
It is a view for reading and printing values; all arithmetic happens in
:class:`Q5`.

Decimals and floats are read off one process-wide fixed-point expansion
``⌊√5·2^B⌋``, built on first use and extended only as far as a call needs.
``_sqrt5_floor`` encloses ``⌊a·√5⌋`` for an int ``a ≥ 1`` between two
integers at most one apart; :func:`decimal_str` and ``float(Q5)`` take a
result when both ends of the enclosure give it, and otherwise retry (Ziv,
*Fast evaluation of elementary mathematical functions with correctly
rounded last bit*, ACM TOMS 17, 1991).  A retry of ``decimal_str`` is exact
and happens at most once: ``5a² − m²`` is a nonzero integer, so
``|a·√5 − m| = |5a² − m²|/(a·√5 + m) > 2^−(bits(a)+3)`` for every integer
``0 ≤ m < a·√5 + 1``, and ``bits(a) + 3`` guard bits decide the floor.

Exact forms (``str`` of a Q5 and of a GoldenBasis, and :func:`exact_forms`,
which renders both forms of any number of values in one call) are rendered
by ``_format_linear`` from reduced integer pairs, each distinct integer
converted to digits once per call (``_Digits``).  A radix conversion is
quadratic in the digits up to Python 3.11 (and below about 9000 digits
after it).  The golden-point values that ``moments --q phi^-2`` prints, and
Λ in ``lambda`` and ``stationarity``, take a route of their own, from the
digits of F_N and L_N (:mod:`.folded`), and :func:`exact_forms` is the
oracle it is tested against.

:func:`_coords` is the one reader of exact values for every lane of the
package: a Q5, a Fraction (of any subclass) and an integer of any type but
bool (any :class:`numbers.Integral`, numpy's too) are exact, and anything
else takes the float lane.  It returns their integers as Python ints: a
Fraction's numerator and denominator, and an integer that is not a Python
int, are converted with ``int()`` there and nowhere else, since a numpy
integer would wrap.  A caller that keeps the value itself, not its
coordinates, reads it with :func:`_exact_value`.
"""

from __future__ import annotations

import math
import numbers
import sys
from fractions import Fraction
from typing import Union

from .floatlaw import _count

__all__ = [
    "Q5",
    "GoldenBasis",
    "QSTAR",
    "SQRT5",
    "PHI",
    "decimal_str",
    "exact_forms",
]

_RationalLike = Union[int, Fraction]
_Coords = tuple[int, int, int]


def _coords(value: object) -> _Coords | None:
    """``(p, q, d)`` as Python ints of a Q5, a Fraction or an integer that is
    not a bool; None for anything else (floats too).  The exact types are
    dispatched first, the subclasses by the ``isinstance`` chain, and any
    other integer type by ``numbers.Integral`` last."""
    t = type(value)
    if t is Q5:
        return value._p, value._q, value._d
    if t is Fraction or t is not int and isinstance(value, Fraction):
        p, d = value.numerator, value.denominator
        if type(p) is not int or type(d) is not int:
            p, d = int(p), int(d)
        return p, 0, d
    if t is int:
        return value, 0, 1
    if isinstance(value, Q5):
        return value._p, value._q, value._d
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value), 0, 1
    return None


def _exact_value(value: object) -> Q5 | Fraction | int | None:
    """An exact scalar as a value on Python ints, for callers that keep the
    value: a Q5, an int and a Fraction of Python ints as they are, any other
    Fraction or integer rebuilt from :func:`_coords`; None if inexact."""
    t = type(value)
    if t is Q5 or t is int:
        return value
    if isinstance(value, Fraction):
        if type(value.numerator) is int and type(value.denominator) is int:
            return value
        p, _, d = _coords(value)
        return Fraction(p, d)
    x = _coords(value)
    if x is None:
        return None
    return value if isinstance(value, Q5) else x[0]


def _rational_coords(x: object) -> tuple[int, int]:
    """``(numerator, denominator)`` of a coordinate of :class:`Q5` or
    :class:`GoldenBasis`, as :func:`_coords` reads it; a TypeError for a Q5
    and for anything inexact."""
    c = None if isinstance(x, Q5) else _coords(x)
    if c is None:
        raise TypeError(f"expected an int or a Fraction, got {type(x).__name__} {x!r}")
    return c[0], c[2]


def _q5(p: int, q: int, d: int) -> "Q5":
    """The element ``(p + q·√5)/d`` for ``d > 0``, in lowest terms.

    The gcd starts from ``d`` and ``p``, and takes in ``q`` only when they
    share a factor.
    """
    g = math.gcd(d, p)
    if g != 1:
        g = math.gcd(g, q)
        if g != 1:
            p, q, d = p // g, q // g, d // g
    x = object.__new__(Q5)
    x._p, x._q, x._d = p, q, d
    return x


def _sign(p: int, q: int) -> int:
    """Exact sign of ``p + q·√5``.

    When the coordinates have opposite signs the larger of ``p²`` and
    ``5q²`` decides; they cannot tie for nonzero coordinates because √5 is
    irrational.
    """
    if q == 0:
        return (p > 0) - (p < 0)
    if p == 0 or (p > 0) == (q > 0) or p * p < 5 * q * q:
        return 1 if q > 0 else -1
    return 1 if p > 0 else -1


#: ``(B, ⌊√5·2^B⌋)``, extended by ``_sqrt5_floor`` on demand: the only state
#: this module keeps between calls.  One tuple, replaced whole, so a reader
#: never pairs a precision with another precision's digits.
_sqrt5_cache = (0, 2)
#: Guard bits of a first enclosure; its ends differ for fewer than one ``a`` in 2³².
_GUARD_BITS = 32


def _sqrt5_floor(a: int, guard: int) -> tuple[int, int]:
    """``(lo, hi)`` with ``lo ≤ ⌊a·√5⌋ ≤ hi ≤ lo + 1``, for an int ``a ≥ 1``.

    With ``B = bits(a) + guard`` and ``r = ⌊√5·2^B⌋``, a·√5 lies strictly
    inside ``(a·r/2^B, (a·r + a)/2^B)``, an interval narrower than
    ``2^−guard``; ``lo`` and ``hi`` are the floors of its ends.  ``r`` is
    the cached expansion truncated to B bits.  When B exceeds it, the cache
    is rebuilt by one ``isqrt`` at B plus a sixteenth: enough for the
    values of similar size printed next, without the cost of doubling.
    ``guard = bits(a) + 3`` gives ``lo = hi`` (see the module docstring).
    """
    global _sqrt5_cache
    bits = a.bit_length() + guard
    cached_bits, fixed = _sqrt5_cache
    if bits > cached_bits:
        cached_bits = bits + (bits >> 4)
        fixed = math.isqrt(5 << 2 * cached_bits)
        _sqrt5_cache = (cached_bits, fixed)
    low = a * (fixed >> (cached_bits - bits))
    return low >> bits, (low + a) >> bits


def _irrational_float(p: int, q: int, d: int) -> float:
    """The correctly rounded float of ``(p + q·√5)/d``, for ``q ≠ 0``.

    For a shift s, ``_sqrt5_floor`` puts ``q·√5·2^s`` strictly between two
    integers ``lo`` and ``hi``, so the value lies strictly between
    ``(p·2^s + lo)/(d·2^s)`` and ``(p·2^s + hi)/(d·2^s)``, and int / int
    rounds each end correctly.  When both ends round to the same float, so
    does every number between them; otherwise s grows.  The value is
    irrational, so it is never a rounding boundary and the loop ends.
    """
    a = abs(q)
    shift = max(0, 64 - max(p.bit_length(), a.bit_length()))
    while True:
        lo, hi = _sqrt5_floor(a << shift, _GUARD_BITS)
        lo, hi = (lo, hi + 1) if q > 0 else (-hi - 1, -lo)
        base, den = p << shift, d << shift
        low = (base + lo) / den
        if low == (base + hi) / den:
            # both ends underflow alike: the zero takes the value's sign
            return low if low else math.copysign(0.0, _sign(p, q))
        shift = 2 * shift + 64


def _add(x: _Coords, y: _Coords) -> "Q5":
    """``x + y`` over the common denominator, or over ``d₁d₂`` if they differ."""
    p1, q1, d1 = x
    p2, q2, d2 = y
    if d1 == d2:
        return _q5(p1 + p2, q1 + q2, d1)
    return _q5(p1 * d2 + p2 * d1, q1 * d2 + q2 * d1, d1 * d2)


def _mul(x: _Coords, y: _Coords) -> "Q5":
    p1, q1, d1 = x
    p2, q2, d2 = y
    return _q5(p1 * p2 + 5 * q1 * q2, p1 * q2 + q1 * p2, d1 * d2)


def _div(x: _Coords, y: _Coords, message: str) -> "Q5":
    """``x / y`` with one normalisation, by the conjugate of y:
    ``(p₁ + q₁√5)(p₂ − q₂√5)·d₂ / (d₁(p₂² − 5q₂²))`` (Cohen, §4.2).  A
    rational divisor ``p₂/d₂`` needs neither its norm nor a conjugate
    product: it gives ``(p₁d₂ + q₁d₂√5)/(d₁p₂)``.  The divisor's sign is
    moved to the numerator."""
    p1, q1, d1 = x
    p2, q2, d2 = y
    if q2 == 0:
        if p2 == 0:
            raise ZeroDivisionError(message)
        p, q, d = p1 * d2, q1 * d2, d1 * p2
    else:  # the norm is nonzero, since √5 is irrational
        n = p2 * p2 - 5 * q2 * q2
        p, q, d = (p1 * p2 - 5 * q1 * q2) * d2, (q1 * p2 - p1 * q2) * d2, d1 * n
    if d < 0:
        p, q, d = -p, -q, -d
    return _q5(p, q, d)


class Q5:
    """An element ``a + b·√5`` of Q(√5), stored as ``(p + q·√5)/d`` in ints.

    ``Q5(a, b)`` takes integer or Fraction coordinates; ``.a`` and ``.b``
    return them as Fractions.  Arithmetic is closed and total; division by a
    nonzero element is exact via the Galois conjugate (the field norm
    ``a² − 5b²`` vanishes only at zero, since √5 is irrational), and needs no
    norm when the divisor is rational.  Integers and Fractions mix freely on
    either side of every operator; floats are rejected.
    """

    __slots__ = ("_p", "_q", "_d")

    def __init__(self, a: _RationalLike = 0, b: _RationalLike = 0) -> None:
        (pa, da), (pb, db) = _rational_coords(a), _rational_coords(b)
        # over lcm(da, db) the triple is already in lowest terms
        d = math.lcm(da, db)
        self._p, self._q, self._d = pa * (d // da), pb * (d // db), d

    @property
    def a(self) -> Fraction:
        """Rational coordinate (coefficient of 1)."""
        return Fraction(self._p, self._d)

    @property
    def b(self) -> Fraction:
        """Coefficient of √5."""
        return Fraction(self._q, self._d)

    # -- basic structure ---------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self._q == 0

    def conjugate(self) -> "Q5":
        """Galois conjugate ``a − b·√5``."""
        return _q5(self._p, -self._q, self._d)

    def norm(self) -> Fraction:
        """Field norm ``a² − 5b²`` (rational; zero only for the zero element)."""
        return Fraction(self._p * self._p - 5 * self._q * self._q, self._d * self._d)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: object) -> "Q5":
        y = _coords(other)
        if y is None:
            return NotImplemented
        return _add((self._p, self._q, self._d), y)

    __radd__ = __add__

    def __sub__(self, other: object) -> "Q5":
        y = _coords(other)
        if y is None:
            return NotImplemented
        p, q, d = y
        return _add((self._p, self._q, self._d), (-p, -q, d))

    def __rsub__(self, other: object) -> "Q5":
        x = _coords(other)
        if x is None:
            return NotImplemented
        return _add(x, (-self._p, -self._q, self._d))

    def __mul__(self, other: object) -> "Q5":
        y = _coords(other)
        if y is None:
            return NotImplemented
        return _mul((self._p, self._q, self._d), y)

    __rmul__ = __mul__

    def inverse(self) -> "Q5":
        return _div((1, 0, 1), (self._p, self._q, self._d), "inverse of zero in Q(√5)")

    def __truediv__(self, other: object) -> "Q5":
        y = _coords(other)
        if y is None:
            return NotImplemented
        message = "inverse of zero in Q(√5)" if isinstance(other, Q5) else "division by zero"
        return _div((self._p, self._q, self._d), y, message)

    def __rtruediv__(self, other: object) -> "Q5":
        x = _coords(other)
        if x is None:
            return NotImplemented
        return _div(x, (self._p, self._q, self._d), "inverse of zero in Q(√5)")

    def __pow__(self, exponent: int) -> "Q5":
        if type(exponent) is not int:  # read as any operand: a bool is no exponent
            x = _coords(exponent)
            if x is None or x[1] or x[2] != 1:
                return NotImplemented
            exponent = x[0]
        base = self.inverse() if exponent < 0 else self
        x = (base._p, base._q, base._d)
        result = _q5(1, 0, 1)
        n = abs(exponent)
        while n:
            if n & 1:
                result = _mul((result._p, result._q, result._d), x)
            n >>= 1
            if n:
                square = _mul(x, x)
                x = (square._p, square._q, square._d)
        return result

    def __neg__(self) -> "Q5":
        return _q5(-self._p, -self._q, self._d)

    def __pos__(self) -> "Q5":
        return self

    def __abs__(self) -> "Q5":
        return -self if self.sign() < 0 else self

    # -- order -------------------------------------------------------------

    def sign(self) -> int:
        """Exact sign (−1, 0, +1) by integer case analysis on ``p + q·√5``."""
        return _sign(self._p, self._q)

    def __eq__(self, other: object) -> bool:
        y = _coords(other)
        if y is None:
            return NotImplemented
        return self._p == y[0] and self._q == y[1] and self._d == y[2]

    def __hash__(self) -> int:
        if self._q == 0:
            return hash(Fraction(self._p, self._d))
        return hash((self._p, self._q, self._d))

    def _compare(self, other: object) -> int | None:
        y = _coords(other)
        if y is None:
            return None
        p2, q2, d2 = y
        # both denominators are positive, so cross-multiplying keeps the sign
        return _sign(self._p * d2 - p2 * self._d, self._q * d2 - q2 * self._d)

    def __lt__(self, other: object) -> bool:
        c = self._compare(other)
        if c is None:
            return NotImplemented
        return c < 0

    def __le__(self, other: object) -> bool:
        c = self._compare(other)
        if c is None:
            return NotImplemented
        return c <= 0

    def __gt__(self, other: object) -> bool:
        c = self._compare(other)
        if c is None:
            return NotImplemented
        return c > 0

    def __ge__(self, other: object) -> bool:
        c = self._compare(other)
        if c is None:
            return NotImplemented
        return c >= 0

    # -- conversions -------------------------------------------------------

    def to_golden(self) -> "GoldenBasis":
        """Rewrite in the golden basis via ``√5 = 3 − 2·q⋆``."""
        p, q, d = self._p, self._q, self._d
        return GoldenBasis(Fraction(p + 3 * q, d), Fraction(-2 * q, d))

    def __float__(self) -> float:
        """The correctly rounded float; OverflowError beyond the float range."""
        if self._q == 0:
            return self._p / self._d  # int / int is correctly rounded
        return _irrational_float(self._p, self._q, self._d)

    def __repr__(self) -> str:
        return f"Q5({self.a!r}, {self.b!r})"

    def __str__(self) -> str:
        p, q, d = self._p, self._q, self._d
        return _format_linear((_reduced(p, d), _reduced(q, d), "√5"))[0]


class GoldenBasis:
    """Coordinates ``(c0, c1)`` of ``c0 + c1·q⋆`` in the golden basis ``{1, q⋆}``.

    A view of an element of Q(√5), not a second field implementation: convert
    with :meth:`to_q5` to compute.
    """

    __slots__ = ("_c0", "_c1")

    def __init__(self, c0: _RationalLike = 0, c1: _RationalLike = 0) -> None:
        self._c0, self._c1 = (Fraction(*_rational_coords(c)) for c in (c0, c1))

    @property
    def c0(self) -> Fraction:
        return self._c0

    @property
    def c1(self) -> Fraction:
        """Coefficient of q⋆."""
        return self._c1

    def to_q5(self) -> Q5:
        """Rewrite in the √5 basis via ``q⋆ = (3 − √5)/2``."""
        n0, d0 = self._c0.numerator, self._c0.denominator
        n1, d1 = self._c1.numerator, self._c1.denominator
        return _q5(2 * n0 * d1 + 3 * n1 * d0, -n1 * d0, 2 * d0 * d1)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GoldenBasis):
            return self._c0 == other._c0 and self._c1 == other._c1
        if isinstance(other, Q5) or _coords(other) is None:
            return NotImplemented
        return self._c1 == 0 and self._c0 == other

    def __hash__(self) -> int:
        if self._c1 == 0:
            return hash(self._c0)
        return hash(("golden", self._c0, self._c1))

    def __float__(self) -> float:
        return float(self.to_q5())

    def __repr__(self) -> str:
        return f"GoldenBasis({self._c0!r}, {self._c1!r})"

    def __str__(self) -> str:
        c0, c1 = self._c0, self._c1
        pairs = (c0.numerator, c0.denominator), (c1.numerator, c1.denominator)
        return _format_linear((*pairs, "q⋆"))[0]


#: Python's int→str digit limit (0: none); Python < 3.10.7 has no limit.
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _reduced(n: int, d: int) -> tuple[int, int]:
    """``n/d`` in lowest terms, for ``d > 0``."""
    g = math.gcd(n, d)
    return n // g, d // g


class _Digits(dict):
    """``n → str(n)`` for the integers ``n ≥ 0`` that one rendering call prints.

    A missing integer is converted by ``str`` when it is first printed,
    so an integer that several printed values share is converted once.  The
    golden-point route of :mod:`.folded` files the digits it derives itself.
    """

    __slots__ = ()

    def __missing__(self, n: int) -> str:
        text = self[n] = str(n)
        return text


_Pair = tuple[int, int]


def _format_linear(
    *forms: tuple[_Pair, _Pair, str], digits: _Digits | None = None
) -> list[str]:
    """Render each ``(c0, c1, symbol)`` as ``c0 + c1·symbol``, the way it would
    be written by hand, with the coefficients as ``Fraction.__str__`` writes
    them.  Coefficients are reduced ``(numerator, denominator)`` pairs.  Each
    distinct |integer| of all the forms takes its digits from ``digits``
    (a :class:`_Digits` by default), which converts it once if it is missing."""
    if digits is None:
        digits = _Digits()

    def text(n: int, d: int) -> str:
        body = digits[abs(n)] if d == 1 else f"{digits[abs(n)]}/{digits[d]}"
        return f"-{body}" if n < 0 else body

    out = []
    for (n0, d0), (n1, d1), symbol in forms:
        if n1 == 0:
            out.append(text(n0, d0))
            continue
        term = symbol if abs(n1) == d1 == 1 else f"{text(abs(n1), d1)}·{symbol}"
        if n0 == 0:
            out.append(term if n1 > 0 else f"-{term}")
        else:
            out.append(f"{text(n0, d0)}{' + ' if n1 > 0 else ' - '}{term}")
    return out


def exact_forms(*values: Q5 | Fraction | int) -> tuple[str, ...]:
    """``str(x)`` and ``str(x.to_golden())`` of each value, in one pass:
    ``(√5 form, golden form)`` of the first value, then of the second, and so
    on.  A rational value prints the same in both forms.

    The golden coordinates of ``x = (p + q·√5)/d`` are ``(p + 3q)/d`` and
    ``−2q/d``, and each of the four coordinates is put in lowest terms on its
    own.  Each distinct printed integer is converted to digits once for all
    the values, so an integer shared by two values (such as a common
    denominator) is printed from one conversion.  Under a set int→str digit
    limit, a printed integer past it raises as ``str`` does.  The
    golden-point values of ``moments --q phi^-2``, and Λ in ``lambda`` and
    ``stationarity``, print through a route of their own (:mod:`.folded`),
    and this function is the oracle it is tested against.
    """
    forms = []
    for value in values:
        x = _coords(value)
        if x is None:
            raise TypeError(f"cannot render {type(value).__name__} exactly")
        p, q, d = x
        if q == 0:  # p/d is in lowest terms, and both forms print it
            forms += [((p, d), (0, 1), "")] * 2
            continue
        forms += (
            (_reduced(p, d), _reduced(q, d), "√5"),
            (_reduced(p + 3 * q, d), _reduced(-2 * q, d), "q⋆"),
        )
    return tuple(_format_linear(*forms))


SQRT5 = Q5(0, 1)
#: q⋆ = (3 − √5)/2 = φ⁻², the golden-point weight ratio.
QSTAR = Q5(Fraction(3, 2), Fraction(-1, 2))
#: φ = (1 + √5)/2.
PHI = Q5(Fraction(1, 2), Fraction(1, 2))


def _rounded(two_p: int, q: int, floor_a_sqrt5: int, d: int) -> tuple[bool, int]:
    """Whether ``y = (P + Q·√5)/d`` is negative, and ``|y|`` rounded to an
    integer, from ``2P``, the sign of ``Q ≠ 0`` and ``⌊a√5⌋`` with ``a = 2|Q|``.

    2Q√5 is irrational, so ``⌊2Q√5⌋`` is ``⌊a√5⌋`` or ``−⌊a√5⌋ − 1``, and
    ``y < 0`` exactly when ``2P + ⌊2Q√5⌋ < 0``.  A ``y > 0`` rounds to
    ``⌊(2P + d + 2Q√5)/(2d)⌋``, where the floor of the irrational part may
    replace it; a negative ``y`` is rounded as its mirror ``(−P, −Q)``.
    """
    f = floor_a_sqrt5 if q > 0 else -floor_a_sqrt5 - 1
    if two_p + f < 0:
        return True, (d - two_p - f - 1) // (2 * d)
    return False, (two_p + d + f) // (2 * d)


def decimal_str(value: Q5 | GoldenBasis | Fraction | int, digits: int) -> str:
    """Correctly rounded decimal string with ``digits`` digits after the point.

    Ties, which only rational values have, round half up (away from zero).
    For ``x = (p + q·√5)/d`` let ``P = p·10^digits`` and
    ``Q = q·10^digits``: the sign and the rounded digits follow from ``2P``
    and ``⌊2Q√5⌋`` (``_rounded``).  That floor is enclosed with 32 guard
    bits on the cached √5 expansion, and when the two ends of the enclosure
    give the same sign and digits, those are certified.  Otherwise the floor
    is taken again with ``bits(a) + 3`` guard bits for ``a = 2|Q|``, which is
    exact because ``|5a² − m²| ≥ 1`` keeps ``a√5`` more than
    ``2^−(bits(a)+3)`` from every integer m (module docstring): one retry at
    most, and no integer square root beyond extending the cache.  ``digits``
    is a count (:func:`~.floatlaw._count`): a numpy integer loses no digit.
    """
    digits = _count(digits, "digits", 0)
    if isinstance(value, GoldenBasis):
        value = value.to_q5()
    x = _coords(value)
    if x is None:
        raise TypeError(f"cannot render {type(value).__name__} exactly")
    p, q, d = x
    scale = 10**digits
    if q == 0:
        negative, n = p < 0, (2 * abs(p) * scale + d) // (2 * d)
    else:
        two_p, a = 2 * p * scale, 2 * abs(q) * scale
        lo, hi = _sqrt5_floor(a, _GUARD_BITS)
        negative, n = _rounded(two_p, q, lo, d)
        if hi != lo and _rounded(two_p, q, hi, d) != (negative, n):
            negative, n = _rounded(two_p, q, _sqrt5_floor(a, a.bit_length() + 3)[0], d)
    sign = "-" if negative and n else ""
    if digits == 0:
        return f"{sign}{n}"
    return f"{sign}{n // scale}.{n % scale:0{digits}d}"
