"""Exact arithmetic in the real quadratic field Q(√5).

Every element is ``a + b·√5`` with rational ``a``, ``b`` kept as
:class:`fractions.Fraction`.  The representation is canonical (√5 is
irrational, so the coordinates are unique), which makes equality structural
and lets :meth:`Q5.sign` decide order by pure rational case analysis — no
floating point anywhere on the exact path.

The module also provides :class:`GoldenBasis`, the coordinates of an
element in the golden basis ``{1, q⋆}`` with ``q⋆ = (3 − √5)/2`` (the inverse
square of the golden ratio), related to the √5 basis by ``√5 = 3 − 2·q⋆``.
It is a view for reading and printing values; all arithmetic happens in
:class:`Q5`.  Certified decimal rendering is based on integer square-root
interval bounds.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

__all__ = [
    "Q5",
    "GoldenBasis",
    "QSTAR",
    "SQRT5",
    "PHI",
    "decimal_str",
]

_RationalLike = Union[int, Fraction]


def _coerce_rational(value: object) -> Fraction | None:
    """Return ``value`` as a Fraction if it is exactly rational, else None."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    return None


class Q5:
    """An element ``a + b·√5`` of Q(√5) with exact Fraction coordinates.

    Arithmetic is closed and total; division by a nonzero element is exact
    via the Galois conjugate (the field norm ``a² − 5b²`` vanishes only at
    zero, since √5 is irrational).  Ints and Fractions mix freely on either
    side of every operator.
    """

    __slots__ = ("_a", "_b")

    def __init__(self, a: _RationalLike = 0, b: _RationalLike = 0) -> None:
        self._a = a if isinstance(a, Fraction) else Fraction(a)
        self._b = b if isinstance(b, Fraction) else Fraction(b)

    @property
    def a(self) -> Fraction:
        """Rational coordinate (coefficient of 1)."""
        return self._a

    @property
    def b(self) -> Fraction:
        """Coefficient of √5."""
        return self._b

    # -- basic structure ---------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self._b == 0

    def conjugate(self) -> "Q5":
        """Galois conjugate ``a − b·√5``."""
        return Q5(self._a, -self._b)

    def norm(self) -> Fraction:
        """Field norm ``a² − 5b²`` (rational; zero only for the zero element)."""
        return self._a * self._a - 5 * self._b * self._b

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: object) -> "Q5":
        if isinstance(other, Q5):
            return Q5(self._a + other._a, self._b + other._b)
        r = _coerce_rational(other)
        if r is None:
            return NotImplemented
        return Q5(self._a + r, self._b)

    __radd__ = __add__

    def __sub__(self, other: object) -> "Q5":
        if isinstance(other, Q5):
            return Q5(self._a - other._a, self._b - other._b)
        r = _coerce_rational(other)
        if r is None:
            return NotImplemented
        return Q5(self._a - r, self._b)

    def __rsub__(self, other: object) -> "Q5":
        r = _coerce_rational(other)
        if r is None:
            return NotImplemented
        return Q5(r - self._a, -self._b)

    def __mul__(self, other: object) -> "Q5":
        if isinstance(other, Q5):
            return Q5(
                self._a * other._a + 5 * self._b * other._b,
                self._a * other._b + self._b * other._a,
            )
        r = _coerce_rational(other)
        if r is None:
            return NotImplemented
        return Q5(self._a * r, self._b * r)

    __rmul__ = __mul__

    def inverse(self) -> "Q5":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(√5)")
        return Q5(self._a / n, -self._b / n)

    def __truediv__(self, other: object) -> "Q5":
        if isinstance(other, Q5):
            return self * other.inverse()
        r = _coerce_rational(other)
        if r is None:
            return NotImplemented
        if r == 0:
            raise ZeroDivisionError("division by zero")
        return Q5(self._a / r, self._b / r)

    def __rtruediv__(self, other: object) -> "Q5":
        r = _coerce_rational(other)
        if r is None:
            return NotImplemented
        return Q5(r) * self.inverse()

    def __pow__(self, exponent: int) -> "Q5":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = Q5(1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __neg__(self) -> "Q5":
        return Q5(-self._a, -self._b)

    def __pos__(self) -> "Q5":
        return self

    def __abs__(self) -> "Q5":
        return -self if self.sign() < 0 else self

    # -- order -------------------------------------------------------------

    def sign(self) -> int:
        """Exact sign (−1, 0, +1) by rational case analysis.

        When the coordinates have opposite signs the comparison reduces to
        ``a²`` versus ``5b²``; the tie ``a² = 5b²`` cannot occur for nonzero
        coordinates because √5 is irrational.
        """
        a, b = self._a, self._b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        if a > 0:  # b < 0
            return 1 if a * a > 5 * b * b else -1
        return 1 if a * a < 5 * b * b else -1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Q5):
            return self._a == other._a and self._b == other._b
        r = _coerce_rational(other)
        if r is None:
            return NotImplemented
        return self._b == 0 and self._a == r

    def __hash__(self) -> int:
        if self._b == 0:
            return hash(self._a)
        return hash((self._a, self._b))

    def _compare(self, other: object) -> int | None:
        if isinstance(other, Q5):
            return (self - other).sign()
        r = _coerce_rational(other)
        if r is None:
            return None
        return (self - Q5(r)).sign()

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
        return GoldenBasis(self._a + 3 * self._b, -2 * self._b)

    def __float__(self) -> float:
        return float(self._a) + float(self._b) * math.sqrt(5.0)

    def __repr__(self) -> str:
        return f"Q5({self._a!r}, {self._b!r})"

    def __str__(self) -> str:
        return _format_linear(self._a, self._b, "√5")


class GoldenBasis:
    """Coordinates ``(c0, c1)`` of ``c0 + c1·q⋆`` in the golden basis ``{1, q⋆}``.

    A view of an element of Q(√5), not a second field implementation: convert
    with :meth:`to_q5` to compute.
    """

    __slots__ = ("_c0", "_c1")

    def __init__(self, c0: _RationalLike = 0, c1: _RationalLike = 0) -> None:
        self._c0 = c0 if isinstance(c0, Fraction) else Fraction(c0)
        self._c1 = c1 if isinstance(c1, Fraction) else Fraction(c1)

    @property
    def c0(self) -> Fraction:
        return self._c0

    @property
    def c1(self) -> Fraction:
        """Coefficient of q⋆."""
        return self._c1

    def to_q5(self) -> Q5:
        """Rewrite in the √5 basis via ``q⋆ = (3 − √5)/2``."""
        return Q5(self._c0 + Fraction(3, 2) * self._c1, -self._c1 / 2)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GoldenBasis):
            return self._c0 == other._c0 and self._c1 == other._c1
        r = _coerce_rational(other)
        if r is None:
            return NotImplemented
        return self._c1 == 0 and self._c0 == r

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


def _format_linear(c0: Fraction, c1: Fraction, symbol: str) -> str:
    """Render ``c0 + c1·symbol`` the way it would be written by hand."""
    if c1 == 0:
        return str(c0)
    mag = abs(c1)
    term = symbol if mag == 1 else f"{mag}·{symbol}"
    if c0 == 0:
        return term if c1 > 0 else f"-{term}"
    joiner = " + " if c1 > 0 else " - "
    return f"{c0}{joiner}{term}"


SQRT5 = Q5(0, 1)
#: q⋆ = (3 − √5)/2 = φ⁻², the golden-point weight ratio.
QSTAR = Q5(Fraction(3, 2), Fraction(-1, 2))
#: φ = (1 + √5)/2.
PHI = Q5(Fraction(1, 2), Fraction(1, 2))


def _round_half_up(value: Fraction) -> int:
    """Nearest integer, ties away from zero (``decimal.ROUND_HALF_UP``)."""
    if value < 0:
        return -math.floor(-value + Fraction(1, 2))
    return math.floor(value + Fraction(1, 2))


def decimal_str(value: Q5 | GoldenBasis | Fraction | int, digits: int) -> str:
    """Correctly rounded decimal string with ``digits`` digits after the point.

    The √5 part is bracketed by ``math.isqrt`` interval bounds which are
    tightened until both endpoints round to the same digit string, so every
    printed digit is certified.  Exact rational ties round half up.
    """
    if digits < 0:
        raise ValueError("digits must be >= 0")
    if isinstance(value, GoldenBasis):
        value = value.to_q5()
    elif not isinstance(value, Q5):
        r = _coerce_rational(value)
        if r is None:
            raise TypeError(f"cannot render {type(value).__name__} exactly")
        value = Q5(r)
    a, b = value.a, value.b
    scale = 10**digits
    guard = 12
    while True:
        gscale = 10 ** (digits + guard)
        t = math.isqrt(5 * gscale * gscale)
        lo5 = Fraction(t, gscale)
        hi5 = Fraction(t + 1, gscale)
        if b >= 0:
            lo, hi = a + b * lo5, a + b * hi5
        else:
            lo, hi = a + b * hi5, a + b * lo5
        n_lo = _round_half_up(lo * scale)
        n_hi = _round_half_up(hi * scale)
        if n_lo == n_hi:
            break
        guard *= 2
    n = n_lo
    sign = "-" if n < 0 else ""
    n = abs(n)
    if digits == 0:
        return f"{sign}{n}"
    return f"{sign}{n // scale}.{n % scale:0{digits}d}"
