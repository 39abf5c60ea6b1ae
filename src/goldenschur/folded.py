"""Power sums and moments of the folded weight family ``x_r ∝ q^r``.

For ``r = 1..N`` the weights ``x_r(q) = q^r / S₀(q)`` form a one-parameter
exponential family in ``θ = ln q``.

The power sums are ``S_k(q) = Σ_{s=1}^N s^k q^s`` for ``k = 0..3``, the
folded moments ``I_k = S_k / S₀``, and the variance ``Var = I₂ − I₁²``.
Because the family is exponential, ``dI₁/dθ = Var`` and
``dI₂/dθ = I₃ − I₁·I₂``.

The power sums take one of two lanes, each written once, and an exact q
stays exact:

* an exact q, a :class:`~fractions.Fraction` or a :class:`~.qfield.Q5`
  (q⋆ included), as ``q = a/b`` with (a, b) a Fraction's numerator and
  denominator or (q, 1) for a Q5: the closed forms multiplied through by
  powers of b are polynomials in (a, b), and each sum is normalised once, by
  one ``Fraction(num, den)`` or one field division; so is each moment and
  I₂′ of an exact q other than q⋆;
* an inexact scalar (a float, or a float-like such as ``numpy.float64``)
  runs the closed forms as written, and its moments divide those sums by S₀.

The moments, I₂′ and Λ at the golden point ``q = q⋆`` take the one route
selected by the input.  They are ratios of polynomials of equal degree in
the numerators, so with a = q⋆ and b = 1 they run on ``Y_k = φᴺ·X_k``: the
same polynomials at ``(bᴺ, aᴺ) = (φᴺ, φ⁻ᴺ)``, on :class:`~.qfield.Q5`
values with half the digits of q⋆ᴺ, and ``φ⁻ᴺ = (−1)ᴺ·conj(φᴺ)``.
``I_k = φᵏY_k/Y₀``, where ``Y₀ = φᴺ − φ⁻ᴺ`` is ``√5·F_N`` for even N and
``L_N`` for odd N; ``I₂′ = T/Y₀²`` with ``T = φ³(Y₃Y₀ − Y₁Y₂)``, and
``Var = (Y₀² − N²)/Y₀²``: Var = (ln S₀)″ in θ, and at q⋆ its closed form
collapses to ``1 − N²/Y₀²``.  Every division is then by an integer or by √5
times one, which :class:`~.qfield.Q5` takes without a field norm.  The
record at q⋆ is a pure function of N made of immutable values, so it is
computed once per N per process; the last ``_GOLDEN_CACHE_SIZE`` (32) sizes
are kept.

Both lanes and the q⋆ kernel fill one :class:`FoldedMoments` record, I₂′
included, so :func:`moments` is the one route to the moments.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Union

from .qfield import PHI, QSTAR, Q5

__all__ = [
    "Scalar",
    "FoldedSums",
    "FoldedMoments",
    "sums_closed",
    "moments",
    "folded_weights",
]

Scalar = Union[Fraction, Q5, float]
#: the values the numerators of :func:`sums_closed` are formed in
_Ring = Union[int, Q5]


def _check_size(n: int) -> None:
    if type(n) is not int or n < 1:  # a bool is not a family size
        raise ValueError(f"family size must be a positive integer, got {n!r}")


def _is_golden(q: Scalar) -> bool:
    """Whether q is q⋆, whose moments take the φᴺ-scaled kernel."""
    return type(q) is Q5 and q == QSTAR  # the type first: a float q never compares


def _check_domain(n: int, q: Scalar) -> None:
    _check_size(n)
    if type(q) is Fraction:  # a normalised Fraction has a positive denominator
        inside = 0 < q.numerator < q.denominator
    else:
        inside = 0 < q < 1  # exact for a Q5, and False for a NaN
    if not inside:
        raise ValueError(f"weight ratio must satisfy 0 < q < 1, got {q!r}")


class FoldedSums(NamedTuple):
    """Power sums ``S_k = Σ_{s=1}^N s^k q^s`` for k = 0..3."""

    n: int
    q: Scalar
    s0: Scalar
    s1: Scalar
    s2: Scalar
    s3: Scalar

    def as_tuple(self) -> tuple[Scalar, Scalar, Scalar, Scalar]:
        return (self.s0, self.s1, self.s2, self.s3)


class FoldedMoments(NamedTuple):
    """Folded moments ``I_k = S_k/S₀``, the index variance and I₂′.

    The family is exponential in θ = ln q, so ``dI₁/dθ = Var`` and
    ``i2_prime = dI₂/dθ = I₃ − I₁·I₂``.
    """

    n: int
    q: Scalar
    i1: Scalar
    i2: Scalar
    i3: Scalar
    var: Scalar
    i2_prime: Scalar


def sums_closed(n: int, q: Scalar) -> FoldedSums:
    """Closed-form power sums via the geometric-series derivatives.

    The cubic-weight numerator coefficients are ``3N³+6N²−4`` and
    ``3N³+3N²−3N+1`` (obtained by differentiating the quadratic-weight form
    once more in θ); with these the closed forms agree with direct summation
    exactly for every exact scalar type.

    For an exact ``q = a/b``, with (a, b) a Fraction's numerator and
    denominator or (q, 1) for a Q5, the same forms are multiplied through by
    powers of b: ``S_k = a·X_k / (b^N·(b − a)^{k+1})`` with
    ``X_k = b^N·U_k + a^N·V_k``, where ``U_k`` and ``V_k`` are integer
    polynomials in a and b.  Each sum is then normalised once, by one
    ``Fraction(num, den)`` or one field division; at ``q = q⋆``, with a = q⋆
    and b = 1, that division is by the unit ``(1 − q⋆)^{k+1}``.  A float or
    float-like q runs the closed forms as written.
    """
    _check_domain(n, q)
    if type(q) is Fraction or type(q) is Q5:
        return _sums_closed_exact(n, q)
    return FoldedSums(n, q, *_closed_sums(n, q))


def _closed_sums(n: int, q: Scalar) -> tuple[Scalar, Scalar, Scalar, Scalar]:
    """``(S₀, S₁, S₂, S₃)`` from the closed forms of :func:`sums_closed`, for
    an inexact scalar q (a float or float-like) already known to satisfy
    0 < q < 1."""
    qn = q**n
    r = 1 - q
    s0 = q * (1 - qn) / r
    s1 = q * (1 - (n + 1) * qn + n * qn * q) / r**2
    s2 = (
        q
        * (1 + q - (n + 1) ** 2 * qn + (2 * n * n + 2 * n - 1) * qn * q - n * n * qn * q * q)
        / r**3
    )
    s3 = (
        q
        * (
            1
            + 4 * q
            + q * q
            - (n + 1) ** 3 * qn
            + (3 * n**3 + 6 * n**2 - 4) * qn * q
            - (3 * n**3 + 3 * n**2 - 3 * n + 1) * qn * q * q
            + n**3 * qn * q**3
        )
        / r**4
    )
    return s0, s1, s2, s3


def _numerators(n: int, a: _Ring, b: int, an: _Ring, bn: _Ring) -> tuple[_Ring, ...]:
    """``(X₀, X₁, X₂, X₃)`` with ``X_k = bn·U_k + an·V_k``, where U_k and V_k
    are the integer polynomials in a and b of :func:`sums_closed`, and
    ``(bn, an) = (b^N, a^N)`` or any multiple of that pair.  ``a``, ``an`` and
    ``bn`` are ints or Q5 values, ``b`` an int."""
    ab, aa, bb = a * b, a * a, b * b
    x0 = bn - an
    x1 = bn * b + an * (n * a - (n + 1) * b)
    x2 = bn * (bb + ab) + an * (
        -((n + 1) ** 2) * bb + (2 * n * n + 2 * n - 1) * ab - n * n * aa
    )
    x3 = bn * (bb * b + 4 * ab * b + ab * a) + an * (
        -((n + 1) ** 3) * bb * b
        + (3 * n**3 + 6 * n**2 - 4) * ab * b
        - (3 * n**3 + 3 * n**2 - 3 * n + 1) * ab * a
        + n**3 * aa * a
    )
    return x0, x1, x2, x3


def _exact_numerators(n: int, q: Fraction | Q5) -> tuple[_Ring, int, _Ring, tuple[_Ring, ...]]:
    """``(a, b^N, c, (X₀, X₁, X₂, X₃))`` for q = a/b and c = b − a > 0, so that
    ``S_k = a·X_k/(b^N·c^{k+1})``; (a, b) is (numerator, denominator) for a
    Fraction and (q, 1) for a Q5."""
    if type(q) is Fraction:
        a, b = q.numerator, q.denominator
    else:
        a, b = q, 1
    bn = b**n
    return a, bn, b - a, _numerators(n, a, b, a**n, bn)


def _over(x: int | Q5, d: int | Q5) -> Fraction | Q5:
    """``x/d`` normalised once: a Fraction for ints, one field division for Q5."""
    return Fraction(x, d) if type(x) is int else x / d


def _sums_closed_exact(n: int, q: Fraction | Q5) -> FoldedSums:
    """The closed forms of :func:`sums_closed` on the numerators of an exact q."""
    a, bn, c, xs = _exact_numerators(n, q)
    den = bn * c
    sums = []
    for x in xs:
        sums.append(_over(a * x, den))
        den *= c
    return FoldedSums(n, q, *sums)


def _moments_exact(n: int, q: Fraction | Q5) -> FoldedMoments:
    """The moments of an exact q from the numerators of :func:`sums_closed`,
    one normalisation each: with c = b − a, ``I_k = X_k/(X₀c^k)``,
    ``Var = (X₂X₀ − X₁²)/(X₀c)²`` and ``I₂′ = (X₃X₀ − X₁X₂)/(X₀²c³)``."""
    _, _, c, (x0, x1, x2, x3) = _exact_numerators(n, q)
    d1 = x0 * c
    d2 = d1 * c
    d3 = d2 * c
    return FoldedMoments(
        n, q, _over(x1, d1), _over(x2, d2), _over(x3, d3),
        _over(x2 * x0 - x1 * x1, d1 * d1), _over(x3 * x0 - x1 * x2, x0 * d3),
    )


def _golden_numerators(n: int) -> tuple[Q5, Q5, Q5, Q5]:
    """``(Y₀, Y₁, Y₂, Y₃)`` with ``Y_k = φᴺ·X_k``, the numerators of
    :func:`sums_closed` at a = q⋆ and b = 1 scaled by φᴺ.

    X_k is linear in (bᴺ, aᴺ) = (1, φ⁻²ᴺ), so Y_k is the same polynomial at
    (φᴺ, φ⁻ᴺ): coordinates of half the size of q⋆ᴺ's.  φ⁻ᴺ = (−1)ᴺ·conj(φᴺ)
    costs no second power.  Then ``I_k = φᵏY_k/Y₀``, and since
    ``φᴺ = (L_N + F_N·√5)/2`` (Knuth, *TAOCP* vol. 1 §1.2.8),
    ``Y₀ = φᴺ − φ⁻ᴺ`` is ``√5·F_N`` for even N and ``L_N`` for odd N: a
    divisor of one coordinate, with ``Y₀² = 5F_N²`` or ``L_N²``.
    """
    up = PHI**n
    down = up.conjugate()
    return _numerators(n, QSTAR, 1, -down if n & 1 else down, up)


def _golden_i2_prime_numerator(ys: tuple[Q5, Q5, Q5, Q5]) -> Q5:
    """``T = φ³(Y₃Y₀ − Y₁Y₂) = I₂′·Y₀²``, from ``I₂′ = I₃ − I₁I₂``."""
    y0, y1, y2, y3 = ys
    return PHI**3 * (y3 * y0 - y1 * y2)


#: how many sizes N keep their golden-point moments for the life of the process
_GOLDEN_CACHE_SIZE = 32


@lru_cache(maxsize=_GOLDEN_CACHE_SIZE)
def _moments_golden(n: int) -> FoldedMoments:
    """The moments at (N, q⋆) from
    :func:`_golden_numerators`: ``I_k = φᵏY_k/Y₀``, ``Var = (Y₀² − N²)/Y₀²``
    and ``I₂′ = T/Y₀²``.  Every division is by ``Y₀ ∈ {√5·F_N, L_N}`` or by
    the integer Y₀², so :class:`Q5` takes it without a field norm.

    Var is ``d²/dθ² ln S₀ = q/(1 − q)² − N²qᴺ/(1 − qᴺ)²``, and at q⋆,
    ``q⋆/(1 − q⋆)² = 1`` and ``q⋆ᴺ/(1 − q⋆ᴺ)² = 1/Y₀²``: Var·Y₀² = Y₀² − N² is
    an integer, the ``φ²(Y₂Y₀ − Y₁²)`` of the numerators without their products.
    """
    ys = _golden_numerators(n)
    y0, y1, y2, y3 = ys
    square = y0 * y0
    return FoldedMoments(
        n, QSTAR, PHI * y1 / y0, PHI**2 * y2 / y0, PHI**3 * y3 / y0,
        (square - n * n) / square, _golden_i2_prime_numerator(ys) / square,
    )


def moments(n: int, q: Scalar) -> FoldedMoments:
    """Folded moments I₁, I₂, I₃, Var and I₂′ at (N, q), exact for exact q.

    A Fraction q, a Q5 q and q⋆ form each value from the numerators of the
    power sums.  An inexact q (a float or float-like) divides the closed-form
    sums by S₀.
    """
    _check_domain(n, q)
    if _is_golden(q):
        return _moments_golden(n)
    if type(q) is Fraction or type(q) is Q5:
        return _moments_exact(n, q)
    s0, s1, s2, s3 = _closed_sums(n, q)
    i1, i2, i3 = s1 / s0, s2 / s0, s3 / s0
    return FoldedMoments(n, q, i1, i2, i3, i2 - i1 * i1, i3 - i1 * i2)


def folded_weights(n: int, q: Scalar) -> list[Scalar]:
    """The normalized weights ``x_r = q^r / S₀``, r = 1..N (they sum to 1)."""
    s0 = sums_closed(n, q).s0
    out = []
    p = q * 0 + 1
    for _ in range(n):
        p = p * q
        out.append(p / s0)
    return out

