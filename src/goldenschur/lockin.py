"""Quadratic folded law and golden-point stationarity of the reduced functional.

Given law coefficients (A, B) for ``κ(q) = A·I₁(q)² + B·Var(q)`` at size N
with collective normalization ``m_ρ²``, the reduced functional is

    F_red(θ) = N − 4·I₁²/(N·m_ρ²) + κ/N.

Its stationarity analysis runs through the bracket

    bracket(θ) = B·Λ(θ) + 2A − 2B − 8/m_ρ²,   Λ(θ) = I₂′(θ)/I₁′(θ),

and :func:`f_red_prime_q` is the bracket-form derivative
``(I₁/N)·(B·I₂′ + (2A − 2B − 8/m_ρ²)·I₁′)``, the quantity whose golden-point
factorization ``F′(θ⋆) = (1/N)·bracket(θ⋆)·I₁·I₁′`` holds as exact field
algebra and whose zero at q⋆ characterizes consistent coefficients.  It
differs from the plain chain-rule derivative of F_red by exactly
``B·I₂′·(I₁ − 1)/N``, so the two coincide when B = 0.  Every form takes
q = e^θ.  The fit that recovers (A, B) from (q, κ) samples,
:func:`~.floatlaw.quadratic_law_fit`, lives with the float lane of the
moments in :mod:`.floatlaw`, which loads no exact layer for float samples.

:func:`stationarity_check` decides claim (ii), that q⋆ is the one stationary
point, from the strict rise of Λ in q, with no grid.  What it decides, for
every N ≥ 3, is the one zero of the bracket-form derivative
:func:`f_red_prime_q`.  The chain-rule derivative of :func:`f_red_q` differs
from it by ``B·I₂′·(I₁ − 1)/N``, and where its zeros lie is not decided here
(ROADMAP item 16).

Coefficients are exact, and q picks the lane in one place, ``_route``:
:class:`QuadLawCoeffs` stores an int or a float as the Fraction it equals,
an exact q (or a given Λ), read on Python ints by :mod:`.qfield`, keeps the
whole computation exact, and any other enters through
:func:`~.floatlaw._as_float` and runs in floats on the coefficients rounded
once.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .floatlaw import _as_float, _count
from .folded import FoldedMoments, Scalar, _check_domain, _exact_numerators, _is_golden, moments
from .golden import lambda_n
from .qfield import QSTAR, Q5, _coords, _exact_value, _q5

__all__ = [
    "QuadLawCoeffs",
    "kappa_quadratic",
    "f_red_q",
    "f_red_prime_q",
    "bracket_residual",
    "synthesize_consistent_ab",
    "StationarityReport",
    "stationarity_check",
]

_Triple = tuple[Scalar, Scalar, Scalar]


def _exact(name: str, x: Scalar) -> Fraction | Q5:
    """A coefficient as the exact value it equals.  A Q5, a Fraction and an
    integer of any type but bool are exact, read on Python ints by
    :func:`~.qfield._exact_value` (a numpy integer would wrap): a Q5 is kept
    as it is, and a rational as a Fraction.  Any other number is the
    Fraction of the float it enters as (:func:`~.floatlaw._as_float`).  A
    bool (numpy's too), a NaN, an infinity or a number that no float equals
    is a ValueError."""
    exact = _exact_value(x)
    if exact is not None:
        return exact if type(exact) is Fraction or isinstance(exact, Q5) else Fraction(exact)
    if isinstance(x, bool) or not isinstance(x, numbers.Number):
        raise ValueError(f"coefficient {name} must be a number, got {x!r}")
    try:
        f = _as_float(x)
    except ValueError as exc:
        raise ValueError(f"coefficient {name}: {exc}") from None
    if not math.isfinite(f):
        raise ValueError(f"coefficient {name} must be finite, got {x!r}")
    return Fraction(f)


class _QuadLawFields(NamedTuple):
    a: Fraction | Q5
    b: Fraction | Q5
    n: int
    m_rho_sq: Fraction | Q5


class QuadLawCoeffs(_QuadLawFields):
    """Coefficients of the quadratic folded law at fixed (N, m_ρ²).

    ``a``, ``b`` and ``m_rho_sq`` are exact: a Q5 is stored as it is, and an
    int, a float or a float-like as the Fraction it equals.  A record is the
    tuple ``(a, b, n, m_rho_sq)`` and equals any tuple of those values; the
    constructor, ``_replace``, copy and pickle all check the fields.
    """

    __slots__ = ()

    def __new__(cls, a: Scalar, b: Scalar, n: int, m_rho_sq: Scalar = Fraction(2)) -> QuadLawCoeffs:
        n = _count(n, "N", 1)
        m2 = _exact("m_rho_sq", m_rho_sq)
        if not m2 > 0:  # exact for a Q5
            raise ValueError(f"m_rho_sq must be positive, got {m2}")
        return super().__new__(cls, _exact("A", a), _exact("B", b), n, m2)

    @classmethod
    def _make(cls, fields: Sequence[object]) -> QuadLawCoeffs:
        return cls(*fields)

    def __reduce__(self) -> tuple:
        # copy and every pickle protocol rebuild through the constructor: a
        # tuple's own reduction skips it at protocols 0 and 1
        return type(self), tuple(self)

    def as_floats(self) -> _Triple:
        """``(A, B, m_ρ²)`` as floats, for the float lane.  A ValueError names
        every coefficient whose float overflows, or is 0.0 although the
        coefficient is not."""
        values, lost = [], []
        for name, x in (("A", self.a), ("B", self.b), ("m_rho_sq", self.m_rho_sq)):
            try:
                f = float(x)
            except OverflowError:
                f = math.inf
            if not math.isfinite(f):
                lost.append(f"{name} is too large for a float")
            elif f == 0.0 and x != 0:
                lost.append(f"{name} is nonzero but underflows to 0.0 as a float")
            values.append(f)
        if lost:
            raise ValueError("coefficient " + "; coefficient ".join(lost))
        return tuple(values)


def _route(coeffs: QuadLawCoeffs, x: Scalar) -> tuple[_Triple, Scalar]:
    """``(A, B, m_ρ²)`` and one scalar (q or Λ) in the lane of that scalar:
    as they are for an exact x, which is read on Python ints
    (:func:`~.qfield._exact_value`), and as Python floats for any other."""
    exact = _exact_value(x)
    if exact is not None:
        return (coeffs.a, coeffs.b, coeffs.m_rho_sq), exact
    return coeffs.as_floats(), float(_as_float(x))


def _kappa(a: Scalar, b: Scalar, m: FoldedMoments) -> Scalar:
    """κ = A·I₁² + B·Var from moments evaluated in the lane of A and B."""
    return a * (m.i1 * m.i1) + b * m.var


def kappa_quadratic(coeffs: QuadLawCoeffs, q: Scalar) -> Scalar:
    """κ(q) = A·I₁² + B·Var under the quadratic folded law."""
    (a, b, _), qq = _route(coeffs, q)
    return _kappa(a, b, moments(coeffs.n, qq))


def f_red_q(coeffs: QuadLawCoeffs, q: Scalar) -> Scalar:
    """Reduced functional ``N − 4I₁²/(N·m_ρ²) + κ/N`` as a function of q."""
    (a, b, m2), qq = _route(coeffs, q)
    n = coeffs.n
    m = moments(n, qq)
    return n - 4 * (m.i1 * m.i1) / (n * m2) + _kappa(a, b, m) / n


def f_red_prime_q(coeffs: QuadLawCoeffs, q: Scalar) -> Scalar:
    """Bracket-form stationarity derivative, ``(I₁/N)·(B·I₂′ + (2A−2B−8/m_ρ²)·I₁′)``.

    Equal to ``(1/N)·(B·Λ(θ) + 2A − 2B − 8/m_ρ²)·I₁·I₁′`` wherever
    Λ(θ) = I₂′/I₁′ is defined, and identically zero at N = 1.  Differs from
    the chain-rule derivative of :func:`f_red_q` by ``B·I₂′·(I₁−1)/N``.

    An exact q stays exact.  One other than q⋆ reads the numerators X₀…X₃
    of the power sums (:func:`~.folded._exact_numerators`, with q = a/b and
    c = b − a) and normalises once: with s = 2A − 2B − 8/m_ρ²,
    ``F′ = X₁·(B·(X₃X₀ − X₁X₂) + s·c·(X₂X₀ − X₁²))/(N·X₀³·c⁴)``, for a
    Fraction q over the integer coordinates of B and s, so one Fraction or
    one Q5 is formed.  q⋆ reads its moments off their forms.

    An inexact q takes the float moments, and the
    slope s is formed exactly and rounded once: a synthesized
    A = (8/m_ρ² − B·Λ + 2B)/2 rounded to a float loses B·Λ once |B| is below
    about 1e-16 of 8/m_ρ², and a slope formed from it is −2B, not −B·Λ.  A
    slope too large for a float is a ValueError, as a coefficient is.
    """
    return _f_red_prime(coeffs, q, _slope(coeffs))


def _slope(coeffs: QuadLawCoeffs) -> Fraction | Q5:
    """The exact slope ``2A − 2B − 8/m_ρ²`` of :func:`f_red_prime_q`."""
    return 2 * coeffs.a - 2 * coeffs.b - 8 / coeffs.m_rho_sq


def _f_red_prime(coeffs: QuadLawCoeffs, q: Scalar, slope: Fraction | Q5) -> Scalar:
    """:func:`f_red_prime_q` with its slope given, for a scan that forms it
    once."""
    (_, b, _), q = _route(coeffs, q)
    n = coeffs.n
    if isinstance(q, float):  # _route's float lane
        try:
            slope = float(slope)
        except OverflowError:
            raise ValueError("slope 2A - 2B - 8/m_rho_sq is too large for a float") from None
    elif not _is_golden(q):
        _check_domain(n, q)
        return _f_red_prime_exact(n, q, b, slope)
    m = moments(n, q)
    return (b * m.i2_prime + slope * m.var) * m.i1 / n


def _f_red_prime_exact(
    n: int, q: Fraction | Q5, b: Fraction | Q5, slope: Fraction | Q5
) -> Fraction | Q5:
    """:func:`f_red_prime_q` at an exact q ≠ q⋆ from the numerators of the
    power sums, normalised once."""
    _, _, c, (x0, x1, x2, x3) = _exact_numerators(n, q)
    u, v = x3 * x0 - x1 * x2, c * (x2 * x0 - x1 * x1)
    den = n * x0**3 * c**4
    if type(c) is not int:  # a Q5 q: the numerators are field elements
        return x1 * (b * u + slope * v) / den
    (bp, bq, bd), (sp, sq, sd) = _coords(b), _coords(slope)
    u, v, den = u * sd, v * bd, den * bd * sd
    p = x1 * (bp * u + sp * v)
    if type(b) is type(slope) is Fraction:
        return Fraction(p, den)
    return _q5(p, x1 * (bq * u + sq * v), den)


def bracket_residual(coeffs: QuadLawCoeffs, lam: Optional[Scalar] = None) -> Scalar:
    """``B·Λ + 2A − 2B − 8/m_ρ²``, with Λ = Λ(N) unless given — zero exactly
    for consistent coefficients."""
    if lam is None:
        lam = lambda_n(coeffs.n)
    (a, b, m2), lam = _route(coeffs, lam)
    return b * lam + 2 * a - 2 * b - 8 / m2


def synthesize_consistent_ab(
    b: Scalar, n: int, m_rho_sq: Scalar = Fraction(2)
) -> QuadLawCoeffs:
    """Solve the bracket identity for A given B: ``A = (8/m_ρ² − B·Λ + 2B)/2``.

    A is exact, in Q(√5): B and m_ρ² are read as the exact values they equal,
    as :class:`QuadLawCoeffs` reads them.  The returned coefficients make the
    golden point stationary by construction.
    """
    base = QuadLawCoeffs(0, b, n, m_rho_sq)
    return QuadLawCoeffs(-bracket_residual(base) / 2, base.b, base.n, base.m_rho_sq)


def _sign(x: Fraction | Q5) -> int:
    """−1, 0 or 1: the sign of an exact value, decided without a product."""
    return (x > 0) - (x < 0)


class StationarityReport(NamedTuple):
    """Golden-point stationarity, and the zeros of F′_red on 0 < q < 1."""

    n: int
    f_prime_at_star: Scalar
    bracket: Optional[Scalar]  # None when N = 1 (Λ undefined)
    stationary: bool
    degenerate: bool  # F′_red ≡ 0: N = 1, N = 2 with a zero bracket, or B = c = 0
    sign_changes: int  # 0 or 1
    sign_change_intervals: tuple[tuple[Scalar, Scalar], ...]  # the zero's exact q-interval


def stationarity_check(coeffs: QuadLawCoeffs) -> StationarityReport:
    """Stationarity at the golden point, and F′_red's zeros on 0 < q < 1.

    With Λ = I₂′/I₁′ at q⋆, ``bracket = B·Λ + c`` with c = 2A − 2B − 8/m_ρ²,
    and ``F′(θ⋆) = bracket·I₁·I₁′/N``: the golden point is stationary when
    the exact bracket, with Λ(q⋆) from :func:`~.golden.lambda_n`, is zero.

    F′_red has the sign of B·Λ(q) + c.  With Λ = U/V, U = S₃S₀ − S₁S₂ and
    V = S₂S₀ − S₁², ``dΛ/dθ = ((S₄S₀ − S₂²)·V − U²)/V² = S₀·D/V²``, and by
    Cauchy–Binet the Hankel determinant ``D = det[S_{i+j}]_{i,j≤2}`` is
    ``Σ_{s<t<u} q^{s+t+u}·((t − s)(u − s)(u − t))² > 0`` for N ≥ 3 (Karlin,
    *Total Positivity*, 1968).  So Λ rises strictly from 3 at q → 0⁺ to N + 1
    at q = 1 (Λ ≡ 3 at N = 2), and F′_red has one zero, a sign change, iff
    the bracket at Λ = 3 and at Λ = N + 1 have opposite signs (for B ≠ 0:
    3 < −c/B < N + 1), else none.  Its exact q-interval is (q⋆, q⋆) when the
    bracket is 0, else (q⋆, 1) when it still has the sign of its limit at 0⁺,
    and (0, q⋆) when not.  F′_red ≡ 0, and the report is degenerate, at
    N = 1, at N = 2 with a zero bracket, and when B = c = 0.
    """
    n = coeffs.n
    if n == 1:
        return StationarityReport(1, Fraction(0), None, True, True, 0, ())
    b = coeffs.b
    c = _slope(coeffs)
    bracket = b * lambda_n(n) + c
    stationary = bracket == 0
    # the signs of the bracket's limits at q → 0⁺ and q → 1⁻; equal at N = 2
    low, high = _sign(3 * b + c), _sign((n + 1) * b + c)
    intervals: tuple[tuple[Scalar, Scalar], ...] = ()
    if low == -high != 0:
        if stationary:
            intervals = ((QSTAR, QSTAR),)
        elif _sign(bracket) == low:
            intervals = ((QSTAR, Fraction(1)),)
        else:
            intervals = ((Fraction(0), QSTAR),)
    degenerate = low == high == 0 or (n == 2 and stationary)
    m = moments(n, QSTAR)
    f_prime = bracket * m.i1 * m.var / n
    return StationarityReport(
        n, f_prime, bracket, stationary, degenerate, len(intervals), intervals
    )
