"""Quadratic folded law and golden-point stationarity of the reduced functional.

Given law coefficients (A, B) for ``κ(q) = A·I₁(q)² + B·Var(q)`` at size N
with collective normalization ``m_ρ²``, the reduced functional is

    F_red(θ) = N − 4·I₁²/(N·m_ρ²) + κ/N.

Its stationarity analysis runs through the bracket

    bracket(θ) = B·Λ(θ) + 2A − 2B − 8/m_ρ²,   Λ(θ) = I₂′(θ)/I₁′(θ),

and :func:`f_red_prime` is the bracket-form derivative
``(I₁/N)·(B·I₂′ + (2A − 2B − 8/m_ρ²)·I₁′)``, the quantity whose golden-point
factorization ``F′(θ⋆) = (1/N)·bracket(θ⋆)·I₁·I₁′`` holds as exact field
algebra and whose zero at q⋆ characterizes consistent coefficients.  The
plain chain-rule derivative of F_red is kept alongside as
:func:`f_red_prime_direct`; the two differ by exactly
``B·I₂′·(I₁ − 1)/N`` and coincide when B = 0.  :func:`quadratic_law_fit`
recovers (A, B) from (q, κ) samples.

Everything is generic over the scalar type: exact inputs (Fraction, Q5) stay
exact; any float input routes the whole computation through floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence, Union

from .folded import FoldedMoments, Scalar, moments, theta_derivatives
from .golden import LambdaValue, lambda_n
from .qfield import QSTAR, Q5

__all__ = [
    "QuadLawCoeffs",
    "kappa_quadratic",
    "QuadLawFit",
    "quadratic_law_fit",
    "f_red_q",
    "f_red",
    "f_red_prime_q",
    "f_red_prime",
    "f_red_prime_direct_q",
    "f_red_prime_direct",
    "bracket_residual",
    "synthesize_consistent_ab",
    "StationarityReport",
    "stationarity_check",
    "uniqueness_scan",
]

_ExactScalar = (int, Fraction, Q5)

#: Relative size of the moment determinant at or below which two float samples
#: are a degenerate pair in :func:`quadratic_law_fit`.
DEGENERACY_RTOL = 1e-8


def _is_exact(x: object) -> bool:
    return isinstance(x, _ExactScalar) and not isinstance(x, bool)


def _normalize(x: Scalar) -> Scalar:
    """ints become Fractions so that ratios like 8/m_ρ² stay exact."""
    return Fraction(x) if isinstance(x, int) and not isinstance(x, bool) else x


def _positive_m_rho_sq(m_rho_sq: Scalar) -> Scalar:
    """The normalized m_ρ², rejected unless it is positive (a NaN is rejected)."""
    m2 = _normalize(m_rho_sq)
    if not (m2.sign() > 0 if isinstance(m2, Q5) else m2 > 0):
        raise ValueError(f"m_rho_sq must be positive, got {m2}")
    return m2


@dataclass(frozen=True)
class QuadLawCoeffs:
    """Coefficients of the quadratic folded law at fixed (N, m_ρ²)."""

    a: Scalar
    b: Scalar
    n: int
    m_rho_sq: Scalar = Fraction(2)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"family size must be >= 1, got {self.n}")
        object.__setattr__(self, "a", _normalize(self.a))
        object.__setattr__(self, "b", _normalize(self.b))
        object.__setattr__(self, "m_rho_sq", _positive_m_rho_sq(self.m_rho_sq))

    @property
    def is_exact(self) -> bool:
        return all(_is_exact(x) for x in (self.a, self.b, self.m_rho_sq))

    def as_floats(self) -> "QuadLawCoeffs":
        return QuadLawCoeffs(float(self.a), float(self.b), self.n, float(self.m_rho_sq))


def _route(coeffs: QuadLawCoeffs, x: Scalar) -> tuple[QuadLawCoeffs, Scalar]:
    """Pick the exact or the float lane for coefficients and one scalar (q or Λ)."""
    if coeffs.is_exact and _is_exact(x):
        return coeffs, x
    return coeffs.as_floats(), float(x)


def _kappa(c: QuadLawCoeffs, m: FoldedMoments) -> Scalar:
    """κ = A·I₁² + B·Var from moments already evaluated in the lane of ``c``."""
    return c.a * (m.i1 * m.i1) + c.b * m.var


def _f_prime(c: QuadLawCoeffs, m: FoldedMoments) -> Scalar:
    """Bracket-form F′_red (see :func:`f_red_prime_q`) from the same moments."""
    i1p, i2p = theta_derivatives(m)
    return (c.b * i2p + (2 * c.a - 2 * c.b - 8 / c.m_rho_sq) * i1p) * m.i1 / c.n


def kappa_quadratic(coeffs: QuadLawCoeffs, q: Scalar) -> Scalar:
    """κ(q) = A·I₁² + B·Var under the quadratic folded law."""
    c, qq = _route(coeffs, q)
    return _kappa(c, moments(c.n, qq))


@dataclass(frozen=True)
class QuadLawFit:
    """Coefficients of κ = A·I₁² + B·Var identified from (q, κ) samples."""

    a: Scalar
    b: Scalar
    n: int
    residuals: tuple[Scalar, ...]  # κ_i − (A·I₁² + B·Var) at the extra points

    @property
    def max_abs_residual(self) -> float:
        return max((abs(float(r)) for r in self.residuals), default=0.0)


def quadratic_law_fit(points: Sequence[tuple[Scalar, Scalar]], n: int) -> QuadLawFit:
    """Two-point identification of (A, B), exact for exact inputs.

    The first two samples fix the coefficients through

        Δ = M_a·V_b − M_b·V_a,
        A = (κ_a·V_b − κ_b·V_a)/Δ,   B = (M_a·κ_b − M_b·κ_a)/Δ,

    with M = I₁² and V = Var; remaining samples become residual diagnostics.
    Exact samples are degenerate when Δ = 0.  Float samples are degenerate
    when |Δ| ≤ DEGENERACY_RTOL·(|M_a·V_b| + |M_b·V_a|), with
    DEGENERACY_RTOL = 1e-8: so little of the two products survives their
    difference that (A, B) would be fitted to rounding noise (near q = 1 the
    float moments carry relative errors up to about 1e-7).
    """
    if len(points) < 2:
        raise ValueError("need at least two (q, kappa) samples")
    ms, vs, ks = [], [], []
    for q, kappa in points:
        mom = moments(n, q)
        ms.append(mom.i1 * mom.i1)
        vs.append(mom.var)
        ks.append(kappa)
    delta = ms[0] * vs[1] - ms[1] * vs[0]
    if isinstance(delta, float):
        degenerate = abs(delta) <= DEGENERACY_RTOL * (abs(ms[0] * vs[1]) + abs(ms[1] * vs[0]))
    else:
        degenerate = delta == 0
    if degenerate:
        raise ValueError("degenerate sample pair: moment determinant vanishes")
    a = (ks[0] * vs[1] - ks[1] * vs[0]) / delta
    b = (ms[0] * ks[1] - ms[1] * ks[0]) / delta
    residuals = tuple(ks[i] - (a * ms[i] + b * vs[i]) for i in range(2, len(points)))
    return QuadLawFit(a, b, n, residuals)


def f_red_q(coeffs: QuadLawCoeffs, q: Scalar) -> Scalar:
    """Reduced functional ``N − 4I₁²/(N·m_ρ²) + κ/N`` as a function of q."""
    c, qq = _route(coeffs, q)
    m = moments(c.n, qq)
    return c.n - 4 * (m.i1 * m.i1) / (c.n * c.m_rho_sq) + _kappa(c, m) / c.n


def f_red(coeffs: QuadLawCoeffs, theta: float) -> float:
    return float(f_red_q(coeffs, math.exp(theta)))


def f_red_prime_q(coeffs: QuadLawCoeffs, q: Scalar) -> Scalar:
    """Bracket-form stationarity derivative, ``(I₁/N)·(B·I₂′ + (2A−2B−8/m_ρ²)·I₁′)``.

    Equal to ``(1/N)·(B·Λ(θ) + 2A − 2B − 8/m_ρ²)·I₁·I₁′`` wherever
    Λ(θ) = I₂′/I₁′ is defined, and identically zero at N = 1.  Differs from
    the chain-rule derivative of :func:`f_red_q` by ``B·I₂′·(I₁−1)/N``.
    """
    c, qq = _route(coeffs, q)
    return _f_prime(c, moments(c.n, qq))


def f_red_prime(coeffs: QuadLawCoeffs, theta: float) -> float:
    return float(f_red_prime_q(coeffs, math.exp(theta)))


def f_red_prime_direct_q(coeffs: QuadLawCoeffs, q: Scalar) -> Scalar:
    """Chain-rule θ-derivative of :func:`f_red_q` (matches finite differences)."""
    c, qq = _route(coeffs, q)
    m = moments(c.n, qq)
    i1p, i2p = theta_derivatives(m)
    kappa_p = c.b * i2p + (2 * c.a - 2 * c.b) * m.i1 * i1p
    return -8 * m.i1 * i1p / (c.n * c.m_rho_sq) + kappa_p / c.n


def f_red_prime_direct(coeffs: QuadLawCoeffs, theta: float) -> float:
    return float(f_red_prime_direct_q(coeffs, math.exp(theta)))


def bracket_residual(coeffs: QuadLawCoeffs, lam: Union[LambdaValue, Scalar, None] = None) -> Scalar:
    """``B·Λ(N) + 2A − 2B − 8/m_ρ²`` — zero exactly for consistent coefficients."""
    if lam is None:
        lam = lambda_n(coeffs.n)
    c, lam_value = _route(coeffs, lam.value if isinstance(lam, LambdaValue) else lam)
    return c.b * lam_value + 2 * c.a - 2 * c.b - 8 / c.m_rho_sq


def synthesize_consistent_ab(
    b: Scalar, n: int, m_rho_sq: Scalar = Fraction(2)
) -> QuadLawCoeffs:
    """Solve the bracket identity for A given B: ``A = (8/m_ρ² − B·Λ + 2B)/2``.

    Exact inputs give an exact A in Q(√5); the returned coefficients make the
    golden point stationary by construction.
    """
    lam = lambda_n(n).value
    b = _normalize(b)
    m2 = _positive_m_rho_sq(m_rho_sq)  # before 8/m_ρ² can divide by zero
    if _is_exact(b) and _is_exact(m2):
        a = (8 / m2 - b * lam + 2 * b) / 2
    else:
        a = (8 / float(m2) - float(b) * float(lam) + 2 * float(b)) / 2
    return QuadLawCoeffs(a, b, n, m2)


@dataclass(frozen=True)
class StationarityReport:
    """Golden-point stationarity summary, optionally with scan results."""

    n: int
    theta_star: float
    f_prime_at_star: Scalar
    bracket: Optional[Scalar]  # None when N = 1 (Λ undefined)
    identity_gap: float  # |f′(θ⋆) − (1/N)·bracket·I₁·I₁′|
    degenerate: bool  # N = 1: derivative identically zero
    sign_changes: Optional[int] = None
    sign_change_intervals: tuple[tuple[float, float], ...] = ()

    @property
    def stationary(self) -> bool:
        if _is_exact(self.f_prime_at_star):
            value = self.f_prime_at_star
            return value.is_zero if isinstance(value, Q5) else value == 0
        return abs(self.f_prime_at_star) <= 1e-12


_THETA_STAR = math.log((3 - math.sqrt(5)) / 2)


def stationarity_check(coeffs: QuadLawCoeffs) -> StationarityReport:
    """Evaluate F′_red at the golden point and its bracket factorization.

    Exact coefficients give exact field values (the factorization identity is
    then literally zero-gap); float coefficients run the same check in
    floating point with a 1e−10 relative guard.
    """
    n = coeffs.n
    if n == 1:
        return StationarityReport(1, _THETA_STAR, Fraction(0), None, 0.0, True)
    c, q = _route(coeffs, QSTAR)
    m = moments(n, q)
    fp = _f_prime(c, m)
    i1p, i2p = theta_derivatives(m)
    bracket = bracket_residual(c, i2p / i1p)
    gap = abs(float(fp - bracket * m.i1 * i1p / n))
    rel = gap / max(1.0, abs(float(fp)))
    if rel > 1e-10:
        raise ArithmeticError(
            f"bracket factorization broke down: gap {gap:.3e} exceeds 1e-10 relative"
        )
    return StationarityReport(n, _THETA_STAR, fp, bracket, gap, False)


def uniqueness_scan(coeffs: QuadLawCoeffs, thetas: Sequence[float]) -> StationarityReport:
    """Count sign changes of F′_red over a θ-grid (float evaluation).

    When the scan itself certifies the convexity surrogate — strictly positive
    second differences of κ on a uniform grid (with N ≥ 2) — more than one
    crossing is impossible and triggers an error instead of a report.
    """
    grid = [float(t) for t in thetas]
    if len(grid) < 2 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("scan grid must be strictly increasing with >= 2 points")
    if not grid[-1] < 0:
        raise ValueError("scan grid must stay below theta = 0 (q < 1)")
    if coeffs.n == 1:
        # degenerate family: F′_red ≡ 0, so there is nothing to scan (float
        # evaluation would only count rounding noise)
        return replace(stationarity_check(coeffs), sign_changes=0)
    c = coeffs.as_floats()
    values, kappas = [], []
    for t in grid:
        m = moments(c.n, math.exp(t))
        values.append(_f_prime(c, m))
        kappas.append(_kappa(c, m))

    # a sign change is a flip between consecutive nonzero values; exact grid
    # zeros are spanned by the surrounding flip (or, if the function is flat
    # there, are no change at all)
    intervals: list[tuple[float, float]] = []
    last_nonzero: Optional[int] = None
    for i, v in enumerate(values):
        if v == 0.0:
            continue
        if last_nonzero is not None and (v > 0) != (values[last_nonzero] > 0):
            intervals.append((grid[last_nonzero], grid[i]))
        last_nonzero = i
    count = len(intervals)

    steps = [b - a for a, b in zip(grid, grid[1:])]
    uniform = max(steps) - min(steps) <= 1e-9 * (grid[-1] - grid[0])
    d2 = [kappas[i + 1] - 2 * kappas[i] + kappas[i - 1] for i in range(1, len(kappas) - 1)]
    surrogate = coeffs.n >= 2 and uniform and len(d2) > 0 and all(x > 0 for x in d2)
    if surrogate and count > 1:
        raise ArithmeticError(
            f"{count} stationary crossings found although the curvature scan "
            "certifies strictly convex κ — scan grid or coefficients are inconsistent"
        )

    return replace(
        stationarity_check(coeffs),
        sign_changes=count,
        sign_change_intervals=tuple(sorted(intervals)),
    )
