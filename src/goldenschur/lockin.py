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
q = e^θ.  :func:`quadratic_law_fit` recovers (A, B) from (q, κ) samples.

Everything is generic over the scalar type: exact inputs (Fraction, Q5) stay
exact; any float input routes the whole computation through floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from ._record import FrozenRecord
from .folded import FoldedMoments, Scalar, _check_size, moments
from .golden import lambda_n
from .qfield import QSTAR, Q5

__all__ = [
    "QuadLawCoeffs",
    "kappa_quadratic",
    "QuadLawFit",
    "quadratic_law_fit",
    "f_red_q",
    "f_red_prime_q",
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


class QuadLawCoeffs(FrozenRecord):
    """Coefficients of the quadratic folded law at fixed (N, m_ρ²).

    ints in ``a``, ``b`` and ``m_rho_sq`` are stored as Fractions.
    """

    __slots__ = ("a", "b", "n", "m_rho_sq")

    def __init__(self, a: Scalar, b: Scalar, n: int, m_rho_sq: Scalar = Fraction(2)) -> None:
        _check_size(n)
        m2 = _normalize(m_rho_sq)
        if not (m2.sign() > 0 if isinstance(m2, Q5) else m2 > 0):  # a NaN is rejected
            raise ValueError(f"m_rho_sq must be positive, got {m2}")
        self._set_fields(_normalize(a), _normalize(b), n, m2)

    @property
    def is_exact(self) -> bool:
        return all(_is_exact(x) for x in (self.a, self.b, self.m_rho_sq))

    def as_floats(self) -> "QuadLawCoeffs":
        """The coefficients as floats.  A ValueError names every coefficient
        whose float overflows, or is 0.0 although the coefficient is not."""
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
        return QuadLawCoeffs(values[0], values[1], self.n, values[2])


def _route(coeffs: QuadLawCoeffs, x: Scalar) -> tuple[QuadLawCoeffs, Scalar]:
    """Pick the exact or the float lane for coefficients and one scalar (q or Λ)."""
    if coeffs.is_exact and _is_exact(x):
        return coeffs, x
    return coeffs.as_floats(), float(x)


def _kappa(c: QuadLawCoeffs, m: FoldedMoments) -> Scalar:
    """κ = A·I₁² + B·Var from moments already evaluated in the lane of ``c``."""
    return c.a * (m.i1 * m.i1) + c.b * m.var


def _slope(c: QuadLawCoeffs) -> Scalar:
    """``2A − 2B − 8/m_ρ²``, the I₁′ coefficient of the bracket-form F′_red."""
    return 2 * c.a - 2 * c.b - 8 / c.m_rho_sq


def _float_lane(coeffs: QuadLawCoeffs) -> tuple[QuadLawCoeffs, float]:
    """The coefficients as floats, and ``2A − 2B − 8/m_ρ²`` rounded once.

    Exact coefficients form the slope exactly: a synthesized
    A = (8/m_ρ² − B·Λ + 2B)/2 rounded to a float loses B·Λ once |B| is below
    about 1e-16 of 8/m_ρ², and a slope formed from it is −2B, not −B·Λ.
    A slope too large for a float is a ValueError, as a coefficient is.
    """
    c = coeffs.as_floats()
    if not coeffs.is_exact:
        return c, _slope(c)
    try:
        return c, float(_slope(coeffs))
    except OverflowError:
        raise ValueError("slope 2A - 2B - 8/m_rho_sq is too large for a float") from None


def _f_prime(c: QuadLawCoeffs, slope: Scalar, m: FoldedMoments) -> Scalar:
    """Bracket-form F′_red (see :func:`f_red_prime_q`), ``(B·I₂′ + slope·I₁′)·I₁/N``
    with ``slope = _slope(c)`` and I₁′ = Var, from moments in the lane of ``c``."""
    return (c.b * m.i2_prime + slope * m.var) * m.i1 / c.n


def kappa_quadratic(coeffs: QuadLawCoeffs, q: Scalar) -> Scalar:
    """κ(q) = A·I₁² + B·Var under the quadratic folded law."""
    c, qq = _route(coeffs, q)
    return _kappa(c, moments(c.n, qq))


class QuadLawFit(NamedTuple):
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
    difference that (A, B) would be fitted to rounding noise.  The float
    moments themselves lose digits as q → 1: at N = 12, against exact
    Fractions at the same binary q, the relative error of Var is 3e-8 at
    q = 0.999, 5e-5 at 0.9999 and 0.17 at 0.99999 (ROADMAP item 2).

    Each sample's I₁ and Var are read from :func:`~.folded.moments` at its q,
    in the lane of that q.
    """
    if len(points) < 2:
        raise ValueError("need at least two (q, kappa) samples")
    _check_size(n)
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


def f_red_prime_q(coeffs: QuadLawCoeffs, q: Scalar) -> Scalar:
    """Bracket-form stationarity derivative, ``(I₁/N)·(B·I₂′ + (2A−2B−8/m_ρ²)·I₁′)``.

    Equal to ``(1/N)·(B·Λ(θ) + 2A − 2B − 8/m_ρ²)·I₁·I₁′`` wherever
    Λ(θ) = I₂′/I₁′ is defined, and identically zero at N = 1.  Differs from
    the chain-rule derivative of :func:`f_red_q` by ``B·I₂′·(I₁−1)/N``.

    Exact coefficients and an exact q stay exact.  Otherwise the float lane
    evaluates the float moments, with the slope 2A − 2B − 8/m_ρ² formed
    exactly, if the coefficients are exact, and rounded once.
    """
    if coeffs.is_exact and _is_exact(q):
        c, slope = coeffs, _slope(coeffs)
    else:
        c, slope = _float_lane(coeffs)
        q = float(q)
    return _f_prime(c, slope, moments(c.n, q))


def bracket_residual(coeffs: QuadLawCoeffs, lam: Optional[Scalar] = None) -> Scalar:
    """``B·Λ + 2A − 2B − 8/m_ρ²``, with Λ = Λ(N) unless given — zero exactly
    for consistent coefficients."""
    if lam is None:
        lam = lambda_n(coeffs.n)
    c, lam = _route(coeffs, lam)
    return c.b * lam + 2 * c.a - 2 * c.b - 8 / c.m_rho_sq


def synthesize_consistent_ab(
    b: Scalar, n: int, m_rho_sq: Scalar = Fraction(2)
) -> QuadLawCoeffs:
    """Solve the bracket identity for A given B: ``A = (8/m_ρ² − B·Λ + 2B)/2``.

    Exact inputs give an exact A in Q(√5), and any float input a float A; B
    and m_ρ² come back as given.  The returned coefficients make the golden
    point stationary by construction.
    """
    lam = lambda_n(n)
    coeffs = QuadLawCoeffs(0, b, n, m_rho_sq)
    c, lam = _route(coeffs, lam)
    return QuadLawCoeffs((8 / c.m_rho_sq - c.b * lam + 2 * c.b) / 2, coeffs.b, n, coeffs.m_rho_sq)


class StationarityReport(NamedTuple):
    """Golden-point stationarity summary, optionally with scan results."""

    n: int
    f_prime_at_star: Scalar
    bracket: Optional[Scalar]  # None when N = 1 (Λ undefined)
    stationary: bool
    degenerate: bool  # F′_red ≡ 0: N = 1, or N = 2 with a zero bracket
    sign_changes: Optional[int] = None
    sign_change_intervals: tuple[tuple[float, float], ...] = ()


#: Relative size of the float bracket, against the sum of its terms'
#: magnitudes, at or below which the golden point counts as stationary.
STATIONARY_RTOL = 1e-12


def stationarity_check(coeffs: QuadLawCoeffs) -> StationarityReport:
    """Evaluate the bracket at the golden point once, and F′_red from it.

    With Λ = I₂′/I₁′ at q⋆, ``bracket = B·Λ + 2A − 2B − 8/m_ρ²`` and
    ``F′(θ⋆) = bracket·I₁·I₁′/N``.  Exact coefficients give exact field values
    and are stationary when the bracket is zero.  Float coefficients are
    stationary when |bracket| ≤ STATIONARY_RTOL·(|B·Λ| + |2A| + |2B| + 8/m_ρ²),
    with STATIONARY_RTOL = 1e-12: the bracket is then rounding noise on the
    terms it sums.  At N = 2, Λ ≡ 3, so a zero bracket makes F′_red vanish
    identically and the report degenerate.
    """
    n = coeffs.n
    if n == 1:
        return StationarityReport(1, Fraction(0), None, True, True)
    c, q = _route(coeffs, QSTAR)
    m = moments(n, q)
    lam = m.i2_prime / m.var
    bracket = bracket_residual(c, lam)
    if isinstance(bracket, float):
        scale = abs(c.b * lam) + abs(2 * c.a) + abs(2 * c.b) + 8 / c.m_rho_sq
        stationary = abs(bracket) <= STATIONARY_RTOL * scale
    else:
        stationary = bracket == 0
    f_prime = bracket * m.i1 * m.var / n
    return StationarityReport(n, f_prime, bracket, stationary, n == 2 and stationary)


def uniqueness_scan(coeffs: QuadLawCoeffs, thetas: Sequence[float]) -> StationarityReport:
    """Count sign changes of F′_red over a θ-grid (float evaluation).

    F′_red vanishes exactly where B·Λ(q) + 2A − 2B − 8/m_ρ² does.  For N ≤ 2,
    Λ does not depend on q (it is undefined at N = 1 and 3 at N = 2), so F′_red
    keeps one sign or vanishes identically: the scan is skipped and reports 0
    sign changes (float evaluation would only count rounding noise).

    The grid is evaluated in one pass: at each q = e^θ the float branch of
    :func:`~.folded.moments` gives I₁, Var and I₂′, and the bracket's constant
    2A − 2B − 8/m_ρ² is formed once, exactly if the coefficients are exact,
    and rounded once.  The values are bit for bit those of
    :func:`f_red_prime_q` at the same q.
    """
    grid = [float(t) for t in thetas]
    if len(grid) < 2 or not all(a < b for a, b in zip(grid, grid[1:])):  # NaN fails too
        raise ValueError("scan grid must be strictly increasing with >= 2 points")
    if not grid[-1] < 0:
        raise ValueError("scan grid must stay below theta = 0 (q < 1)")
    report = stationarity_check(coeffs)
    if coeffs.n <= 2:
        return report._replace(sign_changes=0)
    c, slope = _float_lane(coeffs)
    n = c.n
    values = []
    for t in grid:
        # moments rejects an e^θ that underflowed to 0 or rounded to 1
        values.append(_f_prime(c, slope, moments(n, math.exp(t))))

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
    return report._replace(
        sign_changes=len(intervals),
        sign_change_intervals=tuple(sorted(intervals)),
    )
