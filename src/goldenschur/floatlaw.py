"""The float lane of the folded moments, and the two-point fit of the quadratic law.

An inexact scalar, one that :func:`~.qfield._coords` does not read as
exact, enters the float lane through :func:`_as_float` only.  For such a q
the power sums ``S_k = Σ_{s=1}^N s^k q^s``, k = 0..3, run their closed forms as
written (:func:`_closed_sums`), and the moments divide them by S₀
(:func:`_float_moments`).  :func:`~.folded.sums_closed` and
:func:`~.folded.moments` take these for an inexact q, so each is written
once.

:func:`quadratic_law_fit` identifies (A, B) of ``κ = A·I₁² + B·Var`` from
(q, κ) samples.  A float sample is evaluated here; an exact one imports
:mod:`.folded` and :mod:`.qfield` inside the call.  So ``schur --fit-law``,
which fits the κ curve on floats, loads none of the exact layers (``qfield``, ``folded``,
``golden``, ``lockin``) nor :mod:`fractions`.

:func:`_count` is the package's one reader of counts (N, digits, seeds, grid
sizes, indices); it lives here, in a module that imports only :mod:`math` and
:mod:`operator`, so that every layer, ``schur`` and ``golden`` too, may load it.
"""

from __future__ import annotations

import math
from operator import index
from typing import TYPE_CHECKING, NamedTuple, Sequence

if TYPE_CHECKING:
    from .folded import Scalar

__all__ = ["DEGENERACY_RTOL", "QuadLawFit", "quadratic_law_fit"]

#: Relative size of the moment determinant at or below which two float samples
#: are a degenerate pair in :func:`quadratic_law_fit`.
DEGENERACY_RTOL = 1e-8


def _count(value: object, name: str, least: int) -> int:
    """An integer of any type but bool (numpy's too) as a Python int, at least
    ``least``; anything else is a ValueError naming ``name``."""
    if type(value) is int and value >= least:
        return value
    if not isinstance(value, bool) and hasattr(type(value), "__index__"):  # numpy's bool has none
        n = index(value)
        if n >= least:
            return n
    raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_domain(n: int, q: Scalar) -> int:
    n = _count(n, "N", 1)
    if not 0 < q < 1:  # exact for a Q5, and False for a NaN
        raise ValueError(f"weight ratio must satisfy 0 < q < 1, got {q!r}")
    return n


def _as_float(x: object) -> float:
    """An inexact scalar (q, Λ or a coefficient) as it enters the float lane:
    a float, ``numpy.float64`` included, as it is; any other as the float
    that equals it, or as a NaN or an infinity, which the callers' checks
    name; and anything else, such as ``Decimal("0.1")``, is a ValueError."""
    if isinstance(x, float):
        return x
    f = float(x)
    if f == x or not math.isfinite(f):
        return f
    raise ValueError(f"no float equals {x!r}; pass a Fraction to stay exact")


def _closed_sums(n: int, q: Scalar) -> tuple[Scalar, Scalar, Scalar, Scalar]:
    """``(S₀, S₁, S₂, S₃)`` for an inexact scalar q (a float or float-like)
    already known to satisfy 0 < q < 1: the formula ``S_k = g_k − q^N·e_k``
    of :mod:`.folded`, expanded in float order.  The expansion is kept as
    written for its bits, until the float lane is rebuilt (ROADMAP item 3)."""
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


def _float_moments(n: int, q: Scalar) -> tuple[Scalar, Scalar, Scalar, Scalar, Scalar]:
    """``(I₁, I₂, I₃, Var, I₂′)`` of an inexact q already known to satisfy
    0 < q < 1: the closed-form sums divided by S₀."""
    s0, s1, s2, s3 = _closed_sums(n, q)
    i1, i2, i3 = s1 / s0, s2 / s0, s3 / s0
    return i1, i2, i3, i2 - i1 * i1, i3 - i1 * i2


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
    q = 0.999, 5e-5 at 0.9999 and 0.17 at 0.99999 (ROADMAP item 3).

    Each sample's I₁ and Var are the moments at its q, in the lane of that
    q: a float q takes :func:`_float_moments`, and any other q
    :func:`~.folded.moments`, with an exact κ read on Python ints
    (:func:`~.qfield._exact_value`).
    """
    if len(points) < 2:
        raise ValueError("need at least two (q, kappa) samples")
    n = _count(n, "N", 1)
    ms, vs, ks = [], [], []
    for q, kappa in points:
        if isinstance(q, float):
            _check_domain(n, q)
            i1, _, _, var, _ = _float_moments(n, q)
        else:
            from .folded import moments
            from .qfield import _exact_value

            mom = moments(n, q)
            i1, var = mom.i1, mom.var
            exact = _exact_value(kappa)  # on Python ints: a numpy integer wraps
            kappa = kappa if exact is None else exact
        ms.append(i1 * i1)
        vs.append(var)
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
