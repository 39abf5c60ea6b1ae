"""Golden-point reduction: powers of q⋆, Fibonacci coefficients, and Λ(N).

Since ``q⋆ = (3 − √5)/2`` satisfies ``q⋆² = 3q⋆ − 1``, every power reduces to
``q⋆^m = a_m·q⋆ + b_m`` with integer coefficients obeying the recurrence
``c_{m+2} = 3c_{m+1} − c_m``.  In closed form ``a_m = F_{2m}`` and
``b_m = −F_{2m−2}`` with the Fibonacci convention ``F_{−2} = −1, F_{−1} = 1``.

The golden-point moments and the ratio ``Λ(N) = I₂′(θ⋆)/I₁′(θ⋆)`` are read
off their forms in the Fibonacci and Lucas numbers F_N, L_N, F_2N and L_2N,
built from the four constants ``g_k = Σ_{t≥1} t^k·q⋆^t = (φ⁻¹, 1, √5, 7)``
(:mod:`.folded`); the moments of N and Λ(N) are computed together, once per
N per process, in one cache that keeps the last 32 sizes.  Λ prints from the
digits of F_N and L_N, as the moments do, in both the ``lambda`` and the
``stationarity`` subcommands: at N = 10⁴ that converts those two integers
only.  The table is integer arithmetic and loads only :mod:`.floatlaw`, the
reader of counts: :mod:`.qfield` and :mod:`.folded` are imported by the
functions that compute with them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .floatlaw import _count

if TYPE_CHECKING:
    from .qfield import Q5

__all__ = [
    "GoldenPower",
    "golden_power_table",
    "lambda_n",
]


class GoldenPower(NamedTuple):
    """Integer coefficients of ``q⋆^m = a·q⋆ + b``."""

    m: int
    a: int
    b: int

    def as_q5(self) -> Q5:
        """``b + a·q⋆ = (2b + 3a − a·√5)/2``, since ``q⋆ = (3 − √5)/2``."""
        from .qfield import _q5

        return _q5(2 * self.b + 3 * self.a, -self.a, 2)


def golden_power_table(max_m: int) -> list[GoldenPower]:
    """Rows ``(m, a_m, b_m)`` for m = 0..max_m, from the recurrence
    ``c_{m+2} = 3c_{m+1} − c_m``, the one place it is written."""
    rows = []
    a, b, a1, b1 = 0, 1, 1, 0  # q⋆^0 = 1 and q⋆^1 = q⋆
    for m in range(_count(max_m, "max_m", 0) + 1):
        rows.append(GoldenPower(m, a, b))
        a, a1 = a1, 3 * a1 - a
        b, b1 = b1, 3 * b1 - b
    return rows


def lambda_n(n: int) -> Q5:
    """The three-cycle ratio ``Λ(N) = I₂′(θ⋆)/I₁′(θ⋆)`` for N ≥ 2, exactly in Q(√5).

    In Fibonacci and Lucas numbers, with ``X = N·F_2N − 2·L_2N + N² + 4`` and
    ``R = L_2N − N² − 2``, ``Λ(N) = N + 1 − √5·X/R``: the ratio of
    ``I₂′ = T/Y₀²`` to ``I₁′ = Var = R/Y₀²``, where ``Y₀² = L_2N − 2`` and
    ``T = (N + 1)·R − √5·X``, so one division by the integer R.  The value is
    read off its form in :mod:`.folded`, with the moments of N, and kept with
    them for the last 32 sizes.  N = 1 is rejected: the index variance
    vanishes identically, so the ratio is undefined.

    Corollary of the theorem of :func:`~.lockin.stationarity_check` (for
    N ≥ 3, Λ(q) rises strictly from 3 at q → 0⁺ to N + 1 at q → 1⁻):
    ``3 < Λ(N) < N + 1``, and as inequalities between integers, R > 0, X > 0
    and ``5X² < (N − 2)²·R²``.  Indeed R = Var·Y₀² > 0 at every N ≥ 2;
    then ``Λ < N + 1`` is ``√5·X/R > 0``, that is X > 0, and ``Λ > 3`` is
    ``√5·X < (N − 2)·R``, of two positive sides, so ``5X² < (N − 2)²·R²``.
    At N = 2, X = 0 and Λ = 3.
    """
    from .folded import _golden_point

    n = _count(n, "N", 1)
    if n == 1:
        raise ValueError("Λ(N) needs N >= 2 (zero variance at N=1)")
    return _golden_point(n).lam
