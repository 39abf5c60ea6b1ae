"""Golden-point reduction: powers of q⋆, Fibonacci coefficients, and Λ(N).

Since ``q⋆ = (3 − √5)/2`` satisfies ``q⋆² = 3q⋆ − 1``, every power reduces to
``q⋆^m = a_m·q⋆ + b_m`` with integer coefficients obeying the recurrence
``c_{m+2} = 3c_{m+1} − c_m``.  In closed form ``a_m = F_{2m}`` and
``b_m = −F_{2m−2}`` with the Fibonacci convention ``F_{−2} = −1, F_{−1} = 1``.

The golden-point moments and the ratio ``Λ(N) = I₂′(θ⋆)/I₁′(θ⋆)`` come from
the closed forms of :mod:`.folded` at ``q = q⋆``.
"""

from __future__ import annotations

from typing import NamedTuple

from .folded import sums_closed
from .qfield import QSTAR, GoldenBasis, Q5

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
        return GoldenBasis(self.b, self.a).to_q5()


def golden_power_table(max_m: int) -> list[GoldenPower]:
    """Rows ``(m, a_m, b_m)`` for m = 0..max_m, from the recurrence
    ``c_{m+2} = 3c_{m+1} − c_m``, the one place it is written."""
    if max_m < 0:
        raise ValueError(f"max_m must be nonnegative, got {max_m}")
    rows = []
    a, b, a1, b1 = 0, 1, 1, 0  # q⋆^0 = 1 and q⋆^1 = q⋆
    for m in range(max_m + 1):
        rows.append(GoldenPower(m, a, b))
        a, a1 = a1, 3 * a1 - a
        b, b1 = b1, 3 * b1 - b
    return rows


def lambda_n(n: int) -> Q5:
    """The three-cycle ratio ``Λ(N) = I₂′(θ⋆)/I₁′(θ⋆)`` for N ≥ 2, exactly in Q(√5).

    With ``I₁′ = Var = V/S₀²`` and ``I₂′ = I₃ − I₁I₂ = U/S₀²`` the ratio is
    ``U/V``, where ``U = S₃S₀ − S₁S₂`` and ``V = S₂S₀ − S₁²``: one field
    division of the golden-point power sums.  N = 1 is rejected: the index
    variance vanishes identically, so the ratio is undefined.
    """
    if n < 2:
        raise ValueError(f"Λ(N) needs N >= 2 (zero variance at N={n})")
    s0, s1, s2, s3 = sums_closed(n, QSTAR).as_tuple()
    return (s3 * s0 - s1 * s2) / (s2 * s0 - s1 * s1)
