"""Golden-point reduction: powers of q⋆, Fibonacci coefficients, and Λ(N).

Since ``q⋆ = (3 − √5)/2`` satisfies ``q⋆² = 3q⋆ − 1``, every power reduces to
``q⋆^m = a_m·q⋆ + b_m`` with integer coefficients obeying the recurrence
``c_{m+2} = 3c_{m+1} − c_m``.  In closed form ``a_m = F_{2m}`` and
``b_m = −F_{2m−2}`` with the Fibonacci convention ``F_{−2} = −1, F_{−1} = 1``.

The golden-point moments and the ratio ``Λ(N) = I₂′(θ⋆)/I₁′(θ⋆)`` come from
the closed forms of :mod:`.folded` at ``q = q⋆``, scaled by ``φᴺ``; each is
computed once per N per process, and the last 32 sizes are kept.  Λ prints
from the digits of F_N and L_N, as the moments do (:mod:`.folded`): the
``lambda`` subcommand at N = 10⁴ converts those two integers only.  The
table is integer arithmetic: :mod:`.qfield` and :mod:`.folded` are imported
by the functions that compute with them, so building the table loads neither.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

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
        from .qfield import GoldenBasis

        return GoldenBasis(self.b, self.a).to_q5()


def golden_power_table(max_m: int) -> list[GoldenPower]:
    """Rows ``(m, a_m, b_m)`` for m = 0..max_m, from the recurrence
    ``c_{m+2} = 3c_{m+1} − c_m``, the one place it is written."""
    if type(max_m) is not int:  # a bool is not a table size
        raise ValueError(f"max_m must be an integer, got {max_m!r}")
    if max_m < 0:
        raise ValueError(f"max_m must be nonnegative, got {max_m}")
    rows = []
    a, b, a1, b1 = 0, 1, 1, 0  # q⋆^0 = 1 and q⋆^1 = q⋆
    for m in range(max_m + 1):
        rows.append(GoldenPower(m, a, b))
        a, a1 = a1, 3 * a1 - a
        b, b1 = b1, 3 * b1 - b
    return rows


#: how many sizes N keep their Λ(N) for the life of the process
_LAMBDA_CACHE_SIZE = 32


def lambda_n(n: int) -> Q5:
    """The three-cycle ratio ``Λ(N) = I₂′(θ⋆)/I₁′(θ⋆)`` for N ≥ 2, exactly in Q(√5).

    With the numerators ``Y_k = φᴺ·X_k`` of the golden-point power sums,
    ``I₁′ = Var = R/Y₀²`` and ``I₂′ = T/Y₀²``, where ``T = φ³(Y₃Y₀ − Y₁Y₂)``
    and ``R = Y₀² − N²``, so Λ = T/R.  Y₀ is √5·F_N or L_N, so R is a
    rational integer and the one division is by an integer, with no field
    norm.  N = 1 is rejected: the index variance vanishes identically, so the
    ratio is undefined.  Each N is computed once per process, and the last
    ``_LAMBDA_CACHE_SIZE`` values are kept.
    """
    from .floatlaw import _check_size

    _check_size(n)
    if n == 1:
        raise ValueError("Λ(N) needs N >= 2 (zero variance at N=1)")
    return _lambda_golden(n)


@lru_cache(maxsize=_LAMBDA_CACHE_SIZE)
def _lambda_golden(n: int) -> Q5:
    """Λ(N) = T/R for a size N ≥ 2 already checked by :func:`lambda_n`."""
    from .folded import _golden_i2_prime_numerator, _golden_point

    ys = _golden_point(n).numerators
    return _golden_i2_prime_numerator(ys) / (ys[0] * ys[0] - n * n)
