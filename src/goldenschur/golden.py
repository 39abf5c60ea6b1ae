"""Golden-point reduction: powers of q⋆, Fibonacci coefficients, and Λ(N).

Since ``q⋆ = (3 − √5)/2`` satisfies ``q⋆² = 3q⋆ − 1``, every power reduces to
``q⋆^m = a_m·q⋆ + b_m`` with integer coefficients obeying the recurrence
``c_{m+2} = 3c_{m+1} − c_m``.  In closed form ``a_m = F_{2m}`` and
``b_m = −F_{2m−2}`` with the Fibonacci convention ``F_{−2} = −1, F_{−1} = 1``.

The golden-point moments and the ratio ``Λ(N) = I₂′(θ⋆)/I₁′(θ⋆)`` come from
the closed forms of :mod:`.folded` at ``q = q⋆``.  The reduction gives a
second, independent route to the same power sums (integer bookkeeping only,
no field division); :func:`sums_at_qstar` keeps it as the oracle that the
verification suites and the tests check the closed forms against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from .folded import FoldedSums, sums_closed
from .qfield import QSTAR, GoldenBasis, Q5

__all__ = [
    "GoldenPower",
    "golden_power_table",
    "fibonacci",
    "sums_at_qstar",
    "lambda_n",
]


@dataclass(frozen=True)
class GoldenPower:
    """Integer coefficients of ``q⋆^m = a·q⋆ + b``."""

    m: int
    a: int
    b: int

    def as_q5(self) -> Q5:
        return GoldenBasis(self.b, self.a).to_q5()


def _coefficients() -> Iterator[tuple[int, int]]:
    """Yield ``(a_m, b_m)`` of ``q⋆^m = a_m·q⋆ + b_m`` for m = 0, 1, 2, …

    The one place the recurrence ``c_{m+2} = 3c_{m+1} − c_m`` is written.
    """
    a, b = 0, 1  # q⋆^0
    a1, b1 = 1, 0  # q⋆^1
    while True:
        yield a, b
        a, a1 = a1, 3 * a1 - a
        b, b1 = b1, 3 * b1 - b


def golden_power_table(max_m: int) -> list[GoldenPower]:
    """Rows ``(m, a_m, b_m)`` for m = 0..max_m, by running the recurrence once."""
    if max_m < 0:
        raise ValueError(f"max_m must be nonnegative, got {max_m}")
    return [GoldenPower(m, a, b) for m, (a, b) in zip(range(max_m + 1), _coefficients())]


def fibonacci(n: int) -> int:
    """Fibonacci number F_n for n ≥ −2, with F_{−2} = −1 and F_{−1} = 1.

    Runs its own loop rather than :func:`_coefficients`, so that it stays an
    independent check of ``a_m = F_{2m}`` and ``b_m = −F_{2m−2}``.
    """
    if n < -2:
        raise ValueError(f"index must be >= -2, got {n}")
    prev, cur = -1, 1  # F_{-2}, F_{-1}
    for _ in range(n + 2):
        prev, cur = cur, prev + cur
    return prev


def sums_at_qstar(n: int) -> FoldedSums:
    """Exact golden-point power sums via the integer reduction route.

    ``S_k(q⋆) = (Σ s^k a_s)·q⋆ + Σ s^k b_s`` — pure integer accumulation,
    deliberately independent of the rational closed forms.  The library
    computes golden-point values by ``moments(N, QSTAR)``; this route is kept
    as the oracle those closed forms are checked against.
    """
    if n < 1:
        raise ValueError(f"family size must be a positive integer, got {n!r}")
    acc_a = [0, 0, 0, 0]
    acc_b = [0, 0, 0, 0]
    for s, (a, b) in enumerate(islice(_coefficients(), 1, n + 1), 1):
        w = 1
        for k in range(4):
            acc_a[k] += w * a
            acc_b[k] += w * b
            w *= s
    values = [GoldenBasis(acc_b[k], acc_a[k]).to_q5() for k in range(4)]
    return FoldedSums(n, QSTAR, *values)


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
