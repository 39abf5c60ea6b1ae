"""Second routes, kept only to check the library's one route to each quantity.

``verify``, the tests and the demos compare each library route with the
independent route here.  Each oracle, and the library route it checks:

* :func:`sums_bruteforce`, direct summation: the closed forms of
  :func:`.folded.sums_closed`, exactly for exact q.  For a Fraction
  ``q = a/b`` its integer core, :func:`_bruteforce_numerators`, sums the
  terms ``s^k·a^s·b^{N−s}`` as integers over the one denominator ``b^N``,
  which is divided out once per sum; ``verify`` compares those integers
  with the closed-form Fractions by cross-multiplication, dividing nothing.
* :func:`moments_from_sums`, ``I_k = S_k/S₀`` by field division of given
  sums: the integer numerator routes of :func:`.folded.moments`.
* :func:`theta_derivatives_fd`, central differences of direct sums in θ:
  ``var`` and ``i2_prime`` of :func:`.folded.moments`.
* :func:`fibonacci`, fast doubling in O(log n) steps, not the table's
  three-term recurrence: ``a_m = F_{2m}`` and ``b_m = −F_{2m−2}`` in the
  rows of :func:`.golden.golden_power_table`.
* :func:`sums_at_qstar`, integer sums over those rows with no field
  division: ``sums_closed(N, QSTAR)``, and so :func:`.golden.lambda_n`.
* :func:`f_red_prime_direct_q`, the chain rule on :func:`.lockin.f_red_q`
  over direct sums: the bracket form :func:`.lockin.f_red_prime_q`, which
  differs from it by exactly ``B·I₂′·(I₁ − 1)/N``.
* :func:`exact_sign_changes`, exact signs of F′_red at q = k/64 from the
  integers of :func:`_bruteforce_numerators` and a slope of its own, not
  :mod:`.lockin`'s: the number and place of F′_red's zeros that
  :func:`.lockin.stationarity_check` decides from the monotonicity of Λ.
* :func:`dense_curvature`, the trace of the dense Schur complement
  (:func:`assemble_hessian`, :func:`band_basis`, :func:`block_hessian`,
  :func:`schur_complement`): the spectral :func:`.schur.schur_curvature`,
  where H(θ) is a finite float; this route holds H(θ) itself, so it fails
  where e^{sθ} or ‖H‖_F overflows.
* :func:`exact_kappa`, κ_Schur in Fractions from the stored rows and the
  raw collective direction: the float kernel of
  :func:`.schur.schur_curvature` at the same float weights, which the tests
  hold to 4 ulps of it on fixed draws at moderate θ (random draws reach
  about 5); at |θ| up to 800, where one term dominates, up to 16 ulps were
  seen (24 000 draws, see :mod:`.schur`).  Where
  the kernel scales its weights by e^{−r}, homogeneity gives the exact value
  at them: κ(w̃₀, w̃) = w̃₀·κ(1, w̃/w̃₀).
* :func:`variational_check`: the Schur complement as the Loewner minimum of
  :func:`variational_expression` over couplings Y.  Its report carries the
  κ_Schur of that Schur complement, :func:`dense_curvature` bit for bit, so
  ``verify`` builds each dense block once.
* :func:`matrix_convexity_check`: the Loewner convexity of θ ↦ H(θ) that
  validation implies, since each ``e^{sθ}·C`` with C ⪰ 0 is convex.
* :func:`shift_matrix` and :func:`reversal_matrix`, the generators of D_N:
  a C that validation accepts commutes with both, to twice its bound.

Neither Loewner check calls an eigen-solver.  A convexity gap is the
symmetric circulant of one row, whose eigenvalues are cosine sums over a
table kept for each N; a variational difference, plus LOEWNER_TOL·I, is
tested for positive definiteness by the pivots of its LDLᵀ factorization.

This is the one module that builds N×N matrices, as lists of rows of floats;
a family keeps only its rows.  Besides the oracles it holds:

* the dense views :func:`circulant`, of a row, and :func:`band_projector`,
  the P_B of a split;
* the random families :func:`random_symmetric_psd_circulant` and
  :func:`random_family`, drawn from a :class:`random.Random`, and
  :func:`strict_convexity_witness`.

The matrix routes take any sequences of numbers, numpy arrays included
(read through ``tolist()``), and return floats, tuples or lists.  The module
needs only the standard library.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache
from operator import mul, truediv
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .floatlaw import _count
from .folded import FoldedMoments, FoldedSums, Scalar, _check_domain
from .golden import golden_power_table
from .lockin import QuadLawCoeffs, _route
from .qfield import QSTAR, GoldenBasis, Q5, _coords

if TYPE_CHECKING:
    import random

    from .schur import HessianFamily, SplitGeometry

    Matrix = list[list[float]]

__all__ = [
    "sums_bruteforce", "moments_from_sums", "theta_derivatives_fd", "fibonacci", "sums_at_qstar",
    "f_red_prime_direct_q", "exact_sign_changes", "circulant", "band_projector",
    "random_symmetric_psd_circulant", "random_family", "shift_matrix", "reversal_matrix",
    "band_basis", "assemble_hessian", "BlockHessian", "block_hessian", "schur_complement",
    "dense_curvature", "exact_kappa", "variational_expression", "VariationalReport",
    "variational_check", "ConvexityGapReport", "matrix_convexity_check", "LOEWNER_TOL",
    "StrictWitnessReport", "strict_convexity_witness", "WITNESS_TOL",
]

#: Loewner slack of the variational and matrix-convexity checks.
LOEWNER_TOL = 1e-10
#: Smallest band-projected term norm that witnesses strict convexity.
WITNESS_TOL = 1e-12


# ---------------------------------------------------------------------------
# exact and float scalar oracles


def sums_bruteforce(n: int, q: Scalar) -> FoldedSums:
    """Direct summation — the oracle the closed forms are tested against.

    A Fraction ``q = a/b`` sums the integers ``s^k·a^s·b^{N−s}`` (Horner in b,
    :func:`_bruteforce_numerators`) and divides by ``b^N`` once per sum;
    other scalars sum ``s^k·q^s`` as is.
    """
    n = _check_domain(n, q)
    if type(q) is Fraction:
        bn, hs = _bruteforce_numerators(n, q)
        return FoldedSums(n, q, *(Fraction(h, bn) for h in hs))
    s0 = s1 = s2 = s3 = 0 * q
    p = q * 0 + 1  # multiplicative identity of the scalar type
    for s in range(1, n + 1):
        p = p * q
        s0 = s0 + p
        s1 = s1 + s * p
        s2 = s2 + s * s * p
        s3 = s3 + s**3 * p
    return FoldedSums(n, q, s0, s1, s2, s3)


def _bruteforce_numerators(n: int, q: Fraction) -> tuple[int, tuple[int, int, int, int]]:
    """``(b^N, (h₀, h₁, h₂, h₃))`` for ``q = a/b``: the integers
    ``h_k = Σ_s s^k·a^s·b^{N−s}`` (Horner in b), so that ``S_k = h_k/b^N``."""
    a, _, b = _coords(q)
    h0 = h1 = h2 = h3 = 0
    p = 1
    for s in range(1, n + 1):
        p *= a
        h0 = h0 * b + p
        h1 = h1 * b + s * p
        h2 = h2 * b + s * s * p
        h3 = h3 * b + s**3 * p
    return b**n, (h0, h1, h2, h3)


def moments_from_sums(sums: FoldedSums) -> FoldedMoments:
    """``I_k = S_k/S₀``, ``Var = I₂ − I₁²`` and ``I₂′ = I₃ − I₁·I₂``.  Q5 sums
    share one inverse of S₀ (one field norm); Fraction and float sums divide."""
    s0 = sums.s0
    if type(s0) is Q5:
        inverse = s0.inverse()
        i1, i2, i3 = sums.s1 * inverse, sums.s2 * inverse, sums.s3 * inverse
    else:
        i1, i2, i3 = sums.s1 / s0, sums.s2 / s0, sums.s3 / s0
    return FoldedMoments(sums.n, sums.q, i1, i2, i3, i2 - i1 * i1, i3 - i1 * i2)


def theta_derivatives_fd(n: int, q: float, h: float = 1e-4) -> tuple[float, float]:
    """Central finite differences of I₁, I₂ in θ = ln q (float only)."""
    qf = float(q)
    n = _check_domain(n, qf)
    q_hi = qf * math.exp(h)
    q_lo = qf * math.exp(-h)
    if not q_hi < 1:
        raise ValueError(f"step h={h} leaves the domain at q={qf}")
    # direct summation: positive terms only, so no (1-q)^k cancellation noise
    hi = moments_from_sums(sums_bruteforce(n, q_hi))
    lo = moments_from_sums(sums_bruteforce(n, q_lo))
    return (hi.i1 - lo.i1) / (2 * h), (hi.i2 - lo.i2) / (2 * h)


def fibonacci(n: int) -> int:
    """Fibonacci number F_n for n ≥ −2, with F_{−2} = −1 and F_{−1} = 1.

    Fast doubling, ``F_{2k} = F_k·(2F_{k+1} − F_k)`` and
    ``F_{2k+1} = F_k² + F_{k+1}²``, rather than the three-term recurrence of
    :func:`.golden.golden_power_table`, so that it stays an independent check
    of ``a_m = F_{2m}`` and ``b_m = −F_{2m−2}``.  Negative indices use
    ``F_{−m} = (−1)^{m+1}·F_m``.
    """
    n = _count(n, "n", -2)
    f, g = 0, 1  # F_k, F_{k+1} for k = 0
    for bit in bin(abs(n))[2:]:
        f, g = f * (2 * g - f), f * f + g * g  # k → 2k
        if bit == "1":
            f, g = g, f + g  # 2k → 2k + 1
    return -f if n < 0 and n % 2 == 0 else f


def sums_at_qstar(n: int) -> FoldedSums:
    """Exact golden-point power sums via the integer reduction route.

    ``S_k(q⋆) = (Σ s^k a_s)·q⋆ + Σ s^k b_s`` — pure integer accumulation,
    deliberately independent of the rational closed forms.
    """
    n = _check_domain(n, QSTAR)
    acc_a = [0, 0, 0, 0]
    acc_b = [0, 0, 0, 0]
    for row in golden_power_table(n)[1:]:
        w = 1
        for k in range(4):
            acc_a[k] += w * row.a
            acc_b[k] += w * row.b
            w *= row.m
    values = [GoldenBasis(acc_b[k], acc_a[k]).to_q5() for k in range(4)]
    return FoldedSums(n, QSTAR, *values)


def f_red_prime_direct_q(coeffs: QuadLawCoeffs, q: Scalar) -> Scalar:
    """Chain-rule θ-derivative of :func:`.lockin.f_red_q` (matches finite differences)."""
    (a, b, m2), qq = _route(coeffs, q)
    n = coeffs.n
    m = moments_from_sums(sums_bruteforce(n, qq))
    kappa_p = b * m.i2_prime + (2 * a - 2 * b) * m.i1 * m.var
    return -8 * m.i1 * m.var / (n * m2) + kappa_p / n


def exact_sign_changes(coeffs: QuadLawCoeffs) -> list[tuple[Fraction, Fraction]]:
    """The q-intervals ``(k/64, j/64)`` over which F′_red changes sign: a flip
    between consecutive nonzero values at q = k/64, k = 1..63.  F′_red is
    ``h₁·(B·(h₃h₀ − h₁h₂) + s·(h₂h₀ − h₁²))/(N·h₀³)`` over the integers h of
    :func:`_bruteforce_numerators`, with s = 2A − 2B − 8/m_ρ² written here,
    not read from :mod:`.lockin`; h₀ and h₁ are positive, so the exact sum in
    parentheses has its sign.  A zero on the grid is spanned by the flip
    around it; a zero in (0, 1/64) or (63/64, 1) is not seen."""
    intervals = []
    last, last_positive = None, False
    b = coeffs.b
    slope = 2 * coeffs.a - 2 * b - 8 / coeffs.m_rho_sq
    for k in range(1, 64):
        q = Fraction(k, 64)
        _, (h0, h1, h2, h3) = _bruteforce_numerators(coeffs.n, q)
        value = b * (h3 * h0 - h1 * h2) + slope * (h2 * h0 - h1 * h1)
        if value == 0:
            continue
        if last is not None and (value > 0) != last_positive:
            intervals.append((last, q))
        last, last_positive = q, value > 0
    return intervals


# ---------------------------------------------------------------------------
# dense views, random families and dense matrix oracles
#
# A matrix is the list of its rows, each a list of floats; a vector is a list.


def _matmul(*factors: Sequence[Sequence[float]]) -> Matrix:
    """The product of the factors, from the left."""
    a = factors[0]
    for b in factors[1:]:
        cols = list(zip(*b))
        a = [[sum(map(mul, row, col)) for col in cols] for row in a]
    return a


def circulant(generator: Sequence[float]) -> Matrix:
    """Circulant matrix ``C[i][j] = g[(j − i) mod n]`` of a generator row."""
    from .schur import _floats

    g = _floats(generator, "generator", 1)
    n = len(g)
    return [g[n - i :] + g[: n - i] for i in range(n)]


def band_projector(split: SplitGeometry) -> Matrix:
    """``P_B = I − 11ᵀ/N − uuᵀ``, the projector onto B = span{1, u}^⊥."""
    u, inv_n = split.u, 1.0 / split.n
    return [[float(i == j) - inv_n - ui * uj for j, uj in enumerate(u)] for i, ui in enumerate(u)]


def random_symmetric_psd_circulant(n: int, rng: random.Random) -> list[float]:
    """First row of a random symmetric PSD circulant: the cyclic
    autocorrelation ``r_j = Σ_t g_t·g_{(t+j) mod n}/n`` of a standard normal
    vector g.  circ(r) is circ(g)·circ(g)ᵀ/n, whose spectrum |ĝ|²/n is
    nonnegative, so r is PSD by construction; r_{n−j} is r_j, bit for bit."""
    n = _count(n, "n", 1)
    g = [rng.gauss(0.0, 1.0) for _ in range(n)]
    half = [sum(map(mul, g, g[j:] + g[:j])) / n for j in range(n // 2 + 1)]
    return half + half[1 : (n + 1) // 2][::-1]


def random_family(n: int, rng: random.Random, *, n_terms: int = 2) -> HessianFamily:
    """Random validated family with m_ρ² = 2; a ridge of 0.5 on C₀ keeps
    ``H_OO`` well conditioned.

    u, C₀ and then each term, its exponent ±uniform(0.3, 2) first, are drawn
    in that order from ``rng``, after N (at least 3) and ``n_terms`` are
    read.  Each coefficient reaches :func:`.schur.make_family` as its row,
    an exact symmetric circulant.
    """
    from .schur import make_family

    n, n_terms = _count(n, "N", 3), _count(n_terms, "n_terms", 0)
    u_raw = [rng.gauss(0.0, 1.0) for _ in range(n)]
    while max(u_raw) - min(u_raw) < 1e-6:  # nearly parallel to the uniform vector
        u_raw = [rng.gauss(0.0, 1.0) for _ in range(n)]
    c0 = random_symmetric_psd_circulant(n, rng)
    c0[0] += 0.5
    terms = [
        (rng.uniform(0.3, 2.0) * rng.choice((-1.0, 1.0)), random_symmetric_psd_circulant(n, rng))
        for _ in range(n_terms)
    ]
    return make_family(n, 2.0, u_raw, c0, terms)


def shift_matrix(n: int) -> Matrix:
    """Cyclic shift permutation ``(Sx)_i = x_{(i+1) mod n}``."""
    n = _count(n, "n", 1)
    return [[float(j == (i + 1) % n) for j in range(n)] for i in range(n)]


def reversal_matrix(n: int) -> Matrix:
    """Index reversal ``(Rx)_i = x_{(n−i) mod n}``."""
    n = _count(n, "n", 1)
    return [[float(j == (n - i) % n) for j in range(n)] for i in range(n)]


def _reflect(w: list[float], x: Sequence[float]) -> list[float]:
    """``(I − 2wwᵀ/wᵀw)·x``, the Householder reflection of x."""
    f = 2 * sum(map(mul, w, x)) / sum(map(mul, w, w))
    return [xi - f * wi for xi, wi in zip(x, w)]


def band_basis(split: SplitGeometry) -> Matrix:
    """(n, n−2) orthonormal columns spanning B = span{1, u}^⊥, as n rows.

    Two Householder reflections: H₁ maps e₀ to −1/√n, so its other columns
    span 1^⊥, and u has coordinates H₁u in its columns, the first of them 0;
    H₂, on coordinates 1 … n−1, maps e₁ to a multiple of H₁u.  The columns
    are H₁H₂e_k for k = 2 … n−1.
    """
    n = split.n
    a = 1 / math.sqrt(n)
    w1 = [a + 1.0] + [a] * (n - 1)
    v = _reflect(w1, split.u)[1:]  # coordinate 0 is −1ᵀu/√n, zero but for rounding
    w2 = [v[0] + math.copysign(math.hypot(*v), v[0]), *v[1:]]
    cols = []
    for k in range(1, n - 1):
        e = [0.0] * (n - 1)
        e[k] = 1.0
        cols.append(_reflect(w1, [0.0, *_reflect(w2, e)]))
    return [list(row) for row in zip(*cols)]


def _hessian_row(fam: HessianFamily, theta: float) -> list[float]:
    """The generator row ``c₀ + Σ e^{sθ}·c_k`` of H(θ), the terms added in
    order.  An e^{sθ} that overflows raises ``OverflowError``: this route has
    only H(θ) itself, not a scaled form."""
    row = list(fam.base.c)
    for t in fam.terms:
        w = math.exp(t.s * theta)
        row = [a + w * b for a, b in zip(row, t.c)]
    return row


def assemble_hessian(fam: HessianFamily, theta: float) -> Matrix:
    """``H(θ) = C₀ + Σ e^{sθ}·C_s``, the circulant of its row."""
    return circulant(_hessian_row(fam, theta))


class BlockHessian(NamedTuple):
    """H in the orthonormal (band ⊕ collective) frame."""

    h_bb: Matrix  # (n−2, n−2)
    h_bo: Matrix  # (n−2, 1)
    h_oo: Matrix  # (1, 1)

    @property
    def h_ob(self) -> Matrix:
        return [[x for (x,) in self.h_bo]]


def block_hessian(fam: HessianFamily, theta: float) -> BlockHessian:
    h = assemble_hessian(fam, theta)
    q = band_basis(fam.split)
    qt = list(zip(*q))
    hu = _matmul(h, [[x] for x in fam.split.u])
    return BlockHessian(_matmul(qt, h, q), _matmul(qt, hu), _matmul([fam.split.u], hu))


def schur_complement(
    h_bb: Sequence[Sequence[float]],
    h_bo: Sequence[Sequence[float]],
    h_oo: Sequence[Sequence[float]],
    *,
    context: str = "",
) -> Matrix:
    """``H_BB − H_BO H_OO⁻¹ H_OB`` for the 1×1 collective block ``H_OO``.

    ``‖H‖_F`` is taken over the three blocks.  An ``‖H‖_F`` that is not
    finite raises ``OverflowError``; otherwise the block is rejected as
    numerically singular unless it exceeds ``‖H‖_F / COND_LIMIT``.
    """
    from .schur import COND_LIMIT, _floats, _shape

    h_bb, h_bo, h_oo = _floats(h_bb, "h_bb"), _floats(h_bo, "h_bo"), _floats(h_oo, "h_oo")
    if _shape(h_oo) != (1, 1):
        raise ValueError(f"collective block must be 1x1, got shape {_shape(h_oo)}")
    h = h_oo[0][0]
    bo = [x for (x,) in h_bo]
    scale = math.sqrt(
        sum(x * x for row in h_bb for x in row) + 2 * sum(x * x for x in bo) + h * h
    )
    where = f" at {context}" if context else ""
    if not math.isfinite(scale):
        raise OverflowError(f"H(theta) overflows a float{where}")
    if not h > scale / COND_LIMIT:
        raise ValueError(
            f"collective block is numerically singular{where} "
            f"(h_oo = {h:.3e}, ‖H‖_F = {scale:.3e})"
        )
    return [[b - bi * (bj / h) for b, bj in zip(row, bo)] for row, bi in zip(h_bb, bo)]


def _band_trace(fam: HessianFamily, s: Matrix) -> float:
    """κ_Schur = Tr S/dim B of the dense Schur complement S of ``fam``."""
    return sum(row[i] for i, row in enumerate(s)) / fam.split.dim_band


def dense_curvature(fam: HessianFamily, theta: float) -> float:
    """κ_Schur at θ from the dense band/collective blocks: the oracle route of
    :func:`.schur.schur_curvature`."""
    s = schur_complement(*block_hessian(fam, theta), context=f"theta={theta:g}")
    return _band_trace(fam, s)


def exact_kappa(
    fam: HessianFamily, u_raw: Sequence[float], weights: Sequence[Fraction]
) -> Fraction:
    """κ_Schur in Fractions at the rational weights e^{sθ} of ``fam.terms``,
    from the stored rows of ``fam`` (binary rationals) and the raw collective
    direction: with v = u_raw − mean and u = v/‖v‖, uuᵀ = vvᵀ/‖v‖² is
    rational, and so is (N − 2)·κ = Tr(PH) − uᵀHPHu/uᵀHu for
    P = I − 11ᵀ/N − uuᵀ.  H is the circulant of one exact row, so the one
    product Hv takes N² Fraction products."""
    n = fam.n
    weights = [Fraction(1), *weights]
    rows = [t.c for t in (fam.base, *fam.terms)]
    row = [sum(w * Fraction(x) for w, x in zip(weights, col)) for col in zip(*rows)]
    mean = sum(map(Fraction, u_raw)) / n
    v = [Fraction(x) - mean for x in u_raw]
    vv = sum(x * x for x in v)
    hv = [sum(row[(j - i) % n] * x for j, x in enumerate(v)) for i in range(n)]
    vhv = sum(a * b for a, b in zip(v, hv))
    # Tr H = N·row₀ and 1ᵀH1/N = Σ row; uᵀHPHu = ‖Hu‖² − (1ᵀHu)²/N − (uᵀHu)²
    trace_p_h = n * row[0] - sum(row) - vhv / vv
    uhphu = sum(x * x for x in hv) / vv - sum(hv) ** 2 / (n * vv) - (vhv / vv) ** 2
    return (trace_p_h - uhphu / (vhv / vv)) / (n - 2)


# ---------------------------------------------------------------------------
# variational characterization


def _normals(rng: random.Random, k: int) -> list[float]:
    """k standard normal draws: the Box–Muller transform of pairs of uniforms
    from ``rng``, cosine halves first, vectorized by ``map``."""
    rand = rng.random
    h = (k + 1) // 2
    r = [math.sqrt(-2.0 * math.log(1.0 - rand())) for _ in range(h)]
    a = [math.tau * rand() for _ in range(h)]
    return [*map(mul, r, map(math.cos, a)), *map(mul, r, map(math.sin, a))][:k]


def _ldl_pivots(a: Sequence[Sequence[list[float]]]) -> list[list[float]]:
    """The LDLᵀ pivots of a stack of symmetric matrices, computed for all of
    them at once, entry by entry: ``a[i][j]`` (j ≤ i, the lower triangle)
    lists the (i, j) entry of every matrix, and pivot i lists the D_ii of
    every ``L·D·Lᵀ``, L unit lower triangular.  A symmetric matrix is
    positive definite exactly when every pivot is positive, and in floats
    the test is backward stable where it is (Higham, *Accuracy and Stability
    of Numerical Algorithms*, ch. 10).  The pivots stop at the first i where
    some matrix has one that is not positive, since it cannot divide."""
    ls: list[list[list[float]]] = []  # rows of L, left of the diagonal
    d: list[list[float]] = []
    for i, row in enumerate(a):
        w = []  # row i of L·D
        for x, lj in zip(row, ls):
            for wk, lk in zip(w, lj):
                x = [xt - wt * lt for xt, wt, lt in zip(x, wk, lk)]
            w.append(x)
        li = [list(map(truediv, wk, dk)) for wk, dk in zip(w, d)]
        pivot = row[i]
        for wk, lk in zip(w, li):
            pivot = [pt - wt * lt for pt, wt, lt in zip(pivot, wk, lk)]
        d.append(pivot)
        if not all(p > 0 for p in pivot):
            break
        ls.append(li)
    return d


def _expression(bb: Matrix, bo: list[float], oo: float, y: list[float]) -> Matrix:
    """:func:`variational_expression` of the blocks H_BB, H_BO (as a vector)
    and H_OO (as a float) at the coupling y (as a vector)."""
    return [
        [b + bi * yj + yi * bj + yi * oo * yj for b, bj, yj in zip(row, bo, y)]
        for row, bi, yi in zip(bb, bo, y)
    ]


def variational_expression(blocks: BlockHessian, y: Sequence[Sequence[float]]) -> Matrix:
    """``H_BB + H_BO Y + Yᵀ H_OB + Yᵀ H_OO Y`` for a coupling ``Y`` (1 × n−2)."""
    from .schur import _floats, _shape

    rows = _floats(y, "Y")
    m = len(blocks.h_bb)
    if _shape(rows) != (1, m):
        raise ValueError(f"coupling must have shape (1, {m}), got {_shape(rows)}")
    return _expression(blocks.h_bb, [x for (x,) in blocks.h_bo], blocks.h_oo[0][0], rows[0])


class VariationalReport(NamedTuple):
    """Outcome of the completing-the-square check at one θ."""

    theta: float
    minimizer_gap: float  # ‖expression(Y⋆) − Schur complement‖_F
    min_pivot: float  # least LDLᵀ pivot of expression(Y) − Schur + LOEWNER_TOL·I, over trials
    trials: int
    kappa: float  # Tr S/dim B: the dense_curvature at θ, from the same S

    def passed(self) -> bool:
        return self.minimizer_gap <= LOEWNER_TOL and self.min_pivot > 0


def variational_check(
    fam: HessianFamily,
    theta: float,
    *,
    trials: int = 100,
    rng: random.Random,
) -> VariationalReport:
    """Check that Y⋆ = −H_OO⁻¹H_OB attains the Schur complement S and that every
    random coupling dominates it in the Loewner order.

    The trials draw their standard normal couplings Y from ``rng``
    (:func:`_normals`), one trial after the other.  Each tests
    ``expression(Y) − S ⪰ −LOEWNER_TOL·I`` by the LDLᵀ pivots of
    ``expression(Y) − S + LOEWNER_TOL·I``, which are all positive exactly
    when its smallest eigenvalue is.  The factorizations of all trials run
    together, entry by entry (:func:`_ldl_pivots`), and stop at the first
    pivot index where a trial fails; ``min_pivot`` is the smallest pivot
    computed.  The report also carries κ_Schur = Tr S/dim B from that S,
    :func:`dense_curvature` at θ bit for bit, so a caller that needs both
    builds the dense blocks once.
    """
    trials = _count(trials, "trials", 1)
    bb, h_bo, h_oo = block_hessian(fam, theta)
    schur = schur_complement(bb, h_bo, h_oo, context=f"theta={theta:g}")
    bo, oo = [x for (x,) in h_bo], h_oo[0][0]
    at_star = _expression(bb, bo, oo, [-x / oo for x in bo])
    gap = math.hypot(*(a - b for ra, rb in zip(at_star, schur) for a, b in zip(ra, rb)))
    # the lower triangle of H_BB − S + LOEWNER_TOL·I, to which each trial adds
    # H_BO Y + Yᵀ H_OB + Yᵀ H_OO Y: zip stops each row at the diagonal
    base = [
        [b - x + LOEWNER_TOL * (i == j) for j, (b, x) in enumerate(zip(row[: i + 1], srow))]
        for i, (row, srow) in enumerate(zip(bb, schur))
    ]
    m = len(bo)
    flat = _normals(rng, trials * m)  # trial after trial
    ys = [flat[j::m] for j in range(m)]  # Y_j of each trial
    yos = [[yt * oo for yt in y] for y in ys]
    diff = [
        [
            [b + bi * yjt + yit * bj + yot * yjt for yit, yjt, yot in zip(yi, yj, yo)]
            for b, bj, yj in zip(row, bo, ys)
        ]
        for row, bi, yi, yo in zip(base, bo, ys, yos)
    ]
    worst = min(map(min, _ldl_pivots(diff)))
    return VariationalReport(theta, gap, worst, trials, _band_trace(fam, schur))


# ---------------------------------------------------------------------------
# matrix convexity in θ


@lru_cache(maxsize=None)
def _cosines(n: int) -> tuple[tuple[float, ...], ...]:
    """``cos(2πjt/n)`` for t < n, one row for each j = 0 … n//2."""
    from .schur import _roots

    w = _roots(n)
    return tuple(tuple(w[j * t % n].real for t in range(n)) for j in range(n // 2 + 1))


class ConvexityGapReport(NamedTuple):
    """Loewner convexity gaps ``t·H(θ₁) + (1−t)·H(θ₂) − H(tθ₁+(1−t)θ₂)``."""

    theta1: float
    theta2: float
    t_values: tuple[float, ...]
    min_eigs: tuple[float, ...]

    @property
    def min_eig(self) -> float:
        return min(self.min_eigs)

    def passed(self) -> bool:
        return self.min_eig >= -LOEWNER_TOL


def matrix_convexity_check(
    fam: HessianFamily,
    theta1: float,
    theta2: float,
    t_grid: Sequence[float] | int = 11,
) -> ConvexityGapReport:
    """Midpoint-style matrix convexity of θ ↦ H(θ) on a t-grid in [0, 1].

    A ``t_grid`` that is a count (:func:`~.floatlaw._count`) is that many
    evenly spaced points.  Each gap is the circulant of one row g, the same
    combination of the rows of H(θ₁), H(θ₂) and H(tθ₁ + (1−t)θ₂), and the
    eigenvalues of its symmetric part are the cosine sums
    ``Σ_t g_t·cos(2πjt/N)``, j = 0 … N//2, over a table kept for each N.
    """
    from .schur import _grid

    for name, bound in (("theta1", theta1), ("theta2", theta2)):
        if not math.isfinite(bound):
            raise ValueError(f"{name} = {bound} is not finite")
    if isinstance(t_grid, str) or not hasattr(t_grid, "__iter__"):  # a count: a str is no grid
        points = _count(t_grid, "t_grid", 0)
        ts = _grid(0.0, 1.0, points) if points > 1 else [0.0] * points
    else:
        ts = [float(t) for t in t_grid]
    if not ts:
        raise ValueError("t grid must have at least one point")
    if not all(0 <= t <= 1 for t in ts):  # a NaN fails both comparisons
        raise ValueError("t grid must lie in [0, 1]")
    r1, r2 = _hessian_row(fam, theta1), _hessian_row(fam, theta2)
    cosines = _cosines(fam.n)
    eigs = []
    for t in ts:
        rt = _hessian_row(fam, t * theta1 + (1 - t) * theta2)
        gap = [t * a + (1 - t) * b - c for a, b, c in zip(r1, r2, rt)]
        eigs.append(min(sum(map(mul, cos, gap)) for cos in cosines))
    return ConvexityGapReport(theta1, theta2, tuple(ts), tuple(eigs))


# ---------------------------------------------------------------------------
# strict-convexity witness


def _symmetric_eigenvalues(a: Matrix) -> list[float]:
    """Eigenvalues of a symmetric matrix, read from its lower triangle, by
    cyclic Jacobi rotations (Golub and Van Loan, *Matrix Computations*,
    §8.5), until the off-diagonal part is below ε·‖a‖_F."""
    n = len(a)
    a = [[a[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)]
    for _ in range(50):  # the convergence is quadratic: a few sweeps suffice
        off = sum(a[i][j] ** 2 for i in range(n) for j in range(i))
        if off <= sys.float_info.epsilon**2 * sum(x * x for row in a for x in row):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if apq == 0:
                    continue
                tau = (a[q][q] - a[p][p]) / (2 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1 / math.hypot(1.0, t)
                s = t * c
                for k in range(n):
                    if k != p and k != q:
                        akp, akq = a[k][p], a[k][q]
                        a[k][p] = a[p][k] = c * akp - s * akq
                        a[k][q] = a[q][k] = s * akp + c * akq
                a[p][p] -= t * apq
                a[q][q] += t * apq
                a[p][q] = a[q][p] = 0.0
    return sorted(a[i][i] for i in range(n))


class StrictWitnessReport(NamedTuple):
    """Strict-convexity witness for one exponential term on an interval."""

    term_index: int
    witness: float  # ‖P_B C_s P_B‖₂
    min_second_difference: float
    curvature_floor: float  # min d²κ / h²
    strict: bool


def strict_convexity_witness(
    fam: HessianFamily,
    term_index: int,
    theta_min: float,
    theta_max: float,
    points: int = 101,
) -> StrictWitnessReport:
    """Witness ‖P_B C_{s}P_B‖₂ for a chosen term plus the observed κ curvature
    floor on the interval; ``strict`` when the witness exceeds WITNESS_TOL =
    1e-12 and the floor is positive.  With Q the :func:`band_basis`,
    P_B C P_B = Q·(QᵀCQ)·Qᵀ has the nonzero spectrum of QᵀCQ, whose
    eigenvalues :func:`_symmetric_eigenvalues` finds."""
    from .schur import kappa_convexity_scan

    term_index = _count(term_index, "term_index", 0)
    if term_index >= len(fam.terms):
        raise ValueError(f"term index {term_index} out of range")
    term = fam.terms[term_index]
    if term.s == 0:
        raise ValueError("witness term must have a nonzero exponent")
    q = band_basis(fam.split)
    witness = max(map(abs, _symmetric_eigenvalues(_matmul(list(zip(*q)), circulant(term.c), q))))
    scan = kappa_convexity_scan(fam, theta_min, theta_max, points)
    h = (theta_max - theta_min) / (len(scan.thetas) - 1)
    floor = scan.min_second_difference / (h * h)
    strict = witness > WITNESS_TOL and scan.min_second_difference > 0
    return StrictWitnessReport(term_index, witness, scan.min_second_difference, floor, strict)
