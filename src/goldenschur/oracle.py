"""Second routes, kept only to check the library's one route to each quantity.

``verify``, the tests and the demos compare each library route with the
independent route here.  Each oracle, and the library route it checks:

* :func:`sums_bruteforce`, direct summation: the closed forms of
  :func:`.folded.sums_closed`, exactly for exact q.  For a Fraction
  ``q = a/b`` the terms ``s^k·a^s·b^{N−s}`` are summed as integers over the
  one denominator ``b^N``, which is divided out once per sum.
* :func:`moments_from_sums`, ``I_k = S_k/S₀`` by field division of given
  sums: the integer numerator routes of :func:`.folded.moments`.
* :func:`theta_derivatives_fd`, central differences of direct sums in θ:
  ``var`` and ``i2_prime`` of :func:`.folded.moments`.
* :func:`fibonacci`, fast doubling in O(log n) steps, not the table's
  three-term recurrence: ``a_m = F_{2m}`` and ``b_m = −F_{2m−2}`` in the
  rows of :func:`.golden.golden_power_table`.
* :func:`sums_at_qstar`, integer sums over those rows with no field
  division: ``sums_closed(N, QSTAR)``, and so :func:`.golden.lambda_n`.
* :func:`f_red_prime_direct_q`, the chain rule on :func:`.lockin.f_red_q`:
  the bracket form :func:`.lockin.f_red_prime_q`, which differs from it by
  exactly ``B·I₂′·(I₁ − 1)/N``.
* :func:`exact_sign_changes`, the exact signs of :func:`.lockin.f_red_prime_q`
  at q = k/64: the number and place of F′_red's zeros that
  :func:`.lockin.stationarity_check` decides from the monotonicity of Λ.
* :func:`dense_curvature`, the trace of the dense Schur complement
  (:func:`assemble_hessian`, :func:`band_basis`, :func:`block_hessian`,
  :func:`schur_complement`): the spectral :func:`.schur.schur_curvature`.
* :func:`exact_kappa`, κ_Schur in Fractions from the stored rows and the
  raw collective direction: the float kernel of
  :func:`.schur.schur_curvature` at the same float weights, which the tests
  hold to 4 ulps of it on fixed draws (random draws reach about 5).
* :func:`variational_check`: the Schur complement as the Loewner minimum of
  :func:`variational_expression` over couplings Y.
* :func:`matrix_convexity_check`: the Loewner convexity of θ ↦ H(θ) that
  validation implies, since each ``e^{sθ}·C`` with C ⪰ 0 is convex.
* :func:`shift_matrix` and :func:`reversal_matrix`, the dense generators of
  D_N: the index-based commutator norms of family validation.

Both Loewner checks are stacked: the matrices of all trials, or of all grid
points, form one array, diagonalized by one ``eigvalsh`` call.

Importing this module loads only the standard library; the matrix oracles
import numpy where they run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .folded import FoldedMoments, FoldedSums, Scalar, _check_domain, sums_closed
from .golden import golden_power_table
from .lockin import QuadLawCoeffs, _route, f_red_prime_q
from .qfield import QSTAR, GoldenBasis, Q5

if TYPE_CHECKING:
    import numpy as np
    from .schur import FloatArray, HessianFamily, SplitGeometry

__all__ = [
    "sums_bruteforce", "moments_from_sums", "theta_derivatives_fd", "fibonacci", "sums_at_qstar",
    "f_red_prime_direct_q", "exact_sign_changes", "shift_matrix", "reversal_matrix", "band_basis",
    "assemble_hessian", "BlockHessian", "block_hessian", "schur_complement",
    "dense_curvature", "exact_kappa", "variational_expression", "VariationalReport",
    "variational_check", "ConvexityGapReport", "matrix_convexity_check", "LOEWNER_TOL",
]

#: Loewner slack of the variational and matrix-convexity checks.
LOEWNER_TOL = 1e-10


# ---------------------------------------------------------------------------
# exact and float scalar oracles


def sums_bruteforce(n: int, q: Scalar) -> FoldedSums:
    """Direct summation — the oracle the closed forms are tested against.

    A Fraction ``q = a/b`` sums the integers ``s^k·a^s·b^{N−s}`` (Horner in b)
    and divides by ``b^N`` once per sum; other scalars sum ``s^k·q^s`` as is.
    """
    _check_domain(n, q)
    if type(q) is Fraction:
        a, b = q.numerator, q.denominator
        h0 = h1 = h2 = h3 = 0
        p = 1
        for s in range(1, n + 1):
            p *= a
            h0 = h0 * b + p
            h1 = h1 * b + s * p
            h2 = h2 * b + s * s * p
            h3 = h3 * b + s**3 * p
        bn = b**n
        return FoldedSums(n, q, *(Fraction(h, bn) for h in (h0, h1, h2, h3)))
    s0 = s1 = s2 = s3 = 0 * q
    p = q * 0 + 1  # multiplicative identity of the scalar type
    for s in range(1, n + 1):
        p = p * q
        s0 = s0 + p
        s1 = s1 + s * p
        s2 = s2 + s * s * p
        s3 = s3 + s**3 * p
    return FoldedSums(n, q, s0, s1, s2, s3)


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
    _check_domain(n, qf)
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
    if n < -2:
        raise ValueError(f"index must be >= -2, got {n}")
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
    _check_domain(n, QSTAR)
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
    m = moments_from_sums(sums_closed(n, qq))
    kappa_p = b * m.i2_prime + (2 * a - 2 * b) * m.i1 * m.var
    return -8 * m.i1 * m.var / (n * m2) + kappa_p / n


def exact_sign_changes(coeffs: QuadLawCoeffs) -> list[tuple[Fraction, Fraction]]:
    """The q-intervals ``(k/64, j/64)`` over which F′_red changes sign: a flip
    between consecutive nonzero values at q = k/64, k = 1..63.  Coefficients
    are exact and each q is a Fraction, so every value is exact.  A zero on
    the grid is spanned by the flip around it; a zero in (0, 1/64) or
    (63/64, 1) is not seen."""
    intervals = []
    last, last_positive = None, False
    for k in range(1, 64):
        q = Fraction(k, 64)
        value = f_red_prime_q(coeffs, q)
        if value == 0:
            continue
        if last is not None and (value > 0) != last_positive:
            intervals.append((last, q))
        last, last_positive = q, value > 0
    return intervals


# ---------------------------------------------------------------------------
# dense matrix oracles


def shift_matrix(n: int) -> FloatArray:
    """Cyclic shift permutation ``(Sx)_i = x_{(i+1) mod n}``."""
    import numpy as np
    s = np.zeros((n, n))
    s[np.arange(n), (np.arange(n) + 1) % n] = 1.0
    return s


def reversal_matrix(n: int) -> FloatArray:
    """Index reversal ``(Rx)_i = x_{(n−i) mod n}``."""
    import numpy as np
    r = np.zeros((n, n))
    r[np.arange(n), (n - np.arange(n)) % n] = 1.0
    return r


def band_basis(split: SplitGeometry) -> FloatArray:
    """(n, n−2) orthonormal columns spanning B = span{1, u}^⊥."""
    import numpy as np
    rows = np.vstack([np.full(split.n, 1.0 / math.sqrt(split.n)), split.u])
    # the two rows are orthonormal, so the last n − 2 right singular vectors
    # span their null space exactly
    return np.linalg.svd(rows, full_matrices=True)[2][2:].T


def _assemble_hessians(fam: HessianFamily, thetas: Sequence[float]) -> FloatArray:
    """``H(θ)`` for each θ, stacked (len(thetas) × n × n).  The weights come
    from ``math.exp`` and the terms are added in order, so each matrix has the
    same bits whatever the other θ of the stack."""
    import numpy as np
    w = np.array([[math.exp(t.s * theta) for t in fam.terms] for theta in thetas])
    h = np.tile(fam.c0, (len(thetas), 1, 1))
    for k, t in enumerate(fam.terms):
        h = h + w[:, k, None, None] * t.coef
    return h


def assemble_hessian(fam: HessianFamily, theta: float) -> FloatArray:
    """``H(θ) = C₀ + Σ e^{sθ}·C_s``."""
    return _assemble_hessians(fam, [theta])[0]


@dataclass(frozen=True, eq=False)
class BlockHessian:
    """H in the orthonormal (band ⊕ collective) frame."""

    h_bb: FloatArray  # (n−2, n−2)
    h_bo: FloatArray  # (n−2, 1)
    h_oo: FloatArray  # (1, 1)

    @property
    def h_ob(self) -> FloatArray:
        return self.h_bo.T


def block_hessian(fam: HessianFamily, theta: float) -> BlockHessian:
    import numpy as np
    h = assemble_hessian(fam, theta)
    qb = band_basis(fam.split)
    u = np.asarray(fam.split.u)[:, None]
    return BlockHessian(qb.T @ h @ qb, qb.T @ h @ u, u.T @ h @ u)


def schur_complement(
    h_bb: FloatArray, h_bo: FloatArray, h_oo: FloatArray, *, context: str = ""
) -> FloatArray:
    """``H_BB − H_BO H_OO⁻¹ H_OB`` for the 1×1 collective block ``H_OO``.

    The block is rejected as numerically singular unless it exceeds
    ``‖H‖_F / COND_LIMIT``, with ``‖H‖_F`` taken over the three blocks.
    """
    import numpy as np

    from .schur import COND_LIMIT

    if h_oo.shape != (1, 1):
        raise ValueError(f"collective block must be 1x1, got shape {h_oo.shape}")
    h = float(h_oo[0, 0])
    scale = math.sqrt(float(np.vdot(h_bb, h_bb) + 2 * np.vdot(h_bo, h_bo)) + h * h)
    if not h > scale / COND_LIMIT:
        where = f" at {context}" if context else ""
        raise ValueError(
            f"collective block is numerically singular{where} "
            f"(h_oo = {h:.3e}, ‖H‖_F = {scale:.3e})"
        )
    return h_bb - h_bo @ np.linalg.solve(h_oo, h_bo.T)


def dense_curvature(fam: HessianFamily, theta: float) -> float:
    """κ_Schur at θ from the dense band/collective blocks: the oracle route of
    :func:`.schur.schur_curvature`."""
    import numpy as np
    blocks = block_hessian(fam, theta)
    s = schur_complement(blocks.h_bb, blocks.h_bo, blocks.h_oo, context=f"theta={theta:g}")
    return float(np.trace(s)) / fam.split.dim_band


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


def variational_expression(blocks: BlockHessian, y: FloatArray) -> FloatArray:
    """``H_BB + H_BO Y + Yᵀ H_OB + Yᵀ H_OO Y`` for a coupling ``Y`` (1 × n−2),
    or for each coupling of a stack of them (trials × 1 × n−2)."""
    yt = y.swapaxes(-1, -2)
    return blocks.h_bb + blocks.h_bo @ y + yt @ blocks.h_ob + yt @ blocks.h_oo @ y


@dataclass(frozen=True)
class VariationalReport:
    """Outcome of the completing-the-square check at one θ."""

    theta: float
    minimizer_gap: float  # ‖expression(Y⋆) − Schur complement‖₂
    min_loewner_eig: float  # worst min-eigenvalue of expression(Y) − Schur over trials
    trials: int

    def passed(self) -> bool:
        return self.minimizer_gap <= LOEWNER_TOL and self.min_loewner_eig >= -LOEWNER_TOL


def variational_check(
    fam: HessianFamily,
    theta: float,
    *,
    trials: int = 100,
    rng: np.random.Generator,
) -> VariationalReport:
    """Check that Y⋆ = −H_OO⁻¹H_OB attains the Schur complement and that every
    random coupling dominates it in the Loewner order.

    The ``trials`` couplings are drawn as one (trials × 1 × n−2) array, the
    same normal stream as one draw per trial, and their expressions minus the
    Schur complement go to one stacked ``eigvalsh`` call.
    """
    import numpy as np
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    blocks = block_hessian(fam, theta)
    schur = schur_complement(blocks.h_bb, blocks.h_bo, blocks.h_oo, context=f"theta={theta:g}")
    y_star = -np.linalg.solve(blocks.h_oo, blocks.h_ob)
    gap = float(np.linalg.norm(variational_expression(blocks, y_star) - schur, 2))
    ys = rng.standard_normal((trials, *y_star.shape))
    diff = variational_expression(blocks, ys) - schur
    w = np.linalg.eigvalsh((diff + diff.swapaxes(-1, -2)) / 2)
    return VariationalReport(theta, gap, min(w[:, 0].tolist()), trials)


# ---------------------------------------------------------------------------
# matrix convexity in θ


@dataclass(frozen=True)
class ConvexityGapReport:
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

    H(θ₁), H(θ₂) and every H(tθ₁ + (1−t)θ₂) are built in one stack, and the
    gaps of all grid points are diagonalized by one ``eigvalsh`` call.
    """
    import numpy as np
    for name, bound in (("theta1", theta1), ("theta2", theta2)):
        if not math.isfinite(bound):
            raise ValueError(f"{name} = {bound} is not finite")
    if isinstance(t_grid, int):
        ts = np.linspace(0.0, 1.0, t_grid)
    else:
        ts = np.asarray(list(t_grid), dtype=float)
    if ts.size == 0:
        raise ValueError("t grid must have at least one point")
    if not np.all((ts >= 0) & (ts <= 1)):  # a NaN fails both comparisons
        raise ValueError("t grid must lie in [0, 1]")
    hs = _assemble_hessians(fam, [theta1, theta2, *(ts * theta1 + (1 - ts) * theta2).tolist()])
    t = ts[:, None, None]
    gaps = t * hs[0] + (1 - t) * hs[1] - hs[2:]
    w = np.linalg.eigvalsh((gaps + gaps.swapaxes(-1, -2)) / 2)
    return ConvexityGapReport(theta1, theta2, tuple(ts.tolist()), tuple(w[:, 0].tolist()))
