"""D_N-equivariant Hessian families, band/collective split, Schur curvature.

A Hessian family is the PSD exponential sum ``H(θ) = C₀ + Σ_s e^{sθ}·C_s``
where every coefficient matrix is symmetric positive semidefinite and
commutes with the dihedral group D_N (cyclic shift + index reversal), i.e.
is a symmetric circulant.  The tangent space of the weight simplex splits
into a one-dimensional collective direction ``u`` (mean-removed, unit norm)
and the band complement ``B = span{1, u}^⊥`` of dimension N − 2, with
projector ``P_B = I − 11ᵀ/N − uuᵀ``.

The central quantity is the band-normalized Schur curvature

    κ_Schur(θ) = Tr(H_BB − H_BO H_OO⁻¹ H_OB) / dim B,

together with its variational characterization (the Schur complement is the
minimum of ``H_BB + H_BO Y + Yᵀ H_OB + Yᵀ H_OO Y`` over couplings ``Y`` in
the Loewner order) and convexity diagnostics in θ.

Because ``H_OO`` is 1×1, κ_Schur reduces to three scalars of ``H(θ)``, each a
form in the weights ``(1, e^{s₁θ}, …)`` over K×K data computed once per
family: a whole θ-grid then costs O(K²) per point, independent of N.  The
dense blocks (:func:`block_hessian`, :func:`schur_complement`) are the oracle
for that route.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .folded import folded_weights

__all__ = [
    "FamilyValidationError",
    "SplitGeometry",
    "build_split",
    "ExpTerm",
    "HessianFamily",
    "make_family",
    "circulant",
    "shift_matrix",
    "reversal_matrix",
    "random_symmetric_psd_circulant",
    "random_family",
    "family_from_dict",
    "load_family",
    "assemble_hessian",
    "BlockHessian",
    "block_hessian",
    "schur_complement",
    "schur_curvature",
    "variational_expression",
    "VariationalReport",
    "variational_check",
    "ConvexityGapReport",
    "matrix_convexity_check",
    "CurvatureScan",
    "kappa_convexity_scan",
    "StrictWitnessReport",
    "strict_convexity_witness",
    "q_class_functional",
    "q_class_functional_from_weights",
]

FloatArray = NDArray[np.float64]

#: Loewner / symmetry slack for validated families.
PSD_TOL = 1e-10
SYM_TOL = 1e-10
EQUIVARIANCE_TOL = 1e-10
#: Collective block guard: H_OO must exceed ‖H‖/COND_LIMIT.
COND_LIMIT = 1e12


class FamilyValidationError(ValueError):
    """Raised with the full list of violations found in a family."""

    def __init__(self, violations: Sequence[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


# ---------------------------------------------------------------------------
# circulant / dihedral helpers


def circulant(generator: Sequence[float]) -> FloatArray:
    """Circulant matrix ``C[i, j] = g[(j − i) mod n]`` from a generator row."""
    g = np.asarray(generator, dtype=float)
    n = g.shape[0]
    idx = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    return g[idx]


def shift_matrix(n: int) -> FloatArray:
    """Cyclic shift permutation ``(Sx)_i = x_{(i+1) mod n}``."""
    s = np.zeros((n, n))
    s[np.arange(n), (np.arange(n) + 1) % n] = 1.0
    return s


def reversal_matrix(n: int) -> FloatArray:
    """Index reversal ``(Rx)_i = x_{(n−i) mod n}``."""
    r = np.zeros((n, n))
    r[np.arange(n), (n - np.arange(n)) % n] = 1.0
    return r


# ---------------------------------------------------------------------------
# split geometry


@dataclass(frozen=True, eq=False)
class SplitGeometry:
    """Band/collective orthogonal split of the N-point tangent space."""

    n: int
    m_rho_sq: float
    u: FloatArray  # unit-norm, mean-zero collective direction
    p_band: FloatArray  # projector onto B = span{1, u}^⊥
    band_basis: FloatArray  # (n, n−2) orthonormal columns spanning B

    @property
    def dim_band(self) -> int:
        return self.n - 2


def build_split(n: int, m_rho_sq: float, u_raw: Sequence[float]) -> SplitGeometry:
    """Build the split from a raw collective direction.

    ``u_raw`` is shifted to mean zero and normalized; a direction parallel to
    the uniform vector (or zero) is rejected since the collective mode would
    collapse onto the simplex constraint.
    """
    if n < 3:
        raise ValueError(f"split needs n >= 3 (band dimension n-2 > 0), got n={n}")
    if not m_rho_sq > 0:
        raise ValueError(f"m_rho_sq must be positive, got {m_rho_sq}")
    v = np.asarray(u_raw, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"collective direction must have shape ({n},), got {v.shape}")
    scale = float(np.linalg.norm(v))
    v = v - v.mean()
    nrm = float(np.linalg.norm(v))
    if nrm <= 1e-12 * max(scale, 1.0):
        raise ValueError("collective direction is parallel to the uniform vector")
    u = v / nrm
    p_band = np.eye(n) - np.full((n, n), 1.0 / n) - np.outer(u, u)
    rows = np.vstack([np.full(n, 1.0 / math.sqrt(n)), u])
    # the two rows are orthonormal, so the last n − 2 right singular vectors
    # span their null space exactly
    basis = np.linalg.svd(rows, full_matrices=True)[2][2:].T
    if basis.shape != (n, n - 2):
        raise ValueError(f"band basis has unexpected shape {basis.shape}")
    return SplitGeometry(n, float(m_rho_sq), u, p_band, basis)


# ---------------------------------------------------------------------------
# families


@dataclass(frozen=True, eq=False)
class ExpTerm:
    """One exponential term ``e^{sθ}·C`` of the Hessian sum."""

    s: float
    coef: FloatArray


@dataclass(frozen=True, eq=False)
class HessianFamily:
    """PSD exponential-sum Hessian family with its band/collective split."""

    split: SplitGeometry
    c0: FloatArray
    terms: tuple[ExpTerm, ...]

    @property
    def n(self) -> int:
        return self.split.n

    @cached_property
    def _gram(self) -> _SchurGram:
        """K×K data of the rank-one Schur identity, built once per family."""
        n = self.n
        u = self.split.u
        coefs = [self.c0] + [t.coef for t in self.terms]
        cu = np.array([c @ u for c in coefs])
        c1 = np.array([c @ np.ones(n) for c in coefs])
        total = c1.sum(axis=1)  # 1ᵀC_k1
        a = cu @ u
        b = np.array([np.trace(c) for c in coefs]) - total / n - a
        # P_B x = x − mean(x)·1 − (uᵀx)·u; projected first, so the Gram matrix
        # is PSD by construction
        v = cu - cu.mean(axis=1, keepdims=True) - a[:, None] * u
        inner = np.array([[np.vdot(cj, ck) for ck in coefs] for cj in coefs])
        frob = inner - 2 * (c1 @ c1.T) / n + np.outer(total, total) / (n * n)
        return _SchurGram(a, b, v @ v.T, frob)


def _validate_coef(name: str, c: FloatArray, n: int, violations: list[str]) -> None:
    if c.shape != (n, n):
        violations.append(f"{name}: shape {c.shape} != ({n}, {n})")
        return
    scale = max(1.0, float(np.linalg.norm(c)))
    asym = float(np.max(np.abs(c - c.T)))
    if asym > SYM_TOL * scale:
        violations.append(f"{name}: not symmetric (max |C - C^T| = {asym:.3e})")
        return
    w = np.linalg.eigvalsh((c + c.T) / 2)
    if w[0] < -PSD_TOL * scale:
        violations.append(f"{name}: not PSD (min eigenvalue = {w[0]:.3e})")
    # C·S − S·C and C·R − R·C by indexing: right-multiplying by a permutation
    # permutes columns, left-multiplying permutes rows
    rev = (n - np.arange(n)) % n
    cs = float(np.linalg.norm(np.roll(c, 1, axis=1) - np.roll(c, -1, axis=0)))
    cr = float(np.linalg.norm(c[:, rev] - c[rev, :]))
    if cs > EQUIVARIANCE_TOL * scale or cr > EQUIVARIANCE_TOL * scale:
        violations.append(
            f"{name}: not dihedral-equivariant "
            f"(shift commutator norm = {cs:.3e}, reversal commutator norm = {cr:.3e})"
        )


def make_family(
    n: int,
    m_rho_sq: float,
    u_raw: Sequence[float],
    c0: Sequence[Sequence[float]],
    terms: Sequence[tuple[float, Sequence[Sequence[float]]]],
    *,
    validate: bool = True,
) -> HessianFamily:
    """Assemble and (by default) validate a Hessian family.

    Validation collects *all* violations — asymmetry, indefiniteness, broken
    equivariance, bad shapes — and raises one :class:`FamilyValidationError`
    listing every offender.  ``validate=False`` is the escape hatch for
    negative-control experiments.
    """
    split = build_split(n, m_rho_sq, u_raw)
    c0a = np.asarray(c0, dtype=float)
    built = tuple(ExpTerm(float(s), np.asarray(c, dtype=float)) for s, c in terms)
    if validate:
        violations: list[str] = []
        _validate_coef("C0", c0a, n, violations)
        for k, t in enumerate(built):
            if not math.isfinite(t.s):
                violations.append(f"terms[{k}]: exponent s = {t.s} is not finite")
            _validate_coef(f"terms[{k}].C (s={t.s:g})", t.coef, n, violations)
        if violations:
            raise FamilyValidationError(violations)
    return HessianFamily(split, c0a, built)


def random_symmetric_psd_circulant(
    n: int, rng: np.random.Generator, scale: float = 1.0
) -> FloatArray:
    """Random symmetric PSD circulant ``A·Aᵀ/n`` from a random circulant A."""
    a = circulant(rng.standard_normal(n))
    c = a @ a.T / n
    return scale * (c + c.T) / 2


def random_family(
    n: int,
    rng: np.random.Generator,
    *,
    n_terms: int = 2,
    m_rho_sq: float = 2.0,
    ridge: float = 0.5,
) -> HessianFamily:
    """Random validated family; the ridge keeps ``H_OO`` well conditioned."""
    u_raw = rng.standard_normal(n)
    while np.linalg.norm(u_raw - u_raw.mean()) < 1e-6:
        u_raw = rng.standard_normal(n)
    c0 = random_symmetric_psd_circulant(n, rng) + ridge * np.eye(n)
    terms = []
    for _ in range(n_terms):
        s = float(rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0]))
        terms.append((s, random_symmetric_psd_circulant(n, rng)))
    return make_family(n, m_rho_sq, u_raw, c0, terms)


# ---------------------------------------------------------------------------
# family file format


def _matrix_from_spec(obj: object, n: int, name: str) -> FloatArray:
    """Decode a matrix entry: circulant generator, nested rows, or flat row-major."""
    if isinstance(obj, dict):
        if set(obj.keys()) != {"circulant"}:
            raise ValueError(f"{name}: matrix object must have exactly the key 'circulant'")
        g = obj["circulant"]
        if not isinstance(g, list) or len(g) != n:
            raise ValueError(f"{name}: circulant generator must be a list of {n} numbers")
        return circulant([float(x) for x in g])
    if isinstance(obj, list):
        if len(obj) == n and all(isinstance(row, list) for row in obj):
            return np.asarray(obj, dtype=float)
        if len(obj) == n * n and not any(isinstance(x, list) for x in obj):
            return np.asarray(obj, dtype=float).reshape(n, n)
        raise ValueError(f"{name}: expected {n} rows of {n} numbers or a flat list of {n * n}")
    raise ValueError(f"{name}: unsupported matrix encoding {type(obj).__name__}")


def family_from_dict(data: dict, *, validate: bool = True) -> HessianFamily:
    """Build a family from the JSON document form.

    Schema: ``{"N": int, "m_rho_sq": number, "u": [numbers], "C0": matrix,
    "terms": [{"s": number, "C": matrix}]}`` where a matrix is either dense
    (nested rows or flat row-major) or ``{"circulant": [generator]}``.
    """
    required = {"N", "m_rho_sq", "u", "C0", "terms"}
    missing = required - set(data.keys())
    if missing:
        raise ValueError(f"family document missing keys: {sorted(missing)}")
    n = data["N"]
    if not isinstance(n, int) or n < 3:
        raise ValueError(f"N must be an integer >= 3, got {n!r}")
    u = data["u"]
    if not isinstance(u, list) or len(u) != n:
        raise ValueError(f"u must be a list of {n} numbers")
    c0 = _matrix_from_spec(data["C0"], n, "C0")
    if not isinstance(data["terms"], list):
        raise ValueError("terms must be a list of {'s', 'C'} objects")
    terms = []
    for k, entry in enumerate(data["terms"]):
        if not isinstance(entry, dict) or set(entry.keys()) != {"s", "C"}:
            raise ValueError(f"terms[{k}]: expected an object with exactly keys 's' and 'C'")
        terms.append((float(entry["s"]), _matrix_from_spec(entry["C"], n, f"terms[{k}].C")))
    return make_family(
        n, float(data["m_rho_sq"]), [float(x) for x in u], c0, terms, validate=validate
    )


def load_family(path: str | Path, *, validate: bool = True) -> HessianFamily:
    """Load a family from a JSON file (see :func:`family_from_dict`)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top-level JSON value must be an object")
    return family_from_dict(data, validate=validate)


# ---------------------------------------------------------------------------
# assembly and Schur curvature


def assemble_hessian(fam: HessianFamily, theta: float) -> FloatArray:
    """``H(θ) = C₀ + Σ e^{sθ}·C_s``."""
    h = fam.c0.copy()
    for t in fam.terms:
        h = h + math.exp(t.s * theta) * t.coef
    return h


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
    h = assemble_hessian(fam, theta)
    qb = fam.split.band_basis
    u = fam.split.u[:, None]
    return BlockHessian(qb.T @ h @ qb, qb.T @ h @ u, u.T @ h @ u)


def schur_complement(
    h_bb: FloatArray, h_bo: FloatArray, h_oo: FloatArray, *, context: str = ""
) -> FloatArray:
    """``H_BB − H_BO H_OO⁻¹ H_OB`` for the 1×1 collective block ``H_OO``.

    The block is rejected as numerically singular unless it exceeds
    ``‖H‖_F / COND_LIMIT``, with ``‖H‖_F`` taken over the three blocks.
    """
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


@dataclass(frozen=True, eq=False)
class _SchurGram:
    """Coefficient data of the rank-one identity for κ_Schur, K = 1 + len(terms).

    With weights ``w(θ) = (1, e^{s₁θ}, …)`` and ``H = Σ w_k C_k``, the
    collective block is ``h = a·w``, the band trace ``t = Tr(P_B H) = b·w``,
    the coupling ``g = ‖P_B H u‖² = wᵀ·gram·w`` and the guard's
    ``‖P H P‖_F² = wᵀ·frob·w`` (P = I − 11ᵀ/N, so the band and collective
    blocks together); then ``κ = (t − g/h)/(N − 2)``.
    """

    a: FloatArray  # uᵀC_k u
    b: FloatArray  # Tr C_k − 1ᵀC_k1/N − a_k
    gram: FloatArray  # (P_B C_j u)·(P_B C_k u)
    frob: FloatArray  # ⟨P C_j P, P C_k P⟩ for symmetric C_j, C_k


def _curvatures(fam: HessianFamily, thetas: Sequence[float]) -> FloatArray:
    """κ_Schur at each θ from the family's :class:`_SchurGram`.

    Raises the dense route's errors in grid order: ``OverflowError`` from
    ``math.exp``, or the singular-block ``ValueError`` of
    :func:`schur_complement` at the first θ whose ``h ≤ ‖P H P‖_F/COND_LIMIT``.
    """
    rows = []
    for theta in thetas:
        try:
            rows.append([1.0] + [math.exp(t.s * theta) for t in fam.terms])
        except OverflowError:
            _curvatures(fam, thetas[: len(rows)])  # a singular block earlier in the grid wins
            raise
    w = np.array(rows).reshape(len(rows), 1 + len(fam.terms))
    gram = fam._gram
    # Elementwise products summed per row, so that a θ gives the same bits
    # alone or inside a grid (a matmul may change its summation order with
    # the number of rows).  An overflow to inf is reported by the guard, as on
    # the dense route; ‖P H P‖_F ≥ |h|, and fmax keeps that floor where the
    # quadratic form overflows to nan.
    with np.errstate(over="ignore", invalid="ignore"):
        h = (w * gram.a).sum(axis=1)
        wjk = w[:, :, None] * w[:, None, :]
        scale = np.sqrt(np.fmax((wjk * gram.frob).sum(axis=(1, 2)), h * h))
    singular = ~(h > scale / COND_LIMIT)
    if singular.any():
        i = int(np.argmax(singular))
        raise ValueError(
            f"collective block is numerically singular at theta={thetas[i]:g} "
            f"(h_oo = {h[i]:.3e}, ‖H‖_F = {scale[i]:.3e})"
        )
    g = (wjk * gram.gram).sum(axis=(1, 2))
    return ((w * gram.b).sum(axis=1) - g / h) / fam.split.dim_band


def schur_curvature(fam: HessianFamily, theta: float) -> float:
    """Band-normalized trace of the Schur complement at θ (rank-one route).

    :func:`block_hessian` and :func:`schur_complement` give the same value
    from dense blocks; they are kept as the oracle.
    """
    return float(_curvatures(fam, [theta])[0])


# ---------------------------------------------------------------------------
# variational characterization


def variational_expression(blocks: BlockHessian, y: FloatArray) -> FloatArray:
    """``H_BB + H_BO Y + Yᵀ H_OB + Yᵀ H_OO Y`` for a coupling ``Y`` (1 × n−2)."""
    return blocks.h_bb + blocks.h_bo @ y + y.T @ blocks.h_ob + y.T @ blocks.h_oo @ y


@dataclass(frozen=True)
class VariationalReport:
    """Outcome of the completing-the-square check at one θ."""

    theta: float
    minimizer_gap: float  # ‖expression(Y⋆) − Schur complement‖₂
    min_loewner_eig: float  # worst min-eigenvalue of expression(Y) − Schur over trials
    trials: int

    def passed(self, tol: float = 1e-10) -> bool:
        return self.minimizer_gap <= tol and self.min_loewner_eig >= -tol


def variational_check(
    fam: HessianFamily,
    theta: float,
    *,
    trials: int = 100,
    rng: np.random.Generator | None = None,
) -> VariationalReport:
    """Check that Y⋆ = −H_OO⁻¹H_OB attains the Schur complement and that every
    random coupling dominates it in the Loewner order."""
    if rng is None:
        rng = np.random.default_rng(0)
    blocks = block_hessian(fam, theta)
    schur = schur_complement(blocks.h_bb, blocks.h_bo, blocks.h_oo, context=f"theta={theta:g}")
    y_star = -np.linalg.solve(blocks.h_oo, blocks.h_ob)
    gap = float(np.linalg.norm(variational_expression(blocks, y_star) - schur, 2))
    worst = math.inf
    for _ in range(trials):
        y = rng.standard_normal(y_star.shape)
        diff = variational_expression(blocks, y) - schur
        w = np.linalg.eigvalsh((diff + diff.T) / 2)
        worst = min(worst, float(w[0]))
    return VariationalReport(theta, gap, worst, trials)


# ---------------------------------------------------------------------------
# convexity diagnostics


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

    def passed(self, tol: float = 1e-10) -> bool:
        return self.min_eig >= -tol


def matrix_convexity_check(
    fam: HessianFamily,
    theta1: float,
    theta2: float,
    t_grid: Sequence[float] | int = 11,
) -> ConvexityGapReport:
    """Midpoint-style matrix convexity of θ ↦ H(θ) on a t-grid in [0, 1]."""
    if isinstance(t_grid, int):
        ts = np.linspace(0.0, 1.0, t_grid)
    else:
        ts = np.asarray(list(t_grid), dtype=float)
    if np.any(ts < 0) or np.any(ts > 1):
        raise ValueError("t grid must lie in [0, 1]")
    h1 = assemble_hessian(fam, theta1)
    h2 = assemble_hessian(fam, theta2)
    eigs = []
    for t in ts:
        gap = t * h1 + (1 - t) * h2 - assemble_hessian(fam, t * theta1 + (1 - t) * theta2)
        w = np.linalg.eigvalsh((gap + gap.T) / 2)
        eigs.append(float(w[0]))
    return ConvexityGapReport(theta1, theta2, tuple(float(t) for t in ts), tuple(eigs))


@dataclass(frozen=True)
class CurvatureScan:
    """κ_Schur sampled on a uniform θ-grid with its second differences."""

    thetas: tuple[float, ...]
    kappas: tuple[float, ...]
    second_differences: tuple[float, ...]
    violations: tuple[int, ...]  # interior indices failing the relative bound

    @property
    def min_second_difference(self) -> float:
        return min(self.second_differences) if self.second_differences else 0.0

    @property
    def convex_ok(self) -> bool:
        return not self.violations


def kappa_convexity_scan(
    fam: HessianFamily,
    theta_min: float,
    theta_max: float,
    points: int = 101,
    *,
    tol: float = 1e-8,
) -> CurvatureScan:
    """Centered second differences of κ_Schur; a violation is a second
    difference below ``−tol·max(1, |κ|)`` at its center point."""
    if points < 3:
        raise ValueError("scan needs at least 3 grid points")
    if not theta_min < theta_max:
        raise ValueError("need theta_min < theta_max")
    thetas = np.linspace(theta_min, theta_max, points)
    kappas = _curvatures(fam, thetas)
    d2 = kappas[2:] - 2 * kappas[1:-1] + kappas[:-2]
    bad = tuple(
        int(i + 1) for i in range(len(d2)) if d2[i] < -tol * max(1.0, abs(kappas[i + 1]))
    )
    return CurvatureScan(
        tuple(float(t) for t in thetas),
        tuple(float(k) for k in kappas),
        tuple(float(x) for x in d2),
        bad,
    )


@dataclass(frozen=True)
class StrictWitnessReport:
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
    *,
    tol: float = 1e-12,
) -> StrictWitnessReport:
    """Witness ‖P_B C_{s}P_B‖ for a chosen term plus the observed κ curvature
    floor on the interval; ``strict`` when both are positive."""
    if not 0 <= term_index < len(fam.terms):
        raise ValueError(f"term index {term_index} out of range")
    term = fam.terms[term_index]
    if term.s == 0:
        raise ValueError("witness term must have a nonzero exponent")
    pb = fam.split.p_band
    witness = float(np.linalg.norm(pb @ term.coef @ pb, 2))
    scan = kappa_convexity_scan(fam, theta_min, theta_max, points)
    h = (theta_max - theta_min) / (points - 1)
    floor = scan.min_second_difference / (h * h)
    return StrictWitnessReport(
        term_index,
        witness,
        scan.min_second_difference,
        floor,
        witness > tol and scan.min_second_difference > 0,
    )


# ---------------------------------------------------------------------------
# weighted quadratic class functional


def q_class_functional_from_weights(
    k1: FloatArray, k2: FloatArray, split: SplitGeometry, weights: Sequence[float]
) -> float:
    """``Tr(P_B K₁ D K₂ P_B)/dim B`` with ``D = diag(1/x_r)`` from weights x."""
    x = np.asarray([float(w) for w in weights])
    if x.shape != (split.n,) or np.any(x <= 0):
        raise ValueError(f"need {split.n} positive weights")
    d = np.diag(1.0 / x)
    pb = split.p_band
    return float(np.trace(pb @ k1 @ d @ k2 @ pb)) / split.dim_band


def q_class_functional(k1: FloatArray, k2: FloatArray, split: SplitGeometry, q: float) -> float:
    """The functional at the folded weights ``x_r = q^r/S₀`` (D entries S₀/q^r)."""
    return q_class_functional_from_weights(
        k1, k2, split, [float(w) for w in folded_weights(split.n, float(q))]
    )
