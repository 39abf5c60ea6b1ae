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

and its convexity in θ.

The DFT diagonalizes every symmetric circulant, so a family is kept as the
K generator rows of its coefficients, whose rfft gives their spectra ĉ_k.
Because ``H_OO`` is 1×1 and ``u ⟂ 1``, κ_Schur is a ratio of two forms in
the weights ``w = (1, e^{s₁θ}, …)``, ``(N − 2)·κ = wᵀMw / hᵀw``, with h ≥ 0
and M ≥ 0 built once per family in O(K²·N) from sums of nonnegative terms
when ĉ ≥ 0 (:attr:`HessianFamily._kappa_form`; ĉ is not clamped).  Nothing
cancels, so each θ costs O(K²) and κ is within a few ulps of the exact value
of its float inputs.  The singular-block guard reads ‖P H P‖_F² = wᵀGw, and
validation reads symmetry and positivity off the rows; no N×N array is built.
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


__all__ = [
    "FamilyValidationError",
    "SplitGeometry",
    "build_split",
    "ExpTerm",
    "HessianFamily",
    "make_family",
    "circulant",
    "random_symmetric_psd_circulant",
    "random_family",
    "family_from_dict",
    "load_family",
    "schur_curvature",
    "CurvatureScan",
    "kappa_convexity_scan",
    "StrictWitnessReport",
    "strict_convexity_witness",
    "q_class_functional_from_weights",
]

FloatArray = NDArray[np.float64]

#: Loewner / symmetry slack for validated families.
PSD_TOL = 1e-10
SYM_TOL = 1e-10
EQUIVARIANCE_TOL = 1e-10
#: Collective block guard: H_OO must exceed ‖H‖/COND_LIMIT.
COND_LIMIT = 1e12
#: Relative slack of a κ second difference in :func:`kappa_convexity_scan`.
CONVEXITY_RTOL = 1e-8
#: Smallest band-projected term norm that witnesses strict convexity.
WITNESS_TOL = 1e-12


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


def _reversal(n: int) -> NDArray[np.intp]:
    """Indices of the reversal ``j ↦ (n − j) mod n``."""
    return (n - np.arange(n)) % n


# ---------------------------------------------------------------------------
# split geometry


@dataclass(frozen=True, eq=False)
class SplitGeometry:
    """Band/collective orthogonal split of the N-point tangent space."""

    n: int
    m_rho_sq: float
    u: FloatArray  # unit-norm, mean-zero collective direction

    @property
    def dim_band(self) -> int:
        return self.n - 2

    @cached_property
    def p_band(self) -> FloatArray:
        """Projector onto B = span{1, u}^⊥."""
        n = self.n
        return np.eye(n) - np.full((n, n), 1.0 / n) - np.outer(self.u, self.u)


def build_split(n: int, m_rho_sq: float, u_raw: Sequence[float]) -> SplitGeometry:
    """Build the split from a raw collective direction.

    ``u_raw`` is shifted to mean zero and normalized; a direction with a
    non-finite entry, or parallel to the uniform vector (or zero), is rejected
    since the collective mode would be undefined or collapse onto the simplex
    constraint.
    """
    if n < 3:
        raise ValueError(f"split needs n >= 3 (band dimension n-2 > 0), got n={n}")
    if not m_rho_sq > 0:
        raise ValueError(f"m_rho_sq must be positive, got {m_rho_sq}")
    v = np.asarray(u_raw, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"collective direction must have shape ({n},), got {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("collective direction has non-finite entries")
    scale = float(np.linalg.norm(v))
    v = v - v.mean()
    nrm = float(np.linalg.norm(v))
    if nrm <= 1e-12 * max(scale, 1.0):
        raise ValueError("collective direction is parallel to the uniform vector")
    return SplitGeometry(n, float(m_rho_sq), v / nrm)


# ---------------------------------------------------------------------------
# families


@dataclass(frozen=True, eq=False)
class ExpTerm:
    """One exponential term ``e^{sθ}·C`` of the Hessian sum, with ``c`` the
    generator row of the symmetric circulant C."""

    s: float
    c: FloatArray

    @cached_property
    def coef(self) -> FloatArray:
        """C as an (n, n) matrix, built on first use."""
        return circulant(self.c)


@dataclass(frozen=True, eq=False)
class HessianFamily:
    """PSD exponential-sum Hessian family with its band/collective split."""

    split: SplitGeometry
    base: ExpTerm  # C₀, whose weight is 1 (s = 0)
    terms: tuple[ExpTerm, ...]

    @property
    def n(self) -> int:
        return self.split.n

    @property
    def c0(self) -> FloatArray:
        return self.base.coef

    @cached_property
    def _kappa_form(self) -> tuple[FloatArray, FloatArray, FloatArray]:
        """``(M, h, G)``: (N − 2)·κ = wᵀMw/hᵀw and ‖P H P‖_F² = wᵀGw.

        On the rfft bins j, ĉ_kj is C_k's spectrum, m_j the multiplicity of
        bin j in the range of P = I − 11ᵀ/N and p_j = m_j·|û_j|²/N, Σp = 1:
        h_k = Σ_j p_j·ĉ_kj, G_kl = Σ_j m_j·ĉ_kj·ĉ_lj and, symmetrised,
        M_kl = Σ_{j≥1} ĉ_kj·((m_j − 1)·h_l + Σ_{i≠j} p_i·ĉ_li).  The few-ulp
        accuracy rests on ĉ ≥ 0, where no term is negative.  ĉ is not clamped,
        since the identity holds for any ĉ: a negative that validation admits
        (down to −PSD_TOL·‖C_k‖_F) adds its terms' size to the error.
        """
        n = self.n
        m = np.array([0.0] + [1.0 if 2 * j == n else 2.0 for j in range(1, n // 2 + 1)])
        u_hat = np.fft.rfft(self.split.u)
        p = m * (u_hat.real**2 + u_hat.imag**2) / n
        c_hat = np.fft.rfft(np.array([t.c for t in (self.base, *self.terms)]), axis=1).real
        pc = p * c_hat
        h = np.array([math.fsum(r) for r in pc.tolist()])
        # (m_j − 1)·h_l + Σ_{i≠j} p_i·ĉ_li is 2h_l − p_j·ĉ_lj ≥ h_l where m_j = 2;
        # at j = N/2, where m_j = 1 and h − p·ĉ may cancel, sum the other terms
        x = m[1:] * h[:, None] - pc[:, 1:]
        if n % 2 == 0:
            x[:, -1] = [math.fsum(r) for r in pc[:, :-1].tolist()]
        terms = (c_hat[:, None, 1:] * x).tolist()  # [k][l][j − 1]
        mm = np.array([[math.fsum(r) for r in plane] for plane in terms])
        return (mm + mm.T) / 2, h, (m * c_hat[:, None, :] * c_hat).sum(axis=2)


def _validate_coef(name: str, c: FloatArray, n: int, violations: list[str]) -> FloatArray | None:
    """Validate one coefficient, given as an (n, n) matrix or a length-n
    generator row.

    Appends the violations found, and returns the symmetrized generator row
    when ``c`` is a symmetric circulant, PSD or not, else None.  A matrix that
    the shift and reversal commutator norms show is not a circulant gets no
    PSD test.  A symmetric circulant is PSD when the rfft of its row, its
    spectrum, is.
    """
    if not np.isfinite(c).all():
        violations.append(f"{name}: has non-finite entries")
        return None
    rev = _reversal(n)
    dense = c.ndim == 2
    row = c[0] if dense else c
    # ‖C‖_F and max |C − Cᵀ|; a circulant's entries are its row's, n times over
    scale = max(1.0, float(np.linalg.norm(c)) * (1.0 if dense else math.sqrt(n)))
    asym = float(np.max(np.abs(c - c.T if dense else c - c[rev])))
    if asym > SYM_TOL * scale:
        violations.append(f"{name}: not symmetric (max |C - C^T| = {asym:.3e})")
        return None
    # ‖C·S − S·C‖_F and ‖C·R − R·C‖_F by indexing: right-multiplying by a
    # permutation permutes columns, left-multiplying permutes rows
    if dense:
        cs = float(np.linalg.norm(np.roll(c, 1, axis=1) - np.roll(c, -1, axis=0)))
        cr = float(np.linalg.norm(c[:, rev] - c[rev, :]))
    else:
        cs, cr = 0.0, math.sqrt(n) * float(np.linalg.norm(c - c[rev]))
    equivariant = cs <= EQUIVARIANCE_TOL * scale and cr <= EQUIVARIANCE_TOL * scale
    if not equivariant:
        violations.append(
            f"{name}: not dihedral-equivariant "
            f"(shift commutator norm = {cs:.3e}, reversal commutator norm = {cr:.3e})"
        )
        if dense:
            return None
    g = (row + row[rev]) / 2
    low = float(np.fft.rfft(g).real.min())
    if low < -PSD_TOL * scale:
        violations.append(f"{name}: not PSD (min eigenvalue = {low:.3e})")
    return g if equivariant else None


def make_family(
    n: int,
    m_rho_sq: float,
    u_raw: Sequence[float],
    c0: Sequence[float] | Sequence[Sequence[float]],
    terms: Sequence[tuple[float, Sequence[float] | Sequence[Sequence[float]]]],
) -> HessianFamily:
    """Assemble and validate a Hessian family.

    Each coefficient is an (n, n) matrix or the length-n generator row g of
    the circulant ``C[i, j] = g[(j − i) mod n]``, and is stored as its
    symmetrized row.  Validation collects *all* violations — bad shapes,
    non-finite entries, asymmetry, broken equivariance, indefiniteness — and
    raises one :class:`FamilyValidationError` listing every offender.  A
    negative control that no valid family can be, such as one with an
    indefinite coefficient, is built from its rows with the
    :class:`HessianFamily` and :class:`ExpTerm` constructors, which check
    nothing.
    """
    split = build_split(n, m_rho_sq, u_raw)
    violations: list[str] = []
    built = []
    for k, (s, c) in enumerate([(0.0, c0), *terms]):
        s, arr = float(s), np.asarray(c, dtype=float)
        if k and not math.isfinite(s):
            violations.append(f"terms[{k - 1}]: exponent s = {s} is not finite")
        name = f"terms[{k - 1}].C (s={s:g})" if k else "C0"
        if arr.shape not in ((n,), (n, n)):
            violations.append(f"{name}: shape {arr.shape} != ({n}, {n})")
            continue
        g = _validate_coef(name, arr, n, violations)
        built.append(ExpTerm(s, g))
    if violations:
        raise FamilyValidationError(violations)
    return HessianFamily(split, built[0], tuple(built[1:]))


def random_symmetric_psd_circulant(n: int, rng: np.random.Generator) -> FloatArray:
    """Random symmetric PSD circulant ``A·Aᵀ/n`` from a random circulant A."""
    a = circulant(rng.standard_normal(n))
    c = a @ a.T / n
    return (c + c.T) / 2


def random_family(n: int, rng: np.random.Generator, *, n_terms: int = 2) -> HessianFamily:
    """Random validated family with m_ρ² = 2; a ridge of 0.5 on C₀ keeps
    ``H_OO`` well conditioned.

    Each coefficient reaches :func:`make_family` as the first row of its dense
    symmetric circulant, so it takes the row validation path; both paths
    store ``(row + row[rev])/2`` of that same row.
    """
    u_raw = rng.standard_normal(n)
    while np.linalg.norm(u_raw - u_raw.mean()) < 1e-6:
        u_raw = rng.standard_normal(n)
    c0 = (random_symmetric_psd_circulant(n, rng) + 0.5 * np.eye(n))[0]
    terms = []
    for _ in range(n_terms):
        s = float(rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0]))
        terms.append((s, random_symmetric_psd_circulant(n, rng)[0]))
    return make_family(n, 2.0, u_raw, c0, terms)


# ---------------------------------------------------------------------------
# family file format


def _number(value: object, field: str, index: int | None = None) -> float:
    """A JSON number of the family document, the int or float that json
    decodes it to, as a float.  Anything else, a bool included, or an integer
    too large for a float, is a ValueError naming the field, and the list
    index if one is given."""
    kind = type(value)
    if kind is float or kind is int:  # a bool is neither
        try:
            return float(value)
        except OverflowError:
            reason = "integer too large for a float"
    else:
        reason = f"expected a number, got {json.dumps(value, default=repr)}"
    name = field if index is None else f"{field}[{index}]"
    raise ValueError(f"{name}: {reason}")


def _matrix_from_spec(obj: object, n: int, name: str) -> FloatArray:
    """Decode a matrix entry: circulant generator (kept as its row), nested
    rows, or flat row-major."""
    if isinstance(obj, dict):
        if set(obj.keys()) != {"circulant"}:
            raise ValueError(f"{name}: matrix object must have exactly the key 'circulant'")
        g = obj["circulant"]
        if not isinstance(g, list) or len(g) != n:
            raise ValueError(f"{name}: circulant generator must be a list of {n} numbers")
        return np.array([_number(x, f"{name}.circulant", i) for i, x in enumerate(g)])
    if isinstance(obj, list):
        if len(obj) == n and all(isinstance(row, list) for row in obj):
            return np.asarray(obj, dtype=float)
        if len(obj) == n * n and not any(isinstance(x, list) for x in obj):
            return np.asarray(obj, dtype=float).reshape(n, n)
        raise ValueError(f"{name}: expected {n} rows of {n} numbers or a flat list of {n * n}")
    raise ValueError(f"{name}: unsupported matrix encoding {type(obj).__name__}")


def family_from_dict(data: dict) -> HessianFamily:
    """Build and validate a family from the JSON document form.

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
        s = _number(entry["s"], f"terms[{k}].s")
        terms.append((s, _matrix_from_spec(entry["C"], n, f"terms[{k}].C")))
    u_raw = [_number(x, "u", i) for i, x in enumerate(u)]
    return make_family(n, _number(data["m_rho_sq"], "m_rho_sq"), u_raw, c0, terms)


def load_family(path: str | Path) -> HessianFamily:
    """Load and validate a family from a JSON file (see :func:`family_from_dict`)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top-level JSON value must be an object")
    return family_from_dict(data)


# ---------------------------------------------------------------------------
# Schur curvature


def _curvatures(fam: HessianFamily, thetas: Sequence[float]) -> FloatArray:
    """κ_Schur at each θ, from the family's ``(M, h, G)``.

    Raises the errors of a θ-by-θ dense scan in grid order: ``OverflowError``
    from ``math.exp``, or the singular-block ``ValueError`` at the first θ
    whose ``h ≤ ‖P H P‖_F/COND_LIMIT``.
    """
    mm, h_k, g = fam._kappa_form
    rows = []
    for theta in thetas:
        try:
            rows.append([1.0] + [math.exp(t.s * theta) for t in fam.terms])
        except OverflowError:
            _curvatures(fam, thetas[: len(rows)])  # a singular block earlier in the grid wins
            raise
    w = np.array(rows).reshape(len(rows), len(h_k))
    # Elementwise products, and sums along each θ's own row, so that a θ
    # gives the same bits alone or inside a grid (a matmul may change its
    # summation order with the number of rows); fsum rounds wᵀMw once.  An
    # overflow to inf is reported by the guard, as on the dense route.
    with np.errstate(over="ignore", invalid="ignore"):
        ww = w[:, :, None] * w[:, None, :]
        h = (w * h_k).sum(axis=1)
        scale = np.sqrt((ww * g).sum(axis=(1, 2)))
        singular = ~(h > scale / COND_LIMIT)
        if singular.any():
            i = int(np.argmax(singular))
            raise ValueError(
                f"collective block is numerically singular at theta={thetas[i]:g} "
                f"(h_oo = {h[i]:.3e}, ‖H‖_F = {scale[i]:.3e})"
            )
        wmw = [math.fsum(r) for r in (ww * mm).reshape(len(w), mm.size).tolist()]
        return np.array(wmw) / h / fam.split.dim_band


def schur_curvature(fam: HessianFamily, theta: float) -> float:
    """Band-normalized trace of the Schur complement at θ, wᵀMw/((N − 2)·hᵀw)."""
    return float(_curvatures(fam, [theta])[0])


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
) -> CurvatureScan:
    """Centered second differences of κ_Schur; a violation is a second
    difference below ``−CONVEXITY_RTOL·max(1, |κ|)`` at its center point,
    with CONVEXITY_RTOL = 1e-8."""
    if points < 3:
        raise ValueError("scan needs at least 3 grid points")
    for name, bound in (("theta_min", theta_min), ("theta_max", theta_max)):
        if not math.isfinite(bound):
            raise ValueError(f"{name} = {bound} is not finite")
    if not theta_min < theta_max:
        raise ValueError("need theta_min < theta_max")
    if not math.isfinite(theta_max - theta_min):  # two finite bounds can be too far apart
        raise ValueError(f"theta_max - theta_min = {theta_max - theta_min} is not finite")
    thetas = np.linspace(theta_min, theta_max, points)
    kappas = _curvatures(fam, thetas)
    d2 = kappas[2:] - 2 * kappas[1:-1] + kappas[:-2]
    (bad,) = np.nonzero(d2 < -CONVEXITY_RTOL * np.maximum(1.0, np.abs(kappas[1:-1])))
    return CurvatureScan(
        tuple(thetas.tolist()),
        tuple(kappas.tolist()),
        tuple(d2.tolist()),
        tuple((bad + 1).tolist()),
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
) -> StrictWitnessReport:
    """Witness ‖P_B C_{s}P_B‖ for a chosen term plus the observed κ curvature
    floor on the interval; ``strict`` when the witness exceeds WITNESS_TOL =
    1e-12 and the floor is positive."""
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
        witness > WITNESS_TOL and scan.min_second_difference > 0,
    )


# ---------------------------------------------------------------------------
# weighted quadratic class functional


def q_class_functional_from_weights(
    k1: FloatArray, k2: FloatArray, split: SplitGeometry, weights: Sequence[float]
) -> float:
    """``Tr(P_B K₁ D K₂ P_B)/dim B`` with ``D = diag(1/x_r)`` from weights x."""
    x = np.asarray([float(w) for w in weights])
    if x.shape != (split.n,) or not (np.isfinite(x) & (x > 0)).all():
        raise ValueError(f"need {split.n} positive weights")
    d = np.diag(1.0 / x)
    pb = split.p_band
    return float(np.trace(pb @ k1 @ d @ k2 @ pb)) / split.dim_band
