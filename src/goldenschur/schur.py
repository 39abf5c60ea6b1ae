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
K generator rows of its coefficients, whose real DFT gives their spectra ĉ_k.
Because ``H_OO`` is 1×1 and ``u ⟂ 1``, κ_Schur is a ratio of two forms in
the weights ``w = (1, e^{s₁θ}, …)``, ``(N − 2)·κ = wᵀMw / hᵀw``, with h ≥ 0
and M ≥ 0 built once per family in O(K²·N) from sums of nonnegative terms
when ĉ ≥ 0 (:attr:`HessianFamily._kappa_form`; ĉ is not clamped).  Nothing
cancels, so each θ costs O(K²); the tests hold κ to 4 ulps of the exact value
of its float inputs on fixed draws, and 16 000 random draws at N ≤ 40 reached
4.7 ulps.  The singular-block guard reads ‖P H P‖_F² = wᵀGw, and
validation reads symmetry and positivity off the rows; no N×N array is built.

Everything on that route, from the family file to the scan, runs on Python
floats and needs only the standard library.  The spectra come from a real
FFT (:func:`_rfft`) of O(N log N) for every N: a radix-2 recursion down to
blocks of at most 8 points, or odd ones below 16, that are summed directly,
and Bluestein's chirp-z for a longer odd block.  A row takes about 10 µs at
N = 12, 55 µs at N = 64, 230 µs at N = 256, 1.7 ms at N = 255 and 8 ms at
N = 1009 (2-CPU Xeon, Python 3.11).  numpy is imported only by the dense
helpers, where they run: :func:`circulant`, :attr:`ExpTerm.coef`,
:attr:`SplitGeometry.p_band`, the ``random_*`` generators,
:func:`strict_convexity_witness` and :func:`q_class_functional_from_weights`.
"""

from __future__ import annotations

import json
import math
from functools import cached_property, lru_cache
from itertools import chain
from operator import add, gt, mul, sub
from typing import TYPE_CHECKING, NamedTuple, Sequence

if TYPE_CHECKING:
    from os import PathLike

    import numpy as np
    from numpy.typing import NDArray

    FloatArray = NDArray[np.float64]


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
#: Longest block that :func:`_fft` sums directly; an odd block, which cannot
#: be halved, is summed directly below twice this length.
_DIRECT_MAX = 8


class FamilyValidationError(ValueError):
    """Raised with the full list of violations found in a family."""

    def __init__(self, violations: Sequence[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


# ---------------------------------------------------------------------------
# spectra


def _unit(j: int, n: int) -> complex:
    """``e^{−2πij/n}`` as ``(−i)^q·e^{−ia}``, where 2πj/n = q·π/2 + a and
    |a| ≤ π/4, so that cos a and sin a are within about an ulp; at a = 0,
    ±π/6 and ±π/4 they are the correctly rounded 1 and 0, √3/2 and ½, √½."""
    q, r = divmod(4 * j, n)
    if 2 * r > n:
        q, r = q + 1, r - n
    if 3 * abs(r) == n:
        c, s = math.sqrt(3) / 2, math.copysign(0.5, r)
    elif 2 * abs(r) == n:
        c = math.sqrt(0.5)
        s = math.copysign(c, r)
    else:
        a = math.pi * r / (2 * n)
        c, s = math.cos(a), math.sin(a)
    return (complex(c, -s), complex(-s, -c), complex(-c, s), complex(s, c))[q % 4]


@lru_cache(maxsize=None)
def _roots(n: int) -> tuple[complex, ...]:
    """``e^{−2πij/n}`` for j < n."""
    return tuple(_unit(j, n) for j in range(n))


@lru_cache(maxsize=None)
def _chirp(p: int) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
    """Bluestein's chirp ``e^{−πit²/p}`` (t < p) and the transform of its
    conjugate, wrapped to the power-of-2 length of the convolution."""
    chirp = [_unit(t * t % (2 * p), 2 * p) for t in range(p)]
    kernel = [0j] * (1 << (2 * p - 2).bit_length())
    for t, w in enumerate(chirp):
        kernel[t] = kernel[-t] = w.conjugate()
    return tuple(chirp), tuple(_fft(kernel))


@lru_cache(maxsize=None)
def _dft(n: int) -> tuple[tuple[complex, ...], ...]:
    """The n × n DFT matrix, row j holding ``e^{−2πijt/n}`` for t < n."""
    w = _roots(n)
    return tuple(tuple(w[j * t % n] for t in range(n)) for j in range(n))


def _fft(z: list[complex]) -> list[complex]:
    """``Z_j = Σ_t z_t·e^{−2πijt/m}`` for a length m.

    A block of at most ``_DIRECT_MAX`` points, or an odd one below twice
    that (faster and more accurate than Bluestein's transforms of 32), is
    summed directly.  A longer even block merges the transforms of its even
    and odd samples; a longer odd one goes to Bluestein's chirp-z.
    """
    m = len(z)
    if m <= _DIRECT_MAX or m % 2 and m < 2 * _DIRECT_MAX:
        return [sum(map(mul, row, z)) for row in _dft(m)]
    if m % 2:
        chirp, kernel = _chirp(m)
        size = len(kernel)
        a = _fft(list(map(mul, z, chirp)) + [0j] * (size - m))
        conv = _fft([(x * y).conjugate() for x, y in zip(a, kernel)])  # inverse, conjugated
        return [c * v.conjugate() / size for c, v in zip(chirp, conv)]
    even = _fft(z[0::2])
    odd = list(map(mul, _roots(m)[: m // 2], _fft(z[1::2])))
    return [*map(add, even, odd), *map(sub, even, odd)]


def _rfft(x: Sequence[float]) -> list[complex]:
    """Bins j = 0 … N//2 of the DFT ``X_j = Σ_t x_t·e^{−2πijt/N}`` of a real
    row.  An even N takes one complex transform of length N/2, of the pairs
    ``x_{2t} + i·x_{2t+1}``, and splits it into the even and odd halves."""
    n = len(x)
    if n % 2:
        return _fft(list(map(complex, x)))[: n // 2 + 1]
    m = n // 2
    z = _fft(list(map(complex, x[0::2], x[1::2])))
    mirror = [c.conjugate() for c in z[:0:-1]]
    mid = [(a + b) * 0.5 - 0.5j * w * (a - b) for a, b, w in zip(z[1:], mirror, _roots(n)[1:m])]
    return [complex(z[0].real + z[0].imag), *mid, complex(z[0].real - z[0].imag)]


# ---------------------------------------------------------------------------
# circulant / dihedral helpers


def circulant(generator: Sequence[float]) -> FloatArray:
    """Circulant matrix ``C[i, j] = g[(j − i) mod n]`` from a generator row."""
    import numpy as np

    g = np.asarray(generator, dtype=float)
    n = g.shape[0]
    idx = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    return g[idx]


def _floats(x: object) -> object:
    """A number, or nested sequences of them (numpy arrays included), as a
    float or nested lists of floats.  A list of floats, or of lists, is
    returned as it is: the entries of its lists reach ``math.hypot`` in
    validation, which refuses anything but a number."""
    if hasattr(x, "tolist"):  # a numpy array or scalar
        x = x.tolist()
    if not isinstance(x, (list, tuple)):
        return float(x)
    kinds = set(map(type, x))
    if kinds <= {float} or kinds == {list}:
        return x if type(x) is list else list(x)
    return [_floats(v) for v in x]


def _is_row(x: object, n: int) -> bool:
    """Whether x is a list of n floats."""
    return type(x) is list and len(x) == n and set(map(type, x)) == {float}


def _is_matrix(x: object, n: int) -> bool:
    """Whether x, from :func:`_floats`, is n lists of n entries, the first
    not a list."""
    return (
        type(x) is list and len(x) == n and set(map(type, x)) == {list}
        and set(map(len, x)) == {n} and type(x[0][0]) is not list
    )


def _shape(x: object) -> tuple[int, ...]:
    """The shape of nested lists, read along their first entries."""
    return (len(x), *(_shape(x[0]) if x else ())) if type(x) is list else ()


# ---------------------------------------------------------------------------
# split geometry


class SplitGeometry:
    """Band/collective orthogonal split of the N-point tangent space; ``u``
    is the unit-norm, mean-zero collective direction, a tuple of floats."""

    def __init__(self, n: int, m_rho_sq: float, u: Sequence[float]):
        self.n, self.m_rho_sq, self.u = n, m_rho_sq, tuple(map(float, u))

    @property
    def dim_band(self) -> int:
        return self.n - 2

    @cached_property
    def p_band(self) -> FloatArray:
        """Projector onto B = span{1, u}^⊥."""
        import numpy as np

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
    if m_rho_sq == math.inf:
        raise ValueError(f"m_rho_sq must be finite, got {m_rho_sq}")
    v = _floats(u_raw)
    if not _is_row(v, n):
        raise ValueError(f"collective direction must have shape ({n},), got {_shape(v)}")
    if not all(map(math.isfinite, v)):
        raise ValueError("collective direction has non-finite entries")
    scale = math.hypot(*v)
    mean = math.fsum(v) / n
    v = [x - mean for x in v]
    nrm = math.hypot(*v)
    if nrm <= 1e-12 * max(scale, 1.0):
        raise ValueError("collective direction is parallel to the uniform vector")
    return SplitGeometry(n, float(m_rho_sq), [x / nrm for x in v])


# ---------------------------------------------------------------------------
# families


class ExpTerm:
    """One exponential term ``e^{sθ}·C`` of the Hessian sum, with ``c`` the
    generator row of the symmetric circulant C, a tuple of floats."""

    def __init__(self, s: float, c: Sequence[float]):
        self.s, self.c = s, tuple(map(float, c))

    @cached_property
    def coef(self) -> FloatArray:
        """C as an (n, n) numpy matrix, built on first use."""
        return circulant(self.c)

    @cached_property
    def spectrum(self) -> tuple[float, ...]:
        """C's eigenvalues on the real-DFT bins j = 0 … N//2: the real parts
        of the row's DFT (the imaginary parts are rounding noise)."""
        return tuple(x.real for x in _rfft(self.c))


class HessianFamily:
    """PSD exponential-sum Hessian family with its band/collective split;
    ``base`` is C₀, whose weight is 1 (s = 0)."""

    def __init__(self, split: SplitGeometry, base: ExpTerm, terms: Sequence[ExpTerm]):
        self.split, self.base, self.terms = split, base, tuple(terms)

    @property
    def n(self) -> int:
        return self.split.n

    @property
    def c0(self) -> FloatArray:
        return self.base.coef

    @cached_property
    def _kappa_form(self) -> tuple[list[list[float]], list[float], list[list[float]]]:
        """``(M, h, G)``: (N − 2)·κ = wᵀMw/hᵀw and ‖P H P‖_F² = wᵀGw.

        On the real-DFT bins j, ĉ_kj is C_k's spectrum, m_j the multiplicity
        of bin j in the range of P = I − 11ᵀ/N and p_j = m_j·|û_j|²/N, Σp = 1:
        h_k = Σ_j p_j·ĉ_kj, G_kl = Σ_j m_j·ĉ_kj·ĉ_lj and, symmetrised,
        M_kl = Σ_{j≥1} ĉ_kj·((m_j − 1)·h_l + Σ_{i≠j} p_i·ĉ_li).  The few-ulp
        accuracy rests on ĉ ≥ 0, where no term is negative.  ĉ is not clamped,
        since the identity holds for any ĉ: a negative that validation admits
        (down to −PSD_TOL·‖C_k‖_F) adds its terms' size to the error.
        """
        n = self.n
        m = [0.0] + [1.0 if 2 * j == n else 2.0 for j in range(1, n // 2 + 1)]
        p = [mj * (x.real**2 + x.imag**2) / n for mj, x in zip(m, _rfft(self.split.u))]
        c_hat = [t.spectrum for t in (self.base, *self.terms)]
        pc = [list(map(mul, p, c)) for c in c_hat]
        h = [math.fsum(r) for r in pc]
        # (m_j − 1)·h_l + Σ_{i≠j} p_i·ĉ_li is 2h_l − p_j·ĉ_lj ≥ h_l where m_j = 2;
        # at j = N/2, where m_j = 1 and h − p·ĉ may cancel, sum the other terms
        x = [[mj * hl - v for mj, v in zip(m[1:], r[1:])] for hl, r in zip(h, pc)]
        if n % 2 == 0:
            for xl, r in zip(x, pc):
                xl[-1] = math.fsum(r[:-1])
        mm = [[math.fsum(map(mul, ck[1:], xl)) for xl in x] for ck in c_hat]
        mc = [list(map(mul, m, c)) for c in c_hat]
        return (
            [[(a + b) / 2 for a, b in zip(row, col)] for row, col in zip(mm, zip(*mm))],
            h,
            [[math.fsum(map(mul, a, c)) for c in c_hat] for a in mc],
        )


def _validate_coef(
    name: str, s: float, c: list, n: int, dense: bool, violations: list[str]
) -> ExpTerm | None:
    """Validate one coefficient, given as n rows of n floats (``dense``) or
    as a length-n generator row.

    Appends the violations found, and returns the term of the symmetrized
    generator row when ``c`` is a symmetric circulant, PSD or not, else None.
    An exact symmetric circulant has no asymmetry and commutes exactly with
    shift and reversal, so only other matrices have their norms summed.  A
    matrix that the shift and reversal commutator norms show is not a
    circulant gets no PSD test.  A symmetric circulant is PSD when the real
    DFT of its row, its spectrum, is.
    """
    row = c[0] if dense else c
    rev = [row[0], *row[:0:-1]]  # row[(n − j) mod n]
    ext = row + row  # row i of a circulant is ext[n − i : 2n − i]
    equivariant = row == rev and (
        not dense or all(r == ext[n - i : 2 * n - i] for i, r in enumerate(c))
    )
    # an exact circulant's entries are its row's, n times over
    flat = row if equivariant or not dense else list(chain.from_iterable(c))
    norm = math.hypot(*flat)  # inf or nan if an entry is, or on overflow
    if not math.isfinite(norm) and not all(map(math.isfinite, flat)):
        violations.append(f"{name}: has non-finite entries")
        return None
    scale = max(1.0, norm * (math.sqrt(n) if flat is row else 1.0))  # ‖C‖_F
    if not equivariant:
        # max |C − Cᵀ| is at most the Frobenius norm of C − Cᵀ, summed first
        pair = (flat, list(chain.from_iterable(zip(*c)))) if dense else (row, rev)
        if math.dist(*pair) > SYM_TOL * scale:
            asym = max(abs(a - b) for a, b in zip(*pair))
            if asym > SYM_TOL * scale:
                violations.append(f"{name}: not symmetric (max |C - C^T| = {asym:.3e})")
                return None
        # ‖C·S − S·C‖_F and ‖C·R − R·C‖_F by indexing: right-multiplying by a
        # permutation permutes columns, left-multiplying permutes rows
        if dense:
            cs = math.dist(
                list(chain.from_iterable([r[-1:] + r[:-1] for r in c])), flat[n:] + flat[:n]
            )
            cr = math.dist(
                list(chain.from_iterable([r[:1] + r[:0:-1] for r in c])),
                list(chain.from_iterable([c[0], *c[:0:-1]])),
            )
        else:
            cs, cr = 0.0, math.sqrt(n) * math.dist(row, rev)
        equivariant = cs <= EQUIVARIANCE_TOL * scale and cr <= EQUIVARIANCE_TOL * scale
        if not equivariant:
            violations.append(
                f"{name}: not dihedral-equivariant "
                f"(shift commutator norm = {cs:.3e}, reversal commutator norm = {cr:.3e})"
            )
            if dense:
                return None
    term = ExpTerm(s, [(a + b) / 2 for a, b in zip(row, rev)])
    low = min(term.spectrum)
    if low < -PSD_TOL * scale:
        violations.append(f"{name}: not PSD (min eigenvalue = {low:.3e})")
    return term if equivariant else None


def make_family(
    n: int,
    m_rho_sq: float,
    u_raw: Sequence[float],
    c0: Sequence[float] | Sequence[Sequence[float]],
    terms: Sequence[tuple[float, Sequence[float] | Sequence[Sequence[float]]]],
) -> HessianFamily:
    """Assemble and validate a Hessian family.

    Each coefficient is an (n, n) matrix or the length-n generator row g of
    the circulant ``C[i, j] = g[(j − i) mod n]``, as nested sequences or a
    numpy array, and is stored as its symmetrized row.  Validation collects
    *all* violations — bad shapes, non-finite entries, asymmetry, broken
    equivariance, indefiniteness — and raises one
    :class:`FamilyValidationError` listing every offender.  A negative
    control that no valid family can be, such as one with an indefinite
    coefficient, is built from its rows with the :class:`HessianFamily` and
    :class:`ExpTerm` constructors, which check nothing.
    """
    split = build_split(n, m_rho_sq, u_raw)
    violations: list[str] = []
    built = []
    for k, (s, c) in enumerate([(0.0, c0), *terms]):
        s, entries = float(s), _floats(c)
        if k and not math.isfinite(s):
            violations.append(f"terms[{k - 1}]: exponent s = {s} is not finite")
        name = f"terms[{k - 1}].C (s={s:g})" if k else "C0"
        dense = _is_matrix(entries, n)
        if not dense and not _is_row(entries, n):
            violations.append(f"{name}: shape {_shape(entries)} != ({n}, {n})")
            continue
        built.append(_validate_coef(name, s, entries, n, dense, violations))
    if violations:
        raise FamilyValidationError(violations)
    return HessianFamily(split, built[0], built[1:])


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
    import numpy as np

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


def _numbers(values: list, field: str) -> list[float]:
    """A JSON list of floats as it is, and any other through :func:`_number`."""
    if set(map(type, values)) <= {float}:
        return values
    return [_number(x, field, i) for i, x in enumerate(values)]


def _matrix_from_spec(obj: object, n: int, name: str) -> list:
    """Decode a matrix entry: circulant generator (kept as its row), nested
    rows, or flat row-major, as a row or as n rows of n floats."""
    if isinstance(obj, dict):
        if set(obj.keys()) != {"circulant"}:
            raise ValueError(f"{name}: matrix object must have exactly the key 'circulant'")
        g = obj["circulant"]
        if not isinstance(g, list) or len(g) != n:
            raise ValueError(f"{name}: circulant generator must be a list of {n} numbers")
        return _numbers(g, f"{name}.circulant")
    if isinstance(obj, list):
        if len(obj) == n and all(isinstance(row, list) and len(row) == n for row in obj):
            if set(map(type, chain.from_iterable(obj))) <= {float}:
                return obj
            return [_numbers(row, f"{name}[{i}]") for i, row in enumerate(obj)]
        if len(obj) == n * n and not any(isinstance(x, list) for x in obj):
            flat = _numbers(obj, name)
            return [flat[i : i + n] for i in range(0, n * n, n)]
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
    u_raw = _numbers(u, "u")
    return make_family(n, _number(data["m_rho_sq"], "m_rho_sq"), u_raw, c0, terms)


def load_family(path: str | PathLike[str]) -> HessianFamily:
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


def _curvatures(fam: HessianFamily, thetas: Sequence[float]) -> list[float]:
    """κ_Schur at each θ, from the family's ``(M, h, G)``.

    Raises the errors of a θ-by-θ dense scan in grid order: ``OverflowError``
    from ``math.exp``, or the singular-block ``ValueError`` at the first θ
    whose ``h ≤ ‖P H P‖_F/COND_LIMIT``.  A product that overflows to inf is
    reported by the guard, as on the dense route.  Each step runs along the
    grid, and a θ gets the same bits alone or inside a grid.
    """
    mm, h_k, g = fam._kappa_form
    exponents = [float(t.s) for t in fam.terms]
    try:
        w = [[1.0] * len(thetas), *[list(map(math.exp, map(s.__mul__, thetas))) for s in exponents]]
    except OverflowError:
        for i, theta in enumerate(thetas):
            try:
                [math.exp(s * theta) for s in exponents]
            except OverflowError:
                if i:  # a singular block earlier in the grid wins
                    _curvatures(fam, thetas[:i])
                raise
    # M and G are symmetric: w_k·w_l·X_kl + w_l·w_k·X_lk = w_k·w_l·(2·X_kl), exactly
    pairs = [(k, l, 1.0 if k == l else 2.0) for k in range(len(w)) for l in range(k, len(w))]
    ww = [list(map(mul, w[k], w[l])) if k else w[l] for k, l, _ in pairs]  # w₀ = 1
    h = [h_k[0]] * len(thetas)
    for col, hk in zip(w[1:], h_k[1:]):
        h = list(map(add, h, map(hk.__mul__, col)))
    # G is a Gram matrix, so ‖P H P‖_F = √(wᵀGw) ≤ Σ_k w_k·√G_kk: where h exceeds
    # twice that over COND_LIMIT and no w_k·w_l overflows, the guard passes
    bound = [0.0] * len(thetas)
    for k, col in enumerate(w):
        bound = list(map(add, bound, map(math.sqrt(g[k][k]).__mul__, col)))
    if not (max(map(max, w)) < 1e150 and all(map(gt, h, map((2 / COND_LIMIT).__mul__, bound)))):
        gram = map(sum, zip(*[
            list(map((two * g[k][l]).__mul__, col)) for col, (k, l, two) in zip(ww, pairs)
        ]))
        for theta, hi, gi in zip(thetas, h, gram):
            scale = math.sqrt(gi) if gi >= 0 else math.nan
            if not hi > scale / COND_LIMIT:
                raise ValueError(
                    f"collective block is numerically singular at theta={theta:g} "
                    f"(h_oo = {hi:.3e}, ‖H‖_F = {scale:.3e})"
                )
    # fsum rounds each wᵀMw once
    m2 = [two * mm[k][l] for k, l, two in pairs]
    dim = fam.split.dim_band
    return [math.fsum(map(mul, r, m2)) / hi / dim for r, hi in zip(zip(*ww), h)]


def schur_curvature(fam: HessianFamily, theta: float) -> float:
    """Band-normalized trace of the Schur complement at θ, wᵀMw/((N − 2)·hᵀw)."""
    return _curvatures(fam, [float(theta)])[0]


class CurvatureScan(NamedTuple):
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


def _grid(a: float, b: float, points: int) -> list[float]:
    """``points`` evenly spaced values from a to b: ``i·step + a``, and b
    last, the values of ``numpy.linspace(a, b, points)``."""
    div = points - 1
    step = (b - a) / div
    if step == 0:  # the difference underflows when divided; numpy scales i first
        grid = [i / div * (b - a) + a for i in range(div)]
    else:
        grid = [i * step + a for i in range(div)]
    return [*grid, b]


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
    thetas = _grid(float(theta_min), float(theta_max), points)
    kappas = _curvatures(fam, thetas)
    d2 = list(map(add, map(sub, kappas[2:], map((2.0).__mul__, kappas[1:-1])), kappas))
    bad = [
        i for i, (d, k) in enumerate(zip(d2, kappas[1:]), 1)
        if d < 0 and d < -CONVEXITY_RTOL * max(1.0, abs(k))
    ]
    return CurvatureScan(tuple(thetas), tuple(kappas), tuple(d2), tuple(bad))


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
    """Witness ‖P_B C_{s}P_B‖ for a chosen term plus the observed κ curvature
    floor on the interval; ``strict`` when the witness exceeds WITNESS_TOL =
    1e-12 and the floor is positive."""
    import numpy as np

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
    import numpy as np

    x = np.asarray([float(w) for w in weights])
    if x.shape != (split.n,) or not (np.isfinite(x) & (x > 0)).all():
        raise ValueError(f"need {split.n} positive weights")
    d = np.diag(1.0 / x)
    pb = split.p_band
    return float(np.trace(pb @ k1 @ d @ k2 @ pb)) / split.dim_band
