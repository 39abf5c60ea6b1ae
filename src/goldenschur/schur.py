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
cancels, so each θ costs O(K²).  At moderate θ the tests hold κ to 4 ulps of
:func:`.oracle.exact_kappa` at its float weights on fixed draws, and 16 000
random draws at N ≤ 40 reached 4.7 ulps.  At large |θ| one term dominates
and the rounding of its spectrum no longer averages out: on 24 000
``random_family`` draws (seeds 0–23 999, N 4–12, 1–3 terms, θ uniform on
[−800, 800]) κ was within 16 ulps of ``exact_kappa`` and within 3.8 ulps of
the exact value at the kernel's own float inputs, the spectra ĉ and the
scaled weights.  κ is homogeneous of degree 1 in w and the guard ratio
h/‖P H P‖_F of degree 0, so κ is e^r times κ at the weights e^{sθ − r}, C₀'s
e^{−r}, with r = 0 unless a weight would pass the family's bound beyond which
wᵀGw or wᵀMw could overflow: κ is returned wherever it is a finite float.  At
each θ, ``h ≤ ‖P H P‖_F/COND_LIMIT``, with ‖P H P‖_F² = wᵀGw formed exactly,
raises the singular-block ``ValueError``, and then a κ beyond the float range
an ``OverflowError`` naming θ.  Validation bounds the distance from each
coefficient to the circulant of its symmetrised first row, and reads
positivity off that row's spectrum; no N×N array is built.

Everything on that route, from the family file to the scan, runs on Python
floats and needs only the standard library.  The spectra come from a real
FFT (:func:`_rfft`) of O(N log N) for every N: a radix-2 recursion down to
blocks of at most 8 points, or odd ones below 16, that are summed directly,
and Bluestein's chirp-z for a longer odd block.  A row takes about 10 µs at
N = 12, 55 µs at N = 64, 230 µs at N = 256, 1.7 ms at N = 255 and 8 ms at
N = 1009 (2-CPU Xeon, Python 3.11).  No family holds an N×N array: the dense
views of a family, the random families and the strict-convexity witness are
in :mod:`.oracle`, the one module that builds them.
"""

from __future__ import annotations

import json
import math
import sys
from functools import cached_property, lru_cache
from itertools import chain
from operator import add, eq, mul, neg, sub
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from .floatlaw import _count

if TYPE_CHECKING:
    from os import PathLike


__all__ = [
    "FamilyValidationError",
    "SplitGeometry",
    "build_split",
    "ExpTerm",
    "HessianFamily",
    "make_family",
    "family_from_dict",
    "load_family",
    "schur_curvature",
    "CurvatureScan",
    "kappa_convexity_scan",
]

#: Loewner slack, and the relative distance allowed from a coefficient to the
#: symmetric circulant that the family keeps of it.
PSD_TOL = 1e-10
EQUIVARIANCE_TOL = 1e-10
#: Collective block guard: H_OO must exceed ‖H‖/COND_LIMIT.
COND_LIMIT = 1e12
#: Relative slack of a κ second difference in :func:`kappa_convexity_scan`.
CONVEXITY_RTOL = 1e-8
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
# numbers and shapes


def _number(value: object, field: str) -> float:
    """A number of a family as a float: an int or a float, what json decodes
    a JSON number to, or a numpy value read through ``tolist()``.  Anything
    else, a bool included, or an integer too large for a float, is a
    ValueError naming the field."""
    if hasattr(value, "tolist"):  # a numpy scalar
        value = value.tolist()
    kind = type(value)
    if kind is float or kind is int:  # a bool is neither
        try:
            return float(value)
        except OverflowError:
            reason = "integer too large for a float"
    else:
        reason = f"expected a number, got {json.dumps(value, default=repr)}"
    raise ValueError(f"{field}: {reason}")


def _floats(x: object, field: str, depth: int = 2) -> object:
    """A number, or sequences of them nested at most ``depth`` deep (numpy
    arrays included), as a float or lists of floats, each number read by
    :func:`_number` under the name ``field[i][j]`` of its place.  A list of
    floats, or of lists of floats, is returned as it is."""
    if hasattr(x, "tolist"):  # a numpy array or scalar
        x = x.tolist()
    if not depth or not isinstance(x, (list, tuple)):
        return _number(x, field)
    kinds = set(map(type, x))
    if kinds <= {float} or depth == 2 and kinds == {list} and (
        set(map(type, chain.from_iterable(x))) <= {float}
    ):
        return x if type(x) is list else list(x)
    return [_floats(v, f"{field}[{i}]", depth - 1) for i, v in enumerate(x)]


def _is_row(x: object, n: int) -> bool:
    """Whether x is a list of n floats."""
    return type(x) is list and len(x) == n and set(map(type, x)) == {float}


def _is_matrix(x: object, n: int) -> bool:
    """Whether x, from :func:`_floats`, is n lists of n floats."""
    return (
        type(x) is list and len(x) == n and set(map(type, x)) == {list} and set(map(len, x)) == {n}
    )


def _shape(x: object) -> tuple[int, ...]:
    """The shape of nested lists, read along their first entries."""
    return (len(x), *(_shape(x[0]) if x else ())) if type(x) is list else ()


def _shape_error(x: object, n: int) -> str:
    """Why x, from :func:`_floats`, is neither n floats nor n rows of n."""
    kinds = set(map(type, x)) if type(x) is list else set()
    if list in kinds and len(kinds) > 1:
        return f"a list mixing rows and numbers, expected {n} numbers or {n} rows of {n}"
    if list in kinds and len(set(map(len, x))) > 1:
        return f"rows of unequal lengths, expected {n} rows of {n}"
    return f"shape {_shape(x)} != ({n}, {n})"


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


def build_split(n: int, m_rho_sq: float, u_raw: Sequence[float]) -> SplitGeometry:
    """Build the split from a raw collective direction.

    ``u_raw`` is shifted to mean zero and normalized; a direction with a
    non-finite entry, or parallel to the uniform vector (or zero), is rejected
    since the collective mode would be undefined or collapse onto the simplex
    constraint.  n is read by :func:`~.floatlaw._count`, at least 3 so that
    dim B = N − 2 > 0, and m_ρ² and each entry of ``u_raw`` by :func:`_number`.
    """
    n = _count(n, "N", 3)
    m_rho_sq = _number(m_rho_sq, "m_rho_sq")
    if not m_rho_sq > 0:
        raise ValueError(f"m_rho_sq must be positive, got {m_rho_sq}")
    if m_rho_sq == math.inf:
        raise ValueError(f"m_rho_sq must be finite, got {m_rho_sq}")
    v = _floats(u_raw, "u")
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
    return SplitGeometry(n, m_rho_sq, [x / nrm for x in v])


# ---------------------------------------------------------------------------
# families


class ExpTerm:
    """One exponential term ``e^{sθ}·C`` of the Hessian sum, with ``c`` the
    generator row of the symmetric circulant C, a tuple of floats."""

    def __init__(self, s: float, c: Sequence[float]):
        self.s, self.c = s, tuple(map(float, c))

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

    @cached_property
    def _kappa_form(self) -> tuple[list[list[float]], list[float], list[list[float]], int, float]:
        """``(M, h, G, e, t)``: (N − 2)·κ = 2^e·wᵀMw/hᵀw and
        ‖P H P‖_F² = 4^e·wᵀGw, and no sum of wᵀMw or wᵀGw overflows while
        every weight is at most e^t.

        On the real-DFT bins j, ĉ_kj is C_k's spectrum in units of 2^e, m_j the
        multiplicity of bin j in the range of P = I − 11ᵀ/N and
        p_j = m_j·|û_j|²/N, Σp = 1: h_k = Σ_j p_j·ĉ_kj, G_kl = Σ_j m_j·ĉ_kj·ĉ_lj
        and, symmetrised, M_kl = Σ_{j≥1} ĉ_kj·((m_j − 1)·h_l + Σ_{i≠j} p_i·ĉ_li).
        Bin 0 has m_0 = p_0 = 0.  e = 0 unless a spectrum reaches 2^480, where
        G could overflow; a power of 2 scales every sum exactly, barring
        underflow.  The few-ulp
        accuracy rests on ĉ ≥ 0, where no term is negative.  ĉ is not clamped,
        since the identity holds for any ĉ: a negative that validation admits
        (down to −PSD_TOL·‖C_k‖_F) adds its terms' size to the error.
        """
        n = self.n
        m = [0.0] + [1.0 if 2 * j == n else 2.0 for j in range(1, n // 2 + 1)]
        p = [mj * (x.real**2 + x.imag**2) / n for mj, x in zip(m, _rfft(self.split.u))]
        c_hat = [t.spectrum for t in (self.base, *self.terms)]
        top = max(abs(x) for c in c_hat for x in c[1:])
        e = max(0, math.frexp(top)[1] - 480)
        if e:
            c_hat = [[math.ldexp(x, -e) for x in c] for c in c_hat]
        pc = [list(map(mul, p, c)) for c in c_hat]
        h = [math.fsum(r) for r in pc]
        # (m_j − 1)·h_l + Σ_{i≠j} p_i·ĉ_li is 2h_l − p_j·ĉ_lj ≥ h_l where m_j = 2;
        # at j = N/2, where m_j = 1 and h − p·ĉ may cancel, sum the other terms
        x = [[mj * hl - v for mj, v in zip(m[1:], r[1:])] for hl, r in zip(h, pc)]
        if n % 2 == 0:
            for xl, r in zip(x, pc):
                xl[-1] = math.fsum(r[:-1])
        mm = [[math.fsum(map(mul, ck[1:], xl)) for xl in x] for ck in c_hat]
        mm = [[(a + b) / 2 for a, b in zip(row, col)] for row, col in zip(mm, zip(*mm))]
        mc = [list(map(mul, m, c)) for c in c_hat]
        g = [[math.fsum(map(mul, a, c)) for c in c_hat] for a in mc]
        # with every w ≤ e^t, Σ_kl |X_kl|·w_k·w_l ≤ (K + 1)²·max|X|·e^{2t} = DBL_MAX/2,
        # and w_k·w_l ≤ DBL_MAX/2
        top = max(abs(x) for row in (*mm, *g) for x in row)
        t = (math.log(sys.float_info.max / 2) - math.log(max(1.0, len(c_hat) ** 2 * top))) / 2
        return mm, h, g, e, t


def _validate_coef(
    name: str, s: float, c: list, n: int, dense: bool, violations: list[str], unit: int = 0
) -> ExpTerm | None:
    """Validate one coefficient, given as n rows of n floats (``dense``) or
    as a length-n generator row, in units of 2^unit.

    The family keeps circ(r), r = (row + row reversed)/2 the symmetrised
    first row, and κ reads only its spectrum, the real DFT of r.  So C is
    valid when ‖C − circ(r)‖_F ≤ EQUIVARIANCE_TOL·max(1, ‖C‖_F) and that
    spectrum is at least −PSD_TOL on the same scale.  circ(r) commutes with
    the cyclic shift and the reversal, which generate D_N, so C commutes with
    each of them to twice the bound.  An exact symmetric circulant is at
    distance 0, and its ‖C‖_F is read off its row.  Finite entries whose
    ‖C‖_F overflows are validated again in units of 2^k, 2^k just above
    their largest magnitude, where the gap, ‖C‖_F and r are finite.

    Appends the violations found, and returns the term of r when C is within
    the bound, PSD or not, else None.
    """
    def circ(g: list[float]) -> Iterator[list[float]]:  # the rows of circ(g)
        ext = g + g
        return (ext[n - i : 2 * n - i] for i in range(n))

    row = c[0] if dense else c
    rev = [row[0], *row[:0:-1]]  # row[(n − j) mod n]
    # row == rev makes r = row, barring overflow of a + b, and C = circ(r)
    exact = row == rev and (not dense or all(map(eq, c, circ(row))))
    # an exact circulant's entries are its row's, n times over
    flat = row if exact or not dense else list(chain.from_iterable(c))
    norm = math.hypot(*flat)  # inf or nan if an entry is, or on overflow
    if not math.isfinite(norm) and not all(map(math.isfinite, flat)):
        violations.append(f"{name}: has non-finite entries")
        return None
    scale = max(math.ldexp(1.0, -unit), norm * (math.sqrt(n) if flat is row else 1.0))  # ‖C‖_F
    if scale == math.inf:
        k = math.frexp(max(map(abs, flat)))[1]
        c = [[math.ldexp(x, -k) for x in r] for r in c] if dense else [math.ldexp(x, -k) for x in c]
        return _validate_coef(name, s, c, n, dense, violations, k)
    r = [(a + b) / 2 for a, b in zip(row, rev)]
    if not exact:
        if dense:
            gap = math.hypot(*map(math.dist, c, circ(r)))
        else:
            gap = math.sqrt(n) * math.dist(row, r)
        if gap > EQUIVARIANCE_TOL * scale:
            gap *= 2.0 ** (unit - 1) * 2  # inf where it overflows, which ldexp would raise
            violations.append(
                f"{name}: not a symmetric circulant "
                f"(||C - circ(r)||_F = {gap:.3e}, r its symmetrised first row)"
            )
            return None
    term = ExpTerm(s, [math.ldexp(x, unit) for x in r] if unit else r)
    if not all(map(math.isfinite, term.spectrum)):  # finite entries near the float limit
        violations.append(f"{name}: spectrum overflows a float")
        return None
    low = min(term.spectrum)
    if math.ldexp(low, -unit) < -PSD_TOL * scale:
        violations.append(f"{name}: not PSD (min eigenvalue = {low:.3e})")
    return term


def make_family(
    n: int,
    m_rho_sq: float,
    u_raw: Sequence[float],
    c0: Sequence[float] | Sequence[Sequence[float]],
    terms: Sequence[tuple[float, Sequence[float] | Sequence[Sequence[float]]]],
) -> HessianFamily:
    """Assemble and validate a Hessian family.

    ``n`` is read by :func:`~.floatlaw._count`, at least 3.  Each
    coefficient is an (n, n) matrix or the length-n generator row g of the
    circulant ``C[i, j] = g[(j − i) mod n]``, as nested sequences or a numpy
    array, and is stored as circ(r), r its symmetrised first row.  Each
    number is read by :func:`_number`, which names the field it refuses.
    Validation collects *all* violations — bad shapes, non-finite entries, a
    C farther than EQUIVARIANCE_TOL·max(1, ‖C‖_F) from circ(r), indefiniteness
    — and raises one :class:`FamilyValidationError` listing every offender.
    A negative control that no valid family can be, such as one with an
    indefinite coefficient, is built from its rows with the
    :class:`HessianFamily` and :class:`ExpTerm` constructors, which check
    nothing.
    """
    split = build_split(n, m_rho_sq, u_raw)
    n = split.n
    violations: list[str] = []
    built = []
    for k, (s, c) in enumerate([(0.0, c0), *terms]):
        field = f"terms[{k - 1}]" if k else "C0"
        s, entries = _number(s, f"{field}.s"), _floats(c, f"{field}.C" if k else field)
        if k and not math.isfinite(s):
            violations.append(f"{field}: exponent s = {s} is not finite")
        name = f"{field}.C (s={s:g})" if k else field
        dense = _is_matrix(entries, n)
        if not dense and not _is_row(entries, n):
            violations.append(f"{name}: {_shape_error(entries, n)}")
            continue
        built.append(_validate_coef(name, s, entries, n, dense, violations))
    if violations:
        raise FamilyValidationError(violations)
    return HessianFamily(split, built[0], built[1:])


# ---------------------------------------------------------------------------
# family file format


def _matrix_from_spec(obj: object, n: int, name: str) -> list:
    """Decode a matrix entry, a circulant generator (kept as its row) or
    nested rows, as a row or as n rows of n floats.  Any other list, a flat
    row-major one included, is refused."""
    if isinstance(obj, dict):
        if set(obj.keys()) != {"circulant"}:
            raise ValueError(f"{name}: matrix object must have exactly the key 'circulant'")
        g = obj["circulant"]
        if not isinstance(g, list) or len(g) != n:
            raise ValueError(f"{name}: circulant generator must be a list of {n} numbers")
        return _floats(g, f"{name}.circulant", 1)
    if isinstance(obj, list):
        if len(obj) == n and all(isinstance(row, list) and len(row) == n for row in obj):
            return _floats(obj, name)
        raise ValueError(
            f'{name}: expected {n} rows of {n} numbers or {{"circulant": [{n} numbers]}}'
        )
    raise ValueError(f"{name}: unsupported matrix encoding {type(obj).__name__}")


def family_from_dict(data: dict) -> HessianFamily:
    """Build and validate a family from the JSON document form.

    Schema: ``{"N": int, "m_rho_sq": number, "u": [numbers], "C0": matrix,
    "terms": [{"s": number, "C": matrix}]}`` where a matrix is either N rows
    of N numbers or ``{"circulant": [generator]}``; a flat row-major list is
    refused.  N is read by :func:`~.floatlaw._count`, at least 3.
    """
    required = {"N", "m_rho_sq", "u", "C0", "terms"}
    missing = required - set(data.keys())
    if missing:
        raise ValueError(f"family document missing keys: {sorted(missing)}")
    n = _count(data["N"], "N", 3)
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
    u_raw = _floats(u, "u", 1)
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


def _weights(
    fam: HessianFamily, thetas: Sequence[float]
) -> tuple[list[float], list[list[float]]]:
    """r and the scaled weights ``e^{s_kθ − r}`` at each θ, C₀'s (s = 0) first:
    r = 0, and the weights are the e^{sθ}, unless the largest s_kθ passes the
    family's bound t; then r = max_k s_kθ − t, and no weight passes e^t."""
    *_, t = fam._kappa_form
    exponents = [float(x.s) for x in fam.terms]
    lo, hi = min([0.0, *exponents]), max([0.0, *exponents])
    # rounding is monotone: the largest s_k·θ is hi·θ for θ ≥ 0 and lo·θ below
    r = [max(0.0, x * (hi if x >= 0 else lo) - t) for x in thetas]
    w = [list(map(math.exp, map(sub, map(s.__mul__, thetas), r))) for s in exponents]
    return r, [list(map(math.exp, map(neg, r))), *w]


def _curvatures(fam: HessianFamily, thetas: Sequence[float]) -> list[float]:
    """κ_Schur at each θ, from the family's ``(M, h, G)`` at the weights of
    :func:`_weights`.

    The pair products w_k·w_l and h are built along the grid.  Then each θ,
    in grid order, forms ‖P H P‖_F² = wᵀGw itself, not a bound on it; raises
    the singular-block ``ValueError`` if ``h ≤ ‖P H P‖_F/COND_LIMIT``; takes
    κ = 2^e·e^r·wᵀMw/((N − 2)·hᵀw), with e^r in finite factors, so that a κ
    just below the largest float is returned; and raises ``OverflowError``
    naming θ if κ is not a finite float.  A θ gets the same bits alone or
    inside a grid.
    """
    mm, h_k, g, e, _ = fam._kappa_form
    rs, w = _weights(fam, thetas)
    # M and G are symmetric: w_k·w_l·X_kl + w_l·w_k·X_lk = w_k·w_l·(2·X_kl), exactly
    pairs = [(k, l, 1.0 if k == l else 2.0) for k in range(len(w)) for l in range(k, len(w))]
    ww = [list(map(mul, w[k], w[l])) for k, l, _ in pairs]
    h = [0.0] * len(thetas)
    for col, hk in zip(w, h_k):
        h = list(map(add, h, map(hk.__mul__, col)))
    g2 = [two * g[k][l] for k, l, two in pairs]
    m2 = [two * mm[k][l] for k, l, two in pairs]
    dim = fam.split.dim_band
    unit = 2.0**e
    kappas = []
    for theta, hi, r, row in zip(thetas, h, rs, zip(*ww)):
        gi = sum(map(mul, g2, row))
        scale = math.sqrt(gi) if gi >= 0 else math.nan
        if not hi > scale / COND_LIMIT:
            raise ValueError(
                f"collective block is numerically singular at theta={theta:g} "
                f"(h_oo = {hi:.3e}, ‖H‖_F = {scale:.3e})"
            )
        kappa = math.fsum(map(mul, row, m2)) / hi / dim * unit  # fsum rounds each wᵀMw once
        # e^709 ≈ 8e307 a factor: a nonzero κ leaves the float range within three
        while r > 0 and kappa and math.isfinite(kappa):
            step = min(r, 709.0)
            kappa *= math.exp(step)
            r -= step
        if not math.isfinite(kappa):
            raise OverflowError(f"κ overflows a float at theta={theta:g}")
        kappas.append(kappa)
    return kappas


def schur_curvature(fam: HessianFamily, theta: float) -> float:
    """Band-normalized trace of the Schur complement at θ, wᵀMw/((N − 2)·hᵀw)."""
    if not math.isfinite(theta):
        raise ValueError(f"theta = {theta} is not finite")
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
    points = _count(points, "points", 3)
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
