"""Tests for the equivariant Hessian family and its Schur-complement curvature."""

import json
import math
import random
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from goldenschur.floatlaw import quadratic_law_fit
from goldenschur.oracle import (
    assemble_hessian,
    band_basis,
    band_projector,
    block_hessian,
    circulant,
    dense_curvature,
    exact_kappa,
    matrix_convexity_check,
    random_family,
    random_symmetric_psd_circulant,
    reversal_matrix,
    schur_complement,
    shift_matrix,
    strict_convexity_witness,
    variational_check,
    variational_expression,
)
from goldenschur.oracle import LOEWNER_TOL, _ldl_pivots, _normals
from goldenschur.qfield import QSTAR
from goldenschur.schur import (
    EQUIVARIANCE_TOL,
    PSD_TOL,
    ExpTerm,
    FamilyValidationError,
    HessianFamily,
    build_split,
    family_from_dict,
    kappa_convexity_scan,
    load_family,
    make_family,
    schur_curvature,
)
from goldenschur.schur import _DIRECT_MAX, _chirp, _dft, _grid, _rfft, _roots, _weights

RNG_SEED = 20260819
FIXTURES = Path(__file__).parent / "fixtures"


def family_doc():
    """The N = 6 family of ``tests/fixtures/ci-family.json``, u = cos(2πk/6)."""
    return json.loads((FIXTURES / "ci-family.json").read_text())


def ring_family(*, s1=1.0):
    """The fixture family, with the exponent of its first term set to s1."""
    doc = family_doc()
    doc["terms"][0]["s"] = s1
    return family_from_dict(doc)


def row_family(u_raw, row0, terms):
    """A family built from its generator rows with no validation, as a
    negative control that no validated family can be (m_ρ² = 2)."""
    return HessianFamily(
        build_split(len(row0), 2.0, u_raw),
        ExpTerm(0.0, np.asarray(row0, dtype=float)),
        tuple(ExpTerm(s, np.asarray(g, dtype=float)) for s, g in terms),
    )


def np_psd_circulant(n, rng):
    """A·Aᵀ/n, A the circulant of a standard normal row from a numpy Generator:
    the PSD coefficient that ``random_family`` drew before it drew from
    :class:`random.Random`, kept so that the tests hold the same families."""
    a = np.array(circulant(rng.standard_normal(n)))
    c = a @ a.T / n
    return (c + c.T) / 2


def np_random_family(n, rng, *, n_terms=2, dense=False):
    """The family that ``random_family`` drew from a numpy Generator, with
    its coefficients passed as their rows, or as dense matrices."""
    u_raw = rng.standard_normal(n)
    while np.linalg.norm(u_raw - u_raw.mean()) < 1e-6:
        u_raw = rng.standard_normal(n)
    c0 = np_psd_circulant(n, rng) + 0.5 * np.eye(n)
    terms = []
    for _ in range(n_terms):
        s = float(rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0]))
        terms.append((s, np_psd_circulant(n, rng)))
    if not dense:
        c0, terms = c0[0], [(s, c[0]) for s, c in terms]
    return make_family(n, 2.0, u_raw, c0, terms)


# ---------------------------------------------------------------------------
# circulant helpers
# ---------------------------------------------------------------------------


def test_circulant_layout():
    c = circulant([1.0, 2.0, 3.0, 4.0])
    assert type(c) is list and all(type(row) is list for row in c)
    assert c[0] == [1.0, 2.0, 3.0, 4.0]
    # row i is the generator rotated right: C[i, j] = g[(j − i) mod n]
    assert c[1] == [4.0, 1.0, 2.0, 3.0]
    assert c[2][0] == 3.0
    # a numpy row is read through tolist(); a stack of rows is refused
    assert circulant(np.arange(4.0)) == circulant([0.0, 1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match=r"^generator\[0\]: expected a number, got \[0\.0"):
        circulant(np.arange(12.0).reshape(3, 4))


def test_circulant_commutes_with_shift():
    s = np.array(shift_matrix(5))
    c = np.array(circulant([1.0, 2.0, 0.0, 0.0, 2.0]))
    assert np.allclose(s @ c, c @ s)
    r = np.array(reversal_matrix(5))
    assert np.allclose(r @ c, c @ r)  # symmetric generator → reversal-invariant


def test_shift_and_reversal_are_permutations():
    s, r = np.array(shift_matrix(6)), np.array(reversal_matrix(6))
    assert np.allclose(s @ s.T, np.eye(6))
    assert np.allclose(r @ r, np.eye(6))
    v = np.arange(6.0)
    assert (s @ v).tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 0.0]
    assert (r @ v).tolist() == [0.0, 5.0, 4.0, 3.0, 2.0, 1.0]


def test_random_psd_circulant():
    # the cyclic autocorrelation of g is the row of circ(g)·circ(g)ᵀ/n
    for seed in range(20):
        n = 3 + seed % 10
        row = random_symmetric_psd_circulant(n, random.Random(seed))
        draw = random.Random(seed)
        a = np.array(circulant([draw.gauss(0.0, 1.0) for _ in range(n)]))
        c = np.array(circulant(row))
        assert all(row[j] == row[-j] for j in range(n))  # symmetric, bit for bit
        assert np.allclose(c, a @ a.T / n, rtol=0, atol=1e-14)
        assert np.linalg.eigvalsh(c).min() >= -1e-12
        s = np.array(shift_matrix(n))
        assert np.allclose(s @ c, c @ s)


# ---------------------------------------------------------------------------
# spectra and the θ grid
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [*range(1, 65), 255, 256, 257, 1009])
def test_rfft_matches_numpy(n):
    # numpy's rfft as the oracle, for every route of the transform: a direct
    # DFT of at most 8 points (7, and 16 as 8 complex pairs) or of an odd
    # block up to 15 (15, 30 = 2·15), radix-2 halving down to one (2ᵏ,
    # 48 = 2⁴·3) and Bluestein's chirp-z for an odd block of 17 or more (17,
    # 34 = 2·17, 255, 257, 1009).  Each bin is within 4·ε·log₂(2N)·‖x‖₂ of
    # numpy's, on a random row and on its symmetrization, the rows that
    # families store.
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    for row in (x, (x + x[(n - np.arange(n)) % n]) / 2):
        got = np.array(_rfft(row.tolist()))
        assert got.shape == (n // 2 + 1,)
        bound = 4 * np.finfo(float).eps * math.log2(2 * n) * np.linalg.norm(row)
        assert np.max(np.abs(got - np.fft.rfft(row))) <= bound


@pytest.mark.parametrize("n", [255, 256, 257, 1009])
def test_fft_builds_no_direct_dft_longer_than_the_threshold(monkeypatch, n):
    # radix-2 halving and Bluestein's chirp-z bring these lengths down to
    # blocks of at most _DIRECT_MAX points: O(N log N) time, and no DFT
    # matrix of N² entries
    sizes = []

    def dft(m):
        sizes.append(m)
        return _dft(m)

    monkeypatch.setattr("goldenschur.schur._dft", dft)
    _chirp.cache_clear()  # so that the chirp's own transform is traced too
    _rfft([1.0] * n)
    assert sizes and max(sizes) <= _DIRECT_MAX


def test_twiddles_at_multiples_of_30_and_45_degrees_are_correctly_rounded():
    # e^{−2πij/n} at 2πj/n = k·30° and k·45°: 0, ±½, ±√½, ±√3/2 and ±1 as the
    # nearest floats, not as sines of a rounded angle
    half, root2, root3 = 0.5, math.sqrt(0.5), math.sqrt(3) / 2
    assert _roots(12) == tuple(
        complex(c, -s) for c, s in [
            (1.0, 0.0), (root3, half), (half, root3), (0.0, 1.0), (-half, root3), (-root3, half),
            (-1.0, 0.0), (-root3, -half), (-half, -root3), (0.0, -1.0), (half, -root3),
            (root3, -half),
        ]
    )
    assert _roots(8)[1::2] == (complex(root2, -root2), complex(-root2, -root2),
                               complex(-root2, root2), complex(root2, root2))


@given(
    a=st.floats(allow_nan=False, allow_infinity=False),
    b=st.floats(allow_nan=False, allow_infinity=False),
    points=st.integers(3, 1001),
)
@example(a=0.0, b=5e-324, points=3)  # the step underflows to 0
@example(a=0.0, b=1.7976931348623157e308, points=19)
def test_theta_grid_is_numpy_linspace(a, b, points):
    # the grid of kappa_convexity_scan, bit for bit, subnormal steps included
    assume(a < b and math.isfinite(b - a))
    with np.errstate(over="ignore"):  # numpy may overflow at the last point, which it replaces by b
        want = np.linspace(a, b, points).tolist()
    assert [x.hex() for x in _grid(a, b, points)] == [x.hex() for x in want]


# ---------------------------------------------------------------------------
# the splitting geometry
# ---------------------------------------------------------------------------


def test_build_split_geometry():
    n = 6
    u_raw = [math.cos(2 * math.pi * k / n) for k in range(n)]
    split = build_split(n, 2.0, u_raw)
    assert split.n == n and split.dim_band == n - 2
    assert type(split.u) is tuple and all(type(x) is float for x in split.u)
    ones = np.ones(n) / math.sqrt(n)
    u = np.asarray(split.u)
    # u is mean-free and unit
    assert abs(u @ ones) < 1e-14
    assert math.isclose(u @ u, 1.0, rel_tol=1e-14)
    # P_B is the orthogonal projector onto the complement of span{1, u}
    p = np.array(band_projector(split))
    assert np.allclose(p, p.T)
    assert np.allclose(p @ p, p)
    assert np.allclose(p @ ones, 0.0)
    assert np.allclose(p @ u, 0.0)
    assert math.isclose(np.trace(p), n - 2, rel_tol=1e-13)
    # band basis spans the range of P_B
    b = np.array(band_basis(split))
    assert b.shape == (n, n - 2)
    assert np.allclose(b.T @ b, np.eye(n - 2))
    assert np.allclose(b @ b.T, p)
    assert np.allclose(b.T @ ones, 0.0)
    assert np.allclose(b.T @ u, 0.0)


@pytest.mark.parametrize("seed", range(12))
def test_band_basis_spans_the_svd_null_space(seed):
    # the Householder basis against an SVD of the rows 1/√n and u: the same
    # subspace (equal projectors), orthonormal to rounding
    draw = random.Random(seed)
    n = draw.randrange(3, 20)
    split = build_split(n, 2.0, [draw.gauss(0.0, 1.0) for _ in range(n)])
    rows = np.vstack([np.full(n, 1.0 / math.sqrt(n)), split.u])
    null = np.linalg.svd(rows, full_matrices=True)[2][2:].T
    b = np.array(band_basis(split))
    assert b.shape == (n, n - 2)
    assert np.abs(b.T @ b - np.eye(n - 2)).max() <= 1e-14
    assert np.abs(b @ b.T - null @ null.T).max() <= 1e-14
    assert np.abs(np.array(band_projector(split)) - b @ b.T).max() <= 1e-14


def test_build_split_mean_removal():
    # adding a constant to u_raw changes nothing
    n = 8
    base = [math.sin(2 * math.pi * k / n) + 0.3 * math.cos(4 * math.pi * k / n) for k in range(n)]
    s1 = build_split(n, 2.0, base)
    s2 = build_split(n, 2.0, [x + 5.0 for x in base])
    assert np.allclose(s1.u, s2.u)
    assert np.allclose(band_projector(s1), band_projector(s2))


def test_build_split_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_split(2, 2.0, [1.0, -1.0])  # needs n ≥ 3
    with pytest.raises(ValueError):
        build_split(5, 0.0, [1, 0, 0, 0, -1])  # mass must be positive
    with pytest.raises(ValueError):
        build_split(5, 2.0, [2.0] * 5)  # u parallel to the uniform direction
    with pytest.raises(ValueError):
        build_split(5, 2.0, [1.0, 0.0, 0.0])  # wrong length
    with pytest.raises(ValueError, match="non-finite"):
        build_split(5, 2.0, [1.0, math.nan, 0.0, 0.0, -1.0])


def test_build_split_rejects_an_infinite_mass():
    # inf > 0, so positivity alone admits it; NaN and values ≤ 0 stay "positive"
    u_raw = [1.0, 0.0, 0.0, 0.0, -1.0]
    with pytest.raises(ValueError, match=r"^m_rho_sq must be finite, got inf$"):
        build_split(5, math.inf, u_raw)
    for m_rho_sq in (math.nan, 0.0, -math.inf):
        with pytest.raises(ValueError, match=r"^m_rho_sq must be positive, got "):
            build_split(5, m_rho_sq, u_raw)


_U4, _G4 = [1, 0, 0, -1], [2, 0, 0, 0]


def _family4(u, c0, terms):
    return partial(make_family, 4, 2.0, u, c0, terms)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            _family4(
                ["1", 0, 0, True], ["2", "0.5", "0", "0.5"], [("1", [True, False, False, False])]
            ),
            'u[0]: expected a number, got "1"',
        ),
        (partial(build_split, 4, True, [1, 0, 0, 0]), "m_rho_sq: expected a number, got true"),
        (_family4([1, 0, 0, True], _G4, []), "u[3]: expected a number, got true"),
        (_family4(_U4, ["2", "0.5", "0", "0.5"], []), 'C0[0]: expected a number, got "2"'),
        (_family4(_U4, [2, 0, 0, Fraction(1, 2)], []), 'C0[3]: expected a number, got "Fraction(1, 2)"'),
        (_family4(_U4, [["1"] * 4] * 4, []), 'C0[0][0]: expected a number, got "1"'),
        (
            _family4(_U4, _G4, [(1, [True, False, False, False])]),
            "terms[0].C[0]: expected a number, got true",
        ),
        (
            _family4(_U4, _G4, [(1, [_G4] * 3 + [[0, None, 0, 0]])]),
            "terms[0].C[3][1]: expected a number, got null",
        ),
        (_family4(_U4, _G4, [("1", _G4)]), 'terms[0].s: expected a number, got "1"'),
        (_family4(_U4, _G4, [(None, _G4)]), "terms[0].s: expected a number, got null"),
    ],
    ids=["every-field", "mass-bool", "u-bool", "row-str", "row-fraction", "dense-str", "term-bool",
         "term-none", "s-str", "s-none"],
)
def test_make_family_reads_numbers_as_family_from_dict_does(call, message):
    # an int or a float and not a bool: a string, a bool, None or a Fraction
    # is refused by its field, not turned into a number or a bare TypeError
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call()


def test_make_family_reads_numpy_values_and_ints_as_floats():
    g = [2.0, 0.5, 0.0, 0.5]
    ref = make_family(4, 2.0, [1.0, 0.0, 0.0, -1.0], g, [(1.0, circulant(g))])
    for fam in (
        make_family(
            4, np.float64(2.0), np.array(_U4, np.float32), np.array(g, np.float32),
            [(np.float32(1.0), np.array(circulant(g), np.float32))],
        ),
        make_family(4, 2, tuple(_U4), tuple(g), [(1, circulant(g))]),
    ):
        assert fam.split.u == ref.split.u and fam.split.m_rho_sq == 2.0
        assert fam.base.c == ref.base.c
        assert [(t.s, t.c) for t in fam.terms] == [(1.0, ref.terms[0].c)]
    fam = make_family(4, 2, _U4, [4, 1, 0, 1], [(1, np.array(circulant([4, 1, 0, 1]), int))])
    assert fam.base.c == fam.terms[0].c == (4.0, 1.0, 0.0, 1.0)


def test_family_size_is_read_as_a_python_int():
    # an integer of any type sizes a family as the Python int it equals, so κ
    # is a Python float; a bool or a float is refused with the message that
    # family files get, not a bare TypeError from range()
    g = [2.0, 0.5, 0.0, 0.5]
    ref = make_family(4, 2.0, _U4, g, [(1.0, g)])
    for n in (np.int64(4), np.uint8(4), np.int16(4)):
        fam = make_family(n, 2.0, _U4, g, [(1.0, g)])
        assert type(fam.n) is int and type(fam.split.n) is int
        kappa = schur_curvature(fam, -0.5)
        assert type(kappa) is float and kappa == schur_curvature(ref, -0.5)
        assert type(build_split(n, 2.0, _U4).n) is int
    doc = family_doc()
    doc["N"] = np.int64(6)
    assert type(family_from_dict(doc).n) is int
    for n in (4.0, np.float64(4.0), True, np.True_, 2, np.int64(2), "4", None):
        message = f"N must be an integer >= 3, got {n!r}"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            make_family(n, 2.0, _U4, g, [(1.0, g)])
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            build_split(n, 2.0, _U4)


# ---------------------------------------------------------------------------
# family construction and validation
# ---------------------------------------------------------------------------


def test_make_family_and_assemble():
    # H(θ), the circulant of the weighted row, has the bits of the sum of the
    # dense terms, on the fixture family and on random ones
    rng = np.random.default_rng(RNG_SEED + 5)
    fams = [np_random_family(int(rng.integers(3, 40)), rng, n_terms=int(rng.integers(0, 4)))
            for _ in range(40)]
    for fam in (ring_family(), *fams):
        for theta in (0.0, -0.7, float(rng.uniform(-3.0, 1.0))):
            h = np.array(assemble_hessian(fam, theta))
            expected = np.array(circulant(fam.base.c))
            for t in fam.terms:
                expected = expected + math.exp(t.s * theta) * np.array(circulant(t.c))
            assert np.array_equal(h, expected)
            assert np.array_equal(h, h.T)


def test_validation_collects_all_violations():
    n = 5
    u = [1.0, 0.0, 0.0, 0.0, -1.0]
    good = circulant([1.0, 0.2, 0.0, 0.0, 0.2])
    asym = np.eye(n)
    asym[0, 1] = 1.0  # not symmetric
    with pytest.raises(FamilyValidationError) as err:
        make_family(n, 2.0, u, asym, [(1.0, good)])
    assert any("symmetric" in v for v in err.value.violations)


def test_validation_rejects_non_psd():
    n = 6
    u = [math.cos(2 * math.pi * k / n) for k in range(n)]
    indefinite = np.eye(n) - 0.75 * np.array(circulant([0.0, 1.0, 0.0, 0.0, 0.0, 1.0]))
    assert np.linalg.eigvalsh(indefinite).min() < -0.4
    with pytest.raises(FamilyValidationError) as err:
        make_family(n, 2.0, u, indefinite, [])
    assert any("PSD" in v for v in err.value.violations)
    # the negative control, built from its row
    fam = row_family(u, indefinite[0], [])
    assert np.linalg.eigvalsh(np.array(assemble_hessian(fam, 0.0))).min() < -0.4


def test_validation_rejects_non_equivariant():
    n = 5
    u = [math.cos(2 * math.pi * k / n) for k in range(n)]
    non_circ = np.diag([1.0, 2.0, 1.0, 1.0, 1.0])
    with pytest.raises(FamilyValidationError) as err:
        make_family(n, 2.0, u, non_circ, [])
    # r = (1, 0, 0, 0, 0): C − circ(r) = diag(0, 1, 0, 0, 0)
    assert err.value.violations == [
        "C0: not a symmetric circulant (||C - circ(r)||_F = 1.000e+00, r its symmetrised first row)"
    ]


def test_validation_rejects_a_dense_coefficient_that_commutes_to_the_tolerance():
    # C = circ(2, ½, 0, …, 0, ½) + ε·diag(cos 2πi/64) commutes with the
    # reversal exactly and with the shift to 0.9e-10·‖C‖_F, yet the circulant
    # kept of its first row, circ(g) + ε·I, is 1.59e-9·‖C‖_F away from it
    n = 64
    g = np.zeros(n)
    g[0], g[1], g[-1] = 2.0, 0.5, 0.5
    c = np.array(circulant(g)) + 2.75e-9 * np.diag(np.cos(2 * np.pi * np.arange(n) / n))
    norm = np.linalg.norm(c)
    s, r = np.array(shift_matrix(n)), np.array(reversal_matrix(n))
    assert np.linalg.norm(c @ s - s @ c) == pytest.approx(0.9e-10 * norm, rel=1e-3)
    assert np.linalg.norm(c @ r - r @ c) == 0.0
    assert np.linalg.norm(c - circulant(c[0])) == pytest.approx(1.59e-9 * norm, rel=1e-2)
    u = [math.cos(2 * math.pi * k / n) for k in range(n)]
    with pytest.raises(FamilyValidationError) as err:
        make_family(n, 2.0, u, c, [])
    assert err.value.violations == [
        "C0: not a symmetric circulant (||C - circ(r)||_F = 2.694e-08, r its symmetrised first row)"
    ]


@pytest.mark.parametrize("circulant_encoded", [True, False])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_validation_names_non_finite_entries(circulant_encoded, bad):
    n = 5
    u = [math.cos(2 * math.pi * k / n) for k in range(n)]
    g = [2.0, 0.5, 0.0, 0.0, 0.5]
    broken = g[:2] + [bad] + g[3:]
    encode = (lambda row: row) if circulant_encoded else circulant
    with pytest.raises(FamilyValidationError) as err:
        make_family(n, 2.0, u, encode(broken), [(1.0, encode(g)), (-0.5, encode(broken))])
    assert err.value.violations == [
        "C0: has non-finite entries",
        "terms[1].C (s=-0.5): has non-finite entries",
    ]


def test_validation_names_a_spectrum_that_overflows():
    # finite entries whose transform overflows: the spectrum, NaN here, would
    # pass the PSD test, since NaN compares false, and the κ form could not
    # hold it
    n = 6
    u = [math.cos(2 * math.pi * k / n) for k in range(n)]
    huge = [1e308, 0.0, 0.0, 0.0, 0.0, 0.0]
    with pytest.raises(FamilyValidationError) as err:
        make_family(n, 2.0, u, huge, [(1.0, [1.0, 0.5, 0.0, 0.0, 0.0, 0.5])])
    assert err.value.violations == ["C0: spectrum overflows a float"]


def test_validation_rejects_a_coefficient_whose_norm_overflows():
    # finite entries whose ‖C‖_F overflows are measured in units of a power
    # of 2 near the largest: a scale of inf would let any gap and any
    # negative eigenvalue through
    u4, u16 = [1, 0, 0, -1], [1] + [0] * 14 + [-1]
    with pytest.raises(FamilyValidationError) as err:
        make_family(4, 2.0, u4, [[1.0, 0, 0, 0]] + [[1e308] * 4] * 3, [])
    assert err.value.violations == [
        "C0: not a symmetric circulant (||C - circ(r)||_F = inf, r its symmetrised first row)"
    ]
    with pytest.raises(FamilyValidationError) as err:
        make_family(4, 2.0, u4, [[1e300, 0, 0, 0]] + [[1e300] * 4] * 3, [])
    assert err.value.violations == [
        "C0: not a symmetric circulant (||C - circ(r)||_F = 3.000e+300, r its symmetrised first row)"
    ]
    row = [-5e307] + [0.0] * 15  # ‖C‖_F = 4·5e307 overflows, ‖row‖ does not
    for coef in (row, circulant(row)):
        with pytest.raises(FamilyValidationError) as err:
            make_family(16, 2.0, u16, coef, [])
        assert err.value.violations == ["C0: not PSD (min eigenvalue = -5.000e+307)"]
    # a PSD one is kept as it is, bit for bit
    row = [5e307, 1e307] + [0.0] * 13 + [1e307]
    for coef in (row, circulant(row)):
        assert make_family(16, 2.0, u16, coef, []).base.c == tuple(row)


@pytest.mark.parametrize("n", [5, 6])
def test_unvalidated_family_rejects_wrong_shape(n):
    # no family is left unvalidated: a coefficient of the wrong shape is named
    u = [math.cos(2 * math.pi * k / n) for k in range(n)]
    short = [2.0, 0.5, 0.0, 0.5]
    with pytest.raises(FamilyValidationError) as err:
        make_family(n, 2.0, u, short, [(1.0, short)])
    assert err.value.violations == [
        f"C0: shape (4,) != ({n}, {n})",
        f"terms[0].C (s=1): shape (4,) != ({n}, {n})",
    ]
    # a list of rows whose first entries have the shape asked for is named by
    # what is wrong with the rest
    g = [2.0, 0.5] + [0.0] * (n - 3) + [0.5]
    with pytest.raises(FamilyValidationError) as err:
        make_family(n, 2.0, u, [g] * (n - 1) + [1.0], [(1.0, [g] * (n - 1) + [g[:-1]])])
    assert err.value.violations == [
        f"C0: a list mixing rows and numbers, expected {n} numbers or {n} rows of {n}",
        f"terms[0].C (s=1): rows of unequal lengths, expected {n} rows of {n}",
    ]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_unvalidated_family_rejects_non_finite_exponent(bad):
    # κ of such a family could only fail later as a "singular" collective
    # block; the exponent is named up front
    n = 6
    u = [math.cos(2 * math.pi * k / n) for k in range(n)]
    g = [2.0, 0.5, 0.0, 0.0, 0.0, 0.5]
    with pytest.raises(FamilyValidationError) as err:
        make_family(n, 2.0, u, g, [(1.0, g), (bad, g)])
    assert err.value.violations == [f"terms[1]: exponent s = {bad} is not finite"]


def circulant_rule_accepts(c):
    """The validation rule in numpy: C within EQUIVARIANCE_TOL·max(1, ‖C‖_F)
    of circ(r), r its symmetrised first row, and circ(r) PSD to PSD_TOL."""
    scale = max(1.0, float(np.linalg.norm(c)))
    kept = np.array(circulant((c[0] + np.roll(c[0][::-1], 1)) / 2))
    psd = np.linalg.eigvalsh(kept)[0] >= -PSD_TOL * scale
    return psd and np.linalg.norm(c - kept) <= EQUIVARIANCE_TOL * scale


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(3, 40),
    seed=st.integers(0, 2**32 - 1),
    shift=st.sampled_from([-1e-3, -1e-9, -3e-10, -3e-11, 0.0, 1e-3]),
    delta=st.sampled_from([0.0, 1e-12, 2e-11, 6e-11, 3e-10, 1e-3]),
    mirrored=st.booleans(),
    circulant_encoded=st.booleans(),
)
def test_validation_matches_dense_rule(n, seed, shift, delta, mirrored, circulant_encoded):
    # a symmetric circulant whose smallest eigenvalue is shift·‖C‖_F, then one
    # entry (of the row, or of the matrix and, when mirrored, its transpose)
    # moved by delta·‖C‖_F
    rng = np.random.default_rng(seed)
    half = rng.uniform(0.5, 1.5, n // 2 + 1)
    spectrum = np.concatenate([half, half[1 : (n + 1) // 2][::-1]])
    spectrum -= spectrum.min()
    spectrum += shift * np.linalg.norm(spectrum)
    g = np.fft.ifft(spectrum).real
    g = (g + np.roll(g[::-1], 1)) / 2
    scale = np.linalg.norm(spectrum)
    if circulant_encoded:
        k = int(rng.integers(n))
        g[k] += delta * scale
        coef, c = g, np.array(circulant(g))
    else:
        c = np.array(circulant(g))
        i, j = (int(x) for x in rng.integers(n, size=2))
        c[i, j] += delta * scale
        if mirrored and i != j:
            c[j, i] += delta * scale
        coef = c
    u = [math.cos(2 * math.pi * k / n) for k in range(n)]
    try:
        make_family(n, 2.0, u, coef, [])
        accepted = True
    except FamilyValidationError:
        accepted = False
    assert accepted == circulant_rule_accepts(c)
    if accepted:
        # circ(r) commutes with D_N's generators, so C does to twice the bound
        bound = 2 * EQUIVARIANCE_TOL * max(1.0, float(np.linalg.norm(c)))
        for p in (np.array(shift_matrix(n)), np.array(reversal_matrix(n))):
            assert np.linalg.norm(c @ p - p @ c) <= bound


_SCHUR_LOADS_ORACLE = """
import contextlib, io, sys
from goldenschur.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["schur", *sys.argv[1:]])
print(code, "goldenschur.oracle" in sys.modules)
"""


def test_circulant_family_builds_no_dense_array():
    path = FIXTURES / "ci-family.json"
    fam = load_family(path)
    kappa_convexity_scan(fam, -2.0, -0.1, 11)
    # a family keeps its generator rows and no dense view of them
    assert all(np.shape(t.c) == (6,) for t in (fam.base, *fam.terms))
    assert not hasattr(fam, "c0") and not hasattr(fam.split, "p_band")
    assert not any(hasattr(t, "coef") for t in (fam.base, *fam.terms))
    # the dense blocks live in the oracle module, which `schur` never loads
    proc = subprocess.run(
        [sys.executable, "-c", _SCHUR_LOADS_ORACLE, str(path), "-2.0", "-0.1", "11", "--fit-law"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]


def test_random_family_is_valid():
    rng = random.Random(RNG_SEED)
    for _ in range(25):
        n = rng.randrange(3, 9)
        fam = random_family(n, rng)  # make_family validates internally
        assert fam.split.n == n
        h = np.array(assemble_hessian(fam, rng.uniform(-2, 1)))
        assert np.linalg.eigvalsh(h).min() >= -1e-10


def random_family_by_hand(n, rng, n_terms, encode=lambda row: row):
    """random_family's draws from ``rng``, in its order, with each
    coefficient passed to make_family as ``encode(row)``."""
    u_raw = [rng.gauss(0.0, 1.0) for _ in range(n)]
    c0 = random_symmetric_psd_circulant(n, rng)
    c0[0] += 0.5
    terms = []
    for _ in range(n_terms):
        s = rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0])
        terms.append((s, encode(random_symmetric_psd_circulant(n, rng))))
    return make_family(n, 2.0, u_raw, encode(c0), terms)


@pytest.mark.parametrize("seed", [0, 3, 19, 2026])
def test_random_family_sign_draw_is_the_stream_of_rng_choice(seed):
    # random_family draws u, C₀, and then each term's exponent, its sign by
    # rng.choice([-1.0, 1.0]), and its coefficient, from one stream
    rng, hand_rng = random.Random(seed), random.Random(seed)
    for n in (4, 7, 12):
        fam, want = random_family(n, rng, n_terms=3), random_family_by_hand(n, hand_rng, 3)
        assert fam.split.u == want.split.u
        assert [(t.s, t.c) for t in (fam.base, *fam.terms)] == [
            (t.s, t.c) for t in (want.base, *want.terms)
        ]
    assert rng.random() == hand_rng.random()


@pytest.mark.parametrize("seed", [0, 1, 2, 7, 11, 42, 2024])
def test_random_family_stores_the_rows_of_the_dense_path(seed):
    n = 3 + seed % 7
    fam = random_family(n, random.Random(seed), n_terms=1 + seed % 3)
    dense = random_family_by_hand(n, random.Random(seed), 1 + seed % 3, circulant)
    assert fam.split.u == dense.split.u
    assert len(fam.terms) == len(dense.terms)
    for got, want in zip((fam.base, *fam.terms), (dense.base, *dense.terms)):
        assert got.s == want.s
        assert type(got.c) is tuple and got.c == want.c


# ---------------------------------------------------------------------------
# block extraction and the Schur complement
# ---------------------------------------------------------------------------


def test_schur_complement_hand_case():
    # [[2, 1], [1, 1]] over a 1|1 split: 2 − 1·1⁻¹·1 = 1
    assert schur_complement([[2.0]], [[1.0]], [[1.0]]) == [[1.0]]
    # numpy blocks are read through tolist()
    assert schur_complement(np.array([[2.0]]), np.array([[1.0]]), np.array([[1.0]])) == [[1.0]]


def test_schur_complement_singular_block():
    with pytest.raises(ValueError):
        schur_complement(np.eye(2), np.zeros((2, 1)), np.array([[0.0]]), context="theta=0")


def test_schur_complement_negligible_collective_block():
    # positive, but negligible next to ‖H‖_F = 1; a 1×1 condition number is always 1
    with pytest.raises(ValueError, match="numerically singular"):
        schur_complement(np.array([[1.0]]), np.array([[0.0]]), np.array([[1e-300]]))


def test_schur_complement_overflowing_norm_is_an_overflow():
    # ‖H‖_F² = 0 + 2·1e308 + 1 overflows: an OverflowError, not a singular
    # block, and no RuntimeWarning, which pytest makes an error
    with pytest.raises(OverflowError, match=r"^H\(theta\) overflows a float at theta=3$"):
        schur_complement(np.zeros((1, 1)), np.array([[1e154]]), np.array([[1.0]]), context="theta=3")


def test_schur_complement_needs_one_collective_direction():
    with pytest.raises(ValueError, match="1x1"):
        schur_complement(np.eye(2), np.zeros((2, 2)), np.eye(2))


def test_block_hessian_shapes_and_values():
    fam = ring_family()
    theta = -0.4
    blocks = block_hessian(fam, theta)
    n = fam.split.n
    h = np.array(assemble_hessian(fam, theta))
    b, u = np.array(band_basis(fam.split)), np.asarray(fam.split.u).reshape(-1, 1)
    assert np.allclose(blocks.h_bb, b.T @ h @ b)
    assert np.allclose(blocks.h_bo, b.T @ h @ u)
    assert np.allclose(blocks.h_oo, u.T @ h @ u)
    assert np.allclose(blocks.h_ob, np.array(blocks.h_bo).T)
    assert np.shape(blocks.h_bb) == (n - 2, n - 2)
    assert np.shape(blocks.h_bo) == (n - 2, 1) and np.shape(blocks.h_oo) == (1, 1)
    assert all(type(x) is float for row in blocks.h_bb for x in row)


def test_schur_curvature_identity_family():
    # H(θ) = e^θ I: the Schur complement equals e^θ·I on the band block and
    # the normalized trace is exactly e^θ.
    n = 6
    u = [math.cos(2 * math.pi * k / n) for k in range(n)]
    fam = make_family(n, 2.0, u, np.zeros((n, n)), [(1.0, np.eye(n))])
    for theta in (-1.0, -0.3, 0.5):
        assert math.isclose(schur_curvature(fam, theta), math.exp(theta), rel_tol=1e-12)


def test_schur_curvature_constant_family():
    n = 7
    u = [math.cos(2 * math.pi * k / n) for k in range(n)]
    c0 = circulant([3.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0])
    fam = make_family(n, 2.0, u, c0, [])
    vals = [schur_curvature(fam, t) for t in np.linspace(-2, 0, 9)]
    assert max(vals) - min(vals) < 1e-12


def test_schur_complement_invariant_to_band_basis_choice():
    # any orthonormal basis of range(P_B) gives the same trace
    fam = ring_family()
    theta = -0.6
    h = np.array(assemble_hessian(fam, theta))
    split = fam.split
    rng = np.random.default_rng(3)
    m, _ = np.linalg.qr(rng.standard_normal((split.dim_band, split.dim_band)))
    b2 = np.array(band_basis(split)) @ m
    u = np.asarray(split.u).reshape(-1, 1)
    s2 = np.array(schur_complement(b2.T @ h @ b2, b2.T @ h @ u, u.T @ h @ u))
    assert math.isclose(np.trace(s2) / split.dim_band, schur_curvature(fam, theta), rel_tol=1e-12)


# ---------------------------------------------------------------------------
# variational characterization
# ---------------------------------------------------------------------------


def test_variational_expression_at_minimizer():
    fam = ring_family()
    blocks = block_hessian(fam, -0.5)
    y_star = -np.array(blocks.h_ob) / blocks.h_oo[0][0]  # 1 × (n−2)
    s = schur_complement(*blocks)
    assert np.allclose(variational_expression(blocks, y_star), s, atol=1e-12)


def test_variational_expression_needs_one_coupling_row():
    blocks = block_hessian(ring_family(), -0.5)
    with pytest.raises(ValueError, match=r"^coupling must have shape \(1, 4\), got \(2, 4\)$"):
        variational_expression(blocks, [[0.0] * 4] * 2)


def test_variational_check_random_families():
    rng = np.random.default_rng(RNG_SEED)
    couplings = random.Random(RNG_SEED)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        fam = np_random_family(n, rng)
        rep = variational_check(fam, float(rng.uniform(-1.5, 0.5)), trials=100, rng=couplings)
        assert rep.minimizer_gap <= 1e-10
        assert rep.min_pivot > 0
        assert rep.trials == 100
        assert rep.passed()


@pytest.mark.parametrize("seed", range(12))
def test_variational_report_carries_the_dense_curvature(seed):
    # the report's κ is read off the Schur complement the check forms: the
    # dense_curvature of the same family and θ, bit for bit
    rng = random.Random(seed)
    fam = random_family(rng.randrange(3, 13), rng, n_terms=rng.randrange(0, 4))
    theta = rng.uniform(-2.0, 1.0)
    rep = variational_check(fam, theta, trials=5, rng=rng)
    assert rep.kappa.hex() == dense_curvature(fam, theta).hex()
    assert rep == (rep.theta, rep.minimizer_gap, rep.min_pivot, 5, rep.kappa)


def _variational_reference(fam, theta, trials, rng):
    """The gap in the 2-norm and the smallest eigenvalue of expression(Y) − S
    over the trials, in numpy, one coupling and one eigvalsh call per trial,
    for the couplings that variational_check draws from ``rng``."""
    blocks = block_hessian(fam, theta)
    h_bb, h_bo, h_oo = (np.array(x) for x in blocks)
    schur = h_bb - h_bo @ h_bo.T / h_oo[0, 0]
    y_star = -h_bo.T / h_oo[0, 0]

    def expression(y):
        return h_bb + h_bo @ y + y.T @ h_bo.T + y.T @ h_oo @ y

    gap = float(np.linalg.norm(expression(y_star) - schur, 2))
    ys = np.array(_normals(rng, trials * len(h_bb))).reshape(trials, 1, len(h_bb))
    worst = math.inf
    for y in ys:
        diff = expression(y) - schur
        worst = min(worst, float(np.linalg.eigvalsh((diff + diff.T) / 2)[0]))
    return gap, worst, max(1.0, float(np.linalg.norm(h_bb)))


def _convexity_reference(fam, theta1, theta2, ts):
    """One dense gap and one eigvalsh call per grid point."""
    h1, h2 = np.array(assemble_hessian(fam, theta1)), np.array(assemble_hessian(fam, theta2))
    eigs = []
    for t in ts:
        gap = t * h1 + (1 - t) * h2 - np.array(assemble_hessian(fam, t * theta1 + (1 - t) * theta2))
        eigs.append(float(np.linalg.eigvalsh((gap + gap.T) / 2)[0]))
    return eigs, max(1.0, float(np.abs(h1).max() + np.abs(h2).max()))


@pytest.mark.parametrize("seed", range(20))
def test_stacked_loewner_checks_match_per_trial_loops(seed):
    # the LDLᵀ pivots of all trials, computed together, against one coupling
    # and one eigvalsh call per trial: the same verdict, and the smallest
    # pivot is at least the smallest eigenvalue of expression(Y) − S + tol·I;
    # the cosine sums against one eigvalsh call per grid point
    draw = np.random.default_rng(seed)
    fam = np_random_family(int(draw.integers(3, 10)), draw)
    theta = float(draw.uniform(-1.5, 0.5))
    t1, t2 = sorted(float(t) for t in draw.uniform(-2.0, 0.5, size=2))
    trials = int(draw.integers(1, 80))

    rng, ref_rng = random.Random(seed + 100), random.Random(seed + 100)
    rep = variational_check(fam, theta, trials=trials, rng=rng)
    gap, worst, scale = _variational_reference(fam, theta, trials, ref_rng)
    assert (rep.theta, rep.trials) == (theta, trials)
    assert rep.minimizer_gap <= 1e-14 * scale and gap <= 1e-14 * scale
    assert rep.passed() == (worst >= -LOEWNER_TOL) == (rep.min_pivot > 0)
    assert rep.min_pivot >= worst + LOEWNER_TOL - 1e-14 * scale
    assert rng.random() == ref_rng.random()  # the same draws, and no more

    rep = matrix_convexity_check(fam, t1, t2, 11)
    want, scale = _convexity_reference(fam, t1, t2, np.linspace(0.0, 1.0, 11))
    assert rep.t_values == tuple(np.linspace(0.0, 1.0, 11).tolist())
    assert np.abs(np.array(rep.min_eigs) - want).max() <= 1e-14 * scale
    assert all(type(x) is float for x in rep.t_values + rep.min_eigs)


@pytest.mark.parametrize("n_terms", [0, 1, 2, 3])
def test_convexity_gaps_match_a_per_t_assembly(n_terms):
    # each gap of per-t assemble_hessian calls is the circulant of its first
    # row, bit for bit, and the cosine sums of that row are the spectrum that
    # eigvalsh finds, on a random family and on an indefinite one forced in
    draw = np.random.default_rng(40 + n_terms)
    fams = [np_random_family(int(draw.integers(3, 10)), draw, n_terms=n_terms)]
    if n_terms:
        n = fams[0].n
        g = draw.standard_normal(n)
        g = (g + g[(n - np.arange(n)) % n]) / 2  # a symmetric row, indefinite as a rule
        fams.append(row_family(draw.standard_normal(n), np.eye(n)[0], [(0.7, g)] * n_terms))
    for fam in fams:
        t1, t2 = sorted(float(t) for t in draw.uniform(-2.0, 0.5, size=2))
        ts = np.linspace(0.0, 1.0, 11)
        h1, h2 = np.array(assemble_hessian(fam, t1)), np.array(assemble_hessian(fam, t2))
        gaps = [
            t * h1 + (1 - t) * h2 - np.array(assemble_hessian(fam, t * t1 + (1 - t) * t2))
            for t in ts
        ]
        assert all(np.array_equal(gap, circulant(gap[0])) for gap in gaps)
        w = np.array([np.linalg.eigvalsh(gap)[0] for gap in gaps])
        got = np.array(matrix_convexity_check(fam, t1, t2, 11).min_eigs)
        assert np.abs(got - w).max() <= 1e-14 * max(1.0, np.abs(h1).max() + np.abs(h2).max())


@pytest.mark.parametrize("seed", range(8))
def test_ldl_verdict_is_the_sign_of_the_smallest_eigenvalue(seed):
    # symmetric matrices from seeded draws: the convexity gaps of a forced-in
    # indefinite family and of a valid one, the variational differences of a
    # valid family, and shifts of each that put its smallest eigenvalue at
    # ±1e-6; every pivot is positive exactly where eigvalsh finds a positive
    # smallest eigenvalue, wherever that sign is clear of rounding
    draw = np.random.default_rng(seed)
    n = int(draw.integers(3, 10))
    u = np.cos(2 * np.pi * np.arange(n) / n) + 0.1 * draw.standard_normal(n)
    indefinite = row_family(u, np.eye(n)[0], [(1.0, -np.eye(n)[0] + 0.3 * draw.standard_normal(n))])
    valid = np_random_family(n, draw)
    mats = []
    for fam in (indefinite, valid):
        h1, h2 = np.array(assemble_hessian(fam, -1.5)), np.array(assemble_hessian(fam, 0.2))
        for t in (0.25, 0.5, 0.75):
            gap = t * h1 + (1 - t) * h2 - np.array(assemble_hessian(fam, t * -1.5 + (1 - t) * 0.2))
            mats.append((gap + gap.T) / 2)
    blocks = [np.array(x) for x in block_hessian(valid, -0.5)]
    schur = np.array(schur_complement(*blocks))
    for y in draw.standard_normal((4, 1, n - 2)):
        h_bb, h_bo, h_oo = blocks
        diff = h_bb + h_bo @ y + y.T @ h_bo.T + y.T @ h_oo @ y - schur
        mats.append((diff + diff.T) / 2)
    for a in list(mats):
        low = np.linalg.eigvalsh(a)[0]
        for margin in (-1e-6, 1e-6):
            mats.append(a - (low + margin) * np.eye(len(a)))
    for a in mats:
        m, low = len(a), np.linalg.eigvalsh(a)[0]
        pivots = _ldl_pivots([[[a[i, j]] for j in range(i + 1)] for i in range(m)])
        positive = len(pivots) == m and all(p[0] > 0 for p in pivots)
        if abs(low) > 1e-12 * max(1.0, np.linalg.norm(a)):  # a sign that rounding cannot flip
            assert positive == (low > 0)
    # as one stack, entry by entry, the pivots of each matrix alone, up to the
    # first index where one of them fails
    m = len(mats[-1])
    pivots = _ldl_pivots([[[a[i, j] for a in mats[-2:]] for j in range(i + 1)] for i in range(m)])
    for t, a in enumerate(mats[-2:]):
        alone = _ldl_pivots([[[a[i, j]] for j in range(i + 1)] for i in range(m)])
        assert [p[t] for p in pivots] == [p[0] for p in alone][: len(pivots)]
    assert min(map(min, pivots)) <= 0


@pytest.mark.parametrize("trials", [0, -3])
def test_variational_check_rejects_no_trials(trials):
    fam = ring_family()
    with pytest.raises(ValueError, match=f"^trials must be an integer >= 1, got {trials}$"):
        variational_check(fam, -0.5, trials=trials, rng=random.Random(0))


@pytest.mark.parametrize("t_grid", [0, []])
def test_matrix_convexity_check_rejects_empty_t_grid(t_grid):
    with pytest.raises(ValueError, match="t grid must have at least one point"):
        matrix_convexity_check(ring_family(), -1.0, 0.5, t_grid=t_grid)


@pytest.mark.parametrize("t_grid", [[0.5, math.nan], [math.nan], [-0.5, 0.5], [0.5, 2.0]])
def test_matrix_convexity_check_rejects_t_outside_unit_interval(t_grid):
    with pytest.raises(ValueError, match=r"t grid must lie in \[0, 1\]"):
        matrix_convexity_check(ring_family(), -1.0, 0.5, t_grid=t_grid)


@pytest.mark.parametrize("theta1, theta2", [(math.nan, 0.5), (-1.0, math.inf), (-math.inf, 0.5)])
def test_matrix_convexity_check_rejects_non_finite_theta(theta1, theta2):
    with pytest.raises(ValueError, match="is not finite"):
        matrix_convexity_check(ring_family(), theta1, theta2)


def test_variational_minimum_matches_bfgs():
    # brute-force minimization of tr(expression(Y)) over Y recovers the trace
    # of the Schur complement
    rng = np.random.default_rng(5)
    for _ in range(5):
        fam = np_random_family(int(rng.integers(3, 8)), rng)
        theta = float(rng.uniform(-1.0, 0.5))
        blocks = block_hessian(fam, theta)
        dim = len(blocks.h_bb)

        def objective(flat):
            return float(np.trace(variational_expression(blocks, flat.reshape(1, dim))))

        best = math.inf
        for _ in range(3):
            res = minimize(objective, rng.standard_normal(dim), method="BFGS",
                           options={"gtol": 1e-12, "maxiter": 500})
            best = min(best, res.fun)
        target = schur_curvature(fam, theta) * fam.split.dim_band
        assert abs(best - target) < 1e-6


# ---------------------------------------------------------------------------
# convexity in θ
# ---------------------------------------------------------------------------


def test_matrix_convexity_random_families():
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(10):
        fam = np_random_family(int(rng.integers(3, 9)), rng)
        t1, t2 = sorted(rng.uniform(-2.0, 0.5, size=2))
        rep = matrix_convexity_check(fam, float(t1), float(t2))
        assert len(rep.t_values) == 11
        assert min(rep.min_eigs) >= -1e-10


def test_matrix_convexity_single_term_closed_form():
    # For H(θ) = e^{sθ} C the convexity gap is (t e^{sθ₁} + (1−t) e^{sθ₂}
    # − e^{s(tθ₁+(1−t)θ₂)})·C; its smallest eigenvalue is that positive scalar
    # times the smallest eigenvalue of C.
    n = 5
    u = [math.cos(2 * math.pi * k / n) for k in range(n)]
    c = circulant([2.0, 0.5, 0.0, 0.0, 0.5])
    fam = make_family(n, 2.0, u, np.zeros((n, n)), [(1.3, c)])
    theta1, theta2, t = -1.0, 0.2, 0.35
    rep = matrix_convexity_check(fam, theta1, theta2, t_grid=[t])
    scalar = (
        t * math.exp(1.3 * theta1)
        + (1 - t) * math.exp(1.3 * theta2)
        - math.exp(1.3 * (t * theta1 + (1 - t) * theta2))
    )
    lam_min = np.linalg.eigvalsh(c).min()
    assert math.isclose(rep.min_eigs[0], scalar * lam_min, rel_tol=1e-10)


def test_matrix_convexity_detects_violation():
    # A family with a genuinely non-convex path: the negative coefficient −I,
    # built from its row.
    n = 5
    u = [math.cos(2 * math.pi * k / n) for k in range(n)]
    fam = row_family(u, np.zeros(n), [(1.0, -np.eye(n)[0])])
    rep = matrix_convexity_check(fam, -1.0, 0.5)
    assert min(rep.min_eigs) < -1e-3


def test_kappa_convexity_scan():
    fam = ring_family()
    scan = kappa_convexity_scan(fam, -2.0, -0.05, points=101)
    assert len(scan.thetas) == 101
    assert len(scan.second_differences) == 99
    assert scan.convex_ok
    assert scan.min_second_difference >= -1e-8
    assert scan.violations == ()


def test_kappa_scan_flags_concave_curve():
    # a validated family: κ = 1 + 1/(3q + 1) is concave in θ for q < 1/3
    fam = load_family(FIXTURES / "concave-n4-s-minus1.json")
    scan = kappa_convexity_scan(fam, -3.0, -0.1, points=30)
    assert not scan.convex_ok
    assert scan.violations == tuple(range(1, 20))
    assert scan.min_second_difference < -1e-6


@pytest.mark.parametrize(
    "name, kappa, rel_tol",
    [
        ("concave-n4-s-minus1.json", lambda q: 1 + 1 / (3 * q + 1), 1e-15),
        ("concave-n4-s-plus1.json", lambda q: 1 + 100 * q / (3 + 100 * q), 1e-15),
    ],
)
def test_validated_concave_fixtures_match_closed_form(name, kappa, rel_tol):
    # C₀ = I, u = e₁ and one term on the alternating mode: claim (i) fails for
    # these validated families
    fam = load_family(FIXTURES / name)
    for q in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(9, 10)):
        exact = float(kappa(q))
        assert abs(schur_curvature(fam, math.log(q)) - exact) <= rel_tol * exact


def rational_weights(fam, q):
    """e^{sθ} = q^s for each term at a rational q = e^θ (integer exponents)."""
    assert all(t.s == int(t.s) for t in fam.terms)
    return [q ** int(t.s) for t in fam.terms]


def float_weights(fam, theta):
    """The float weights e^{sθ} that the kernel multiplies by, as Fractions."""
    return [Fraction(math.exp(t.s * theta)) for t in fam.terms]


def ulps_off(x, exact):
    return abs(Fraction(x) - exact) / Fraction(math.ulp(float(exact)))


def scaled_factor(fam, theta):
    """The kernel's r at θ and its factor 2^e·e^r, as the product of the floats
    e^{709} … e^{rest} that it multiplies by, in Fractions."""
    (r,), _ = _weights(fam, [theta])
    factor = Fraction(2) ** fam._kappa_form[3]
    rest = r
    while rest > 0:
        step = min(rest, 709.0)
        factor *= Fraction(math.exp(step))
        rest -= step
    return r, factor


def scaled_exact_kappa(fam, theta):
    """κ in Fractions at the kernel's own scaled float weights w̃ (C₀'s first),
    times its factor 2^e·e^r, by homogeneity: κ(w̃₀, w̃) = w̃₀·κ(1, w̃/w̃₀),
    with :func:`exact_kappa` for κ(1, ·).  Where w̃₀ underflows to 0, the
    largest weight's row takes C₀'s place."""
    _, w = _weights(fam, [theta])
    w = [Fraction(col[0]) for col in w]
    p = 0 if w[0] else w.index(max(w))
    rows = [t.c for t in (fam.base, *fam.terms)]
    rebased = HessianFamily(
        fam.split, ExpTerm(0.0, rows[p]), [ExpTerm(0.0, c) for c in rows[:p] + rows[p + 1:]]
    )
    kappa = exact_kappa(rebased, fam.split.u, [x / w[p] for x in w[:p] + w[p + 1:]])
    return w[p] * kappa * scaled_factor(fam, theta)[1]


def own_inputs_exact_kappa(fam, theta):
    """κ in Fractions from the kernel's own float inputs: the spectra ĉ, p from
    the real DFT of u and the scaled weights, times its factor 2^e·e^r, by
    h·(N − 2)·κ = Σ_{j≥1} λ_j·((m_j − 1)·h + Σ_{i≠j} p_i·λ_i)."""
    n = fam.n
    _, w = _weights(fam, [theta])
    c_hat = [t.spectrum for t in (fam.base, *fam.terms)]
    m = [0] + [1 if 2 * j == n else 2 for j in range(1, n // 2 + 1)]
    p = [Fraction(mj * (x.real**2 + x.imag**2) / n) for mj, x in zip(m, _rfft(fam.split.u))]
    lam = [sum(Fraction(wk[0]) * Fraction(c) for wk, c in zip(w, col)) for col in zip(*c_hat)]
    h = sum(pj * lj for pj, lj in zip(p, lam))
    exact = sum(lj * ((mj - 1) * h + h - pj * lj) for lj, mj, pj in zip(lam, m, p) if mj) / h
    return exact / (n - 2) * scaled_factor(fam, theta)[1]


@pytest.mark.parametrize(
    "name, kappa",
    [
        ("concave-n4-s-minus1.json", lambda q: 1 + 1 / (3 * q + 1)),
        ("concave-n4-s-plus1.json", lambda q: 1 + 100 * q / (3 + 100 * q)),
    ],
)
def test_validated_concave_fixtures_kappa_is_exact(name, kappa):
    # the closed forms hold exactly, as rationals, at rational q
    fam = load_family(FIXTURES / name)
    u_raw = json.loads((FIXTURES / name).read_text())["u"]
    for q in (Fraction(1, 16), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(9, 10)):
        assert exact_kappa(fam, u_raw, rational_weights(fam, q)) == kappa(q)


@pytest.mark.parametrize("name", ["concave-n4-s-minus1.json", "concave-n4-s-plus1.json"])
def test_fixture_curvature_is_within_4_ulps_of_exact_kappa(name):
    fam = load_family(FIXTURES / name)
    u_raw = json.loads((FIXTURES / name).read_text())["u"]
    for q in (1 / 16, 1 / 8, 1 / 4, 1 / 2, 9 / 10):
        exact = exact_kappa(fam, u_raw, float_weights(fam, math.log(q)))
        assert ulps_off(schur_curvature(fam, math.log(q)), exact) <= 4


def test_random_family_curvature_is_within_4_ulps_of_exact_kappa():
    rng = np.random.default_rng(RNG_SEED + 3)
    for _ in range(30):
        fam = np_random_family(int(rng.integers(3, 13)), rng, n_terms=int(rng.integers(0, 4)))
        theta = float(rng.uniform(-3.0, 1.0))
        exact = exact_kappa(fam, fam.split.u, float_weights(fam, theta))
        assert ulps_off(schur_curvature(fam, theta), exact) <= 4


@settings(max_examples=80)
@given(
    n=st.integers(3, 40),
    n_terms=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    theta=st.floats(-3.0, 1.0),
)
@example(n=17, n_terms=2, seed=0, theta=-1.0)  # an odd prime past the direct DFT: Bluestein
@example(n=34, n_terms=3, seed=1, theta=0.5)  # 2·17: a half-length transform by Bluestein
@example(n=37, n_terms=1, seed=2, theta=-2.5)
@example(n=13, n_terms=2, seed=3, theta=-0.3)  # an odd prime summed directly
@example(n=40, n_terms=2, seed=4, theta=0.9)  # 2³·5: radix-2 halving to a direct 5-point DFT
@example(n=32, n_terms=3, seed=5, theta=-1.7)  # 2⁵: radix-2 halving to a direct 8-point DFT
def test_curvature_is_within_4_ulps_of_exact_kappa_on_every_transform_route(
    n, n_terms, seed, theta
):
    fam = np_random_family(n, np.random.default_rng(seed), n_terms=n_terms)
    exact = exact_kappa(fam, fam.split.u, float_weights(fam, theta))
    assert ulps_off(schur_curvature(fam, theta), exact) <= 4


def test_concave_fixture_has_an_exact_nonconvexity_witness():
    # θ = ln(1/8) is the midpoint of ln(1/16) and ln(1/4), so κ(1/8) above the
    # chord proves that κ is not convex in θ
    name = "concave-n4-s-minus1.json"
    fam = load_family(FIXTURES / name)
    u_raw = json.loads((FIXTURES / name).read_text())["u"]
    left, mid, right = (
        exact_kappa(fam, u_raw, rational_weights(fam, Fraction(1, k))) for k in (16, 8, 4)
    )
    assert (left, mid, right) == (Fraction(35, 19), Fraction(19, 11), Fraction(11, 7))
    assert (left + right) / 2 == Fraction(227, 133) < mid


# ---------------------------------------------------------------------------
# two maps of the family class: a shift along q and a scale of κ
# ---------------------------------------------------------------------------


def shifted_family(fam, u_raw, r):
    """Each term's row times r^{s_k}, C₀ fixed: H at q is the family's H at
    r·q, so κ_shift(q) = κ(r·q) (integer exponents)."""
    terms = [(t.s, [x * r ** int(t.s) for x in t.c]) for t in fam.terms]
    return make_family(fam.n, fam.split.m_rho_sq, u_raw, fam.base.c, terms)


def scaled_family(fam, u_raw, c):
    """Every row times c, C₀'s included: H → c·H, so κ → c·κ."""
    terms = [(t.s, [x * c for x in t.c]) for t in fam.terms]
    return make_family(fam.n, fam.split.m_rho_sq, u_raw, [x * c for x in fam.base.c], terms)


def integer_exponent_family(seed):
    """A validated family with m_ρ² = 2, drawn as ``random_family`` draws
    one, but with exponents in {±1, ±2}; returns it and its raw u."""
    rng = random.Random(seed)
    n = rng.randint(3, 9)
    u_raw = [rng.gauss(0.0, 1.0) for _ in range(n)]
    c0 = random_symmetric_psd_circulant(n, rng)
    c0[0] += 0.5
    terms = [
        (rng.choice((-2.0, -1.0, 1.0, 2.0)), random_symmetric_psd_circulant(n, rng))
        for _ in range(rng.randint(1, 3))
    ]
    return make_family(n, 2.0, u_raw, c0, terms), u_raw


def family_case(case):
    """A fixture file's family and raw u, or a seeded integer-exponent family."""
    if isinstance(case, int):
        return integer_exponent_family(case)
    return load_family(FIXTURES / case), json.loads((FIXTURES / case).read_text())["u"]


_SYMMETRY_CASES = ["concave-n4-s-minus1.json", "concave-n4-s-plus1.json", *range(8)]
_RATIONAL_QS = (Fraction(1, 8), Fraction(1, 3), Fraction(3, 4))


@pytest.mark.parametrize("case", _SYMMETRY_CASES)
@pytest.mark.parametrize("r", [2.0, 0.25])
def test_shifting_a_family_moves_kappa_along_q(case, r):
    # a power of 2 scales the stored rows exactly, and κ_shift(q) = κ(r·q)
    fam, u_raw = family_case(case)
    moved = shifted_family(fam, u_raw, r)
    assert moved.base.c == fam.base.c
    assert [t.c for t in moved.terms] == [
        tuple(x * r ** int(t.s) for x in t.c) for t in fam.terms
    ]
    for q in _RATIONAL_QS:
        assert exact_kappa(moved, u_raw, rational_weights(moved, q)) == exact_kappa(
            fam, u_raw, rational_weights(fam, Fraction(r) * q)
        )


@pytest.mark.parametrize("case", _SYMMETRY_CASES)
@pytest.mark.parametrize("c", [2.0, 0.125])
def test_scaling_a_family_scales_kappa(case, c):
    fam, u_raw = family_case(case)
    big = scaled_family(fam, u_raw, c)
    assert [t.c for t in (big.base, *big.terms)] == [
        tuple(x * c for x in t.c) for t in (fam.base, *fam.terms)
    ]
    for q in _RATIONAL_QS:
        assert exact_kappa(big, u_raw, rational_weights(big, q)) == Fraction(c) * exact_kappa(
            fam, u_raw, rational_weights(fam, q)
        )


def test_a_family_and_its_double_share_n_u_and_m_rho_sq_but_not_kappa():
    # so a law A·I₁² + B·Var with A and B functions of (N, m_ρ²) alone cannot
    # give κ for both: the witness κ(1/8) = 19/11 against 38/11
    fam, u_raw = family_case("concave-n4-s-minus1.json")
    double = scaled_family(fam, u_raw, 2.0)
    assert (double.n, double.split.m_rho_sq, double.split.u) == (
        fam.n, fam.split.m_rho_sq, fam.split.u
    )
    q = Fraction(1, 8)
    assert exact_kappa(fam, u_raw, rational_weights(fam, q)) == Fraction(19, 11)
    assert exact_kappa(double, u_raw, rational_weights(double, q)) == Fraction(38, 11)


def test_kappa_scan_rejects_theta_range_too_wide_for_a_float():
    # both bounds are finite, but their difference overflows; pytest turns
    # numpy's RuntimeWarning into an error, so only this message may surface
    with pytest.raises(ValueError, match=r"^theta_max - theta_min = inf is not finite$"):
        kappa_convexity_scan(ring_family(), -1e308, 1e308, 3)


@settings(max_examples=60)
@given(
    half=st.integers(2, 32),
    odd=st.booleans(),
    n_terms=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    theta=st.floats(-3.0, 1.0),
    circulant_encoded=st.booleans(),
)
def test_rank_one_curvature_matches_dense_blocks(half, odd, n_terms, seed, theta, circulant_encoded):
    n = 2 * half - odd
    fam = np_random_family(n, np.random.default_rng(seed), n_terms=n_terms)
    if circulant_encoded:
        rows = [(t.s, t.c) for t in fam.terms]
        fam = make_family(n, 2.0, fam.split.u, fam.base.c, rows)
        assert np.shape(fam.base.c) == (n,)
    dense = dense_curvature(fam, theta)
    assert abs(schur_curvature(fam, theta) - dense) <= 1e-12 * max(1.0, abs(dense))


@settings(max_examples=150, deadline=None)
@given(
    half=st.integers(2, 16),
    odd=st.booleans(),
    n_terms=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    theta=st.floats(-3.0, 3.0),
)
def test_curvature_is_within_4_ulps_of_its_exact_form(half, odd, n_terms, seed, theta):
    # Spectra and collective weights spanning e^{±20}, where a route that
    # subtracts large sums loses digits.  The exact value is that of the
    # kernel's own float inputs: ĉ, the stored rows' spectra, p from the
    # real DFT of u, and w, by
    # h·(N − 2)·κ = Σ_{j≥1} λ_j·((m_j − 1)·h + Σ_{i≠j} p_i·λ_i).
    n = 2 * half - odd
    rng = np.random.default_rng(seed)
    spectra = np.exp(rng.uniform(-20.0, 20.0, (n_terms + 1, n // 2 + 1)))
    # a floor at 1e-12 of each row's largest value keeps ĉ ≥ 0, the claim's
    # premise: the real DFT of the stored row rounds at about 1e-16 of it
    spectra = np.maximum(spectra, 1e-12 * spectra.max(axis=1, keepdims=True))
    rows = np.fft.irfft(spectra, n, axis=1)
    u_modes = rng.random(n // 2 + 1) < 0.5
    u_modes[0] = False  # u ⟂ 1
    u_modes[rng.integers(1, n // 2 + 1)] = True
    phases = np.exp(2j * np.pi * rng.random(n // 2 + 1))
    u_spectrum = u_modes * np.exp(rng.uniform(-20.0, 20.0, n // 2 + 1)) * phases
    fam = make_family(n, 2.0, np.fft.irfft(u_spectrum, n), rows[0],
                      list(zip(rng.uniform(-2.0, 2.0, n_terms), rows[1:])))
    c_hat = np.array([t.spectrum for t in (fam.base, *fam.terms)])
    assume((c_hat >= 0).all())
    m = [0] + [1 if 2 * j == n else 2 for j in range(1, n // 2 + 1)]
    u_hat = np.array(_rfft(fam.split.u))
    p = [Fraction(x) for x in np.multiply(m, u_hat.real**2 + u_hat.imag**2) / n]
    w = [Fraction(1), *float_weights(fam, theta)]
    lam = [sum(wk * Fraction(c) for wk, c in zip(w, col)) for col in c_hat.T.tolist()]
    h = sum(pj * lj for pj, lj in zip(p, lam))
    try:
        kappa = schur_curvature(fam, theta)
    except ValueError:  # the singular-block guard
        assume(False)
    exact = sum(lj * ((mj - 1) * h + h - pj * lj) for lj, mj, pj in zip(lam, m, p) if mj) / h
    assert ulps_off(kappa, exact / (n - 2)) <= 4


def test_kappa_scan_matches_pointwise_curvature():
    fam = np_random_family(9, np.random.default_rng(RNG_SEED), n_terms=3)
    scan = kappa_convexity_scan(fam, -2.5, 0.5, points=31)
    assert scan.kappas == tuple(schur_curvature(fam, t) for t in scan.thetas)


def dense_scan_error(fam, thetas):
    """The first error of a θ-by-θ dense scan, which stops at its first failure."""
    for theta in thetas:
        try:
            dense_curvature(fam, theta)
        except (ValueError, OverflowError) as exc:
            return exc
    raise AssertionError("dense scan raised no error")


def assert_same_scan_error(fam, theta_min, theta_max, points):
    """The rank-one scan fails like the dense one: same type, same θ.

    The h_oo and ‖H‖_F figures may differ in the last printed digit, since
    they are rounding noise on both routes when h_oo is this small.
    """
    expected = dense_scan_error(fam, np.linspace(theta_min, theta_max, points))
    with pytest.raises(type(expected)) as exc:
        kappa_convexity_scan(fam, theta_min, theta_max, points)
    assert str(exc.value).split(" (h_oo")[0] == str(expected).split(" (h_oo")[0]
    return str(exc.value)


def test_weight_overflow_names_its_theta():
    # κ ≈ e^{1500} overflows a float at θ = 1500, and first at θ = 749 on the
    # grid (−2, 749, 1500); the dense route, which holds H(θ) itself, fails
    # on the weight e^{1500}
    fam = load_family(FIXTURES / "ci-family.json")
    with pytest.raises(OverflowError, match=r"^κ overflows a float at theta=1500$"):
        schur_curvature(fam, 1500.0)
    with pytest.raises(OverflowError):
        dense_curvature(fam, 1500.0)
    with pytest.raises(OverflowError, match=r"^κ overflows a float at theta=749$"):
        kappa_convexity_scan(fam, -2.0, 1500.0, 3)


@pytest.mark.parametrize(
    "theta, kappa", [(-800.0, 2.20e243), (600.0, 2.36e260), (709.0, 5.14e307)]
)
def test_kappa_is_returned_wherever_it_is_a_finite_float(theta, kappa):
    # the weights are scaled by e^{−r} there, and κ = e^r·κ̃ holds its few ulps
    fam = load_family(FIXTURES / "ci-family.json")
    r, _ = scaled_factor(fam, theta)
    assert r > 0
    got = schur_curvature(fam, theta)
    assert math.isclose(got, kappa, rel_tol=5e-3)
    assert ulps_off(got, scaled_exact_kappa(fam, theta)) <= 4


def test_kappa_overflows_just_past_its_last_finite_value():
    # κ crosses the largest float between two adjacent θ near 710.25
    fam = load_family(FIXTURES / "ci-family.json")
    last, past = 710.2527165226297, 710.2527165226298
    assert math.nextafter(last, math.inf) == past
    got = schur_curvature(fam, last)
    assert ulps_off(got, scaled_exact_kappa(fam, last)) <= 4
    assert got > 0.99999 * sys.float_info.max
    largest = Fraction(sys.float_info.max)
    assert scaled_exact_kappa(fam, past) > largest + Fraction(math.ulp(sys.float_info.max))
    with pytest.raises(OverflowError, match=r"^κ overflows a float at theta=710\.253$"):
        schur_curvature(fam, past)


def test_scaled_kappa_has_the_same_bits_alone_or_inside_a_grid():
    fam = load_family(FIXTURES / "ci-family.json")
    scan = kappa_convexity_scan(fam, -800.0, 709.0, 13)
    assert scan.kappas == tuple(schur_curvature(fam, t) for t in scan.thetas)
    assert scan.convex_ok


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(4, 12),
    n_terms=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    theta=st.floats(-800.0, 800.0),
)
@example(n=7, n_terms=2, seed=8, theta=-700.0)  # scaled, κ ≈ 1.6e238
@example(n=7, n_terms=2, seed=0, theta=700.0)  # κ overflows
def test_scaled_curvature_is_exact_to_a_few_ulps_at_any_theta(n, n_terms, seed, theta):
    # at the kernel's own float inputs κ is within 4 ulps, scaled or not.  The
    # independent exact route also takes in the rounding of the spectra, which
    # one dominant term does not average out (up to 46 ulps on 8000 draws, 23
    # where nothing is scaled), so it is held to the dense route's 1e-12
    fam = np_random_family(n, np.random.default_rng(seed), n_terms=n_terms)
    own = own_inputs_exact_kappa(fam, theta)
    try:
        got = schur_curvature(fam, theta)
    except OverflowError as exc:
        assert str(exc) == f"κ overflows a float at theta={theta:g}"
        assert own > Fraction(sys.float_info.max) * (1 - Fraction(4, 2**52))
        return
    assert ulps_off(got, own) <= 4
    exact = scaled_exact_kappa(fam, theta)
    assert abs(Fraction(got) - exact) <= Fraction(1e-12) * abs(exact)


def test_huge_coefficients_scale_kappa_exactly():
    # rows times 2^600 have spectra whose squares overflow a float; κ scales
    # by 2^600 bit for bit
    fam = load_family(FIXTURES / "ci-family.json")
    big = make_family(6, 2.0, fam.split.u, [math.ldexp(x, 600) for x in fam.base.c],
                      [(t.s, [math.ldexp(x, 600) for x in t.c]) for t in fam.terms])
    assert big._kappa_form[3] > 0
    for theta in (-2.0, 0.5, 3.0):
        assert schur_curvature(big, theta) == math.ldexp(schur_curvature(fam, theta), 600)


def test_scaled_weights_include_c0():
    # C₀ times 2^600 lowers the bound t to about 20, so at θ = 100 every
    # weight is scaled by e^{−r}, C₀'s included, and C₀ still dominates κ;
    # the unscaled weights are finite floats there, and the exact κ at them
    # differs from the scaled route's only by the rounding of s·θ − r
    fam = load_family(FIXTURES / "ci-family.json")
    big = make_family(6, 2.0, fam.split.u, [math.ldexp(x, 600) for x in fam.base.c],
                      [(t.s, t.c) for t in fam.terms])
    r, _ = scaled_factor(big, 100.0)
    assert r > 50
    exact = exact_kappa(big, big.split.u, float_weights(big, 100.0))
    assert abs(Fraction(schur_curvature(big, 100.0)) - exact) <= Fraction(1e-13) * exact


def test_curvature_rejects_a_non_finite_theta():
    for theta in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="is not finite"):
            schur_curvature(ring_family(), theta)


def kernel_family(terms):
    """n = 6, u = cos(2πk/6), and a PSD circulant C0 with C0·u = 0."""
    n = 6
    u = [math.cos(2 * math.pi * k / n) for k in range(n)]
    c0 = circulant([1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    return make_family(n, 2.0, u, c0, [(s, c0 if c is None else c) for s, c in terms])


def test_rank_one_guard_fails_where_dense_guard_fails():
    # h_oo = e^{−θ} sinks below ‖H‖_F/COND_LIMIT (‖P C0 P‖_F = √8) part-way
    # along the grid, at θ = 28
    fam = kernel_family([(-1.0, np.eye(6))])
    message = assert_same_scan_error(fam, 0.0, 40.0, 11)
    assert "singular at theta=28 " in message
    with pytest.raises(ValueError, match="singular at theta=28 "):
        schur_curvature(fam, 28.0)
    # a vanishing collective block fails at the first grid point
    null = kernel_family([])
    assert "singular at theta=-1 " in assert_same_scan_error(null, -1.0, 0.0, 5)


def test_singular_block_before_overflow_is_reported_first():
    # θ = 28 is singular and e^{800} overflows later in the same grid
    fam = kernel_family([(-1.0, np.eye(6)), (1.0, None)])
    assert "singular at theta=28 " in assert_same_scan_error(fam, 28.0, 800.0, 3)
    # a long grid, past θ ≈ 709 where e^{sθ} and H(θ) overflow
    assert "singular at theta=13.6 " in assert_same_scan_error(fam, 0.0, 800.0, 1001)
    # κ ≈ e^{800} overflows at the first point, where the dense route fails
    # on the weight itself
    fam = kernel_family([(-1.0, np.eye(6))])
    with pytest.raises(OverflowError, match=r"^κ overflows a float at theta=-800$"):
        kappa_convexity_scan(fam, -800.0, 0.0, 3)
    with pytest.raises(OverflowError):
        dense_curvature(fam, -800.0)


def test_guard_passes_close_to_the_singular_limit_on_its_exact_test():
    # h_oo = e^{−θ} against ‖P H P‖_F ≈ √8: the ratio h/‖P H P‖_F is within a
    # factor 2 of 1/COND_LIMIT at θ = 26, and crosses it before θ = 27
    fam = kernel_family([(-1.0, np.eye(6))])
    for theta in (20.0, 25.0, 26.0):
        exact = exact_kappa(fam, fam.split.u, float_weights(fam, theta))
        assert ulps_off(schur_curvature(fam, theta), exact) <= 4
    for curvature in (dense_curvature, schur_curvature):
        with pytest.raises(ValueError, match="singular at theta=27 "):
            curvature(fam, 27.0)


@pytest.mark.parametrize(
    "grid, theta", [((-800.0, 800.0, 11), "-800"), ((-2.0, 600.0, 7), "399.333")]
)
def test_overflowing_hessian_is_an_overflow_not_a_singular_block(grid, theta):
    # the fixture family: the weights are finite and h_oo is far from small,
    # but w_k·w_l·G_kl, and so ‖H‖_F, overflow a float.  The dense route,
    # which holds H(θ) itself, reports that; the kernel's scaled weights
    # give κ there, to 4 ulps
    fam = family_from_dict(family_doc())
    thetas = np.linspace(*grid)
    with pytest.raises(OverflowError, match=rf"^H\(theta\) overflows a float at theta={theta}$"):
        for t in thetas:
            dense_curvature(fam, t)
    first = next(float(t) for t in thetas if f"{t:g}" == theta)
    assert ulps_off(schur_curvature(fam, first), scaled_exact_kappa(fam, first)) <= 4
    if grid[1] == 800.0:  # κ itself overflows at the last point, ln κ ≈ 799.5
        with pytest.raises(OverflowError, match=r"^κ overflows a float at theta=800$"):
            kappa_convexity_scan(fam, *grid)
    else:
        assert all(map(math.isfinite, kappa_convexity_scan(fam, *grid).kappas))


def test_strict_convexity_witness_positive():
    n = 6
    u = [math.cos(2 * math.pi * k / n) for k in range(n)]
    fam = make_family(n, 2.0, u, np.zeros((n, n)), [(1.0, np.eye(n))])
    rep = strict_convexity_witness(fam, 0, -1.0, 0.0)
    assert rep.strict
    assert math.isclose(rep.witness, 1.0, rel_tol=1e-12)
    assert rep.curvature_floor > 0


def test_strict_convexity_witness_degenerate():
    # C = J/n + ûûᵀ has no banded component: P_B C P_B = 0, witness 0.
    n = 6
    u_raw = [(-1.0) ** k for k in range(n)]
    split = build_split(n, 2.0, u_raw)
    c = np.ones((n, n)) / n + np.outer(split.u, split.u)
    fam = make_family(n, 2.0, u_raw, np.zeros((n, n)), [(1.0, c)])
    rep = strict_convexity_witness(fam, 0, -1.0, 0.0)
    assert not rep.strict
    assert rep.witness < 1e-12


@pytest.mark.parametrize("index", [-1, 2])
def test_strict_convexity_witness_rejects_a_bad_term_index(index):
    # a negative index is no count; one past the terms is out of range
    if index < 0:
        message = f"term_index must be an integer >= 0, got {index}"
    else:
        message = f"term index {index} out of range"
    with pytest.raises(ValueError, match=f"^{message}$"):
        strict_convexity_witness(ring_family(), index, -1.0, 0.0)


def test_strict_convexity_witness_rejects_a_zero_exponent():
    # s = 0 is a constant term: it adds nothing to the curvature in θ
    with pytest.raises(ValueError, match="^witness term must have a nonzero exponent$"):
        strict_convexity_witness(ring_family(s1=0.0), 0, -1.0, 0.0)


# ---------------------------------------------------------------------------
# quadratic-law fit
# ---------------------------------------------------------------------------


def test_quadratic_law_fit_exact_round_trip():
    from goldenschur.lockin import QuadLawCoeffs, kappa_quadratic

    a, b, n = Fraction(7, 3), Fraction(-5, 4), 12
    coeffs = QuadLawCoeffs(a, b, n)
    pts = [(q, kappa_quadratic(coeffs, q)) for q in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3))]
    fit = quadratic_law_fit(pts, n)
    assert fit.a == a and fit.b == b
    assert all(r == 0 for r in fit.residuals)
    assert fit.max_abs_residual == 0


def test_quadratic_law_fit_exact_q5_points():
    from goldenschur.lockin import QuadLawCoeffs, kappa_quadratic

    coeffs = QuadLawCoeffs(Fraction(1, 2), Fraction(-1), 12)
    qs = (QSTAR, Fraction(1, 2), Fraction(2, 5))
    pts = [(q, kappa_quadratic(coeffs, q)) for q in qs]
    fit = quadratic_law_fit(pts, 12)
    assert fit.a == Fraction(1, 2) and fit.b == Fraction(-1)


def test_quadratic_law_fit_float_points():
    from goldenschur.lockin import QuadLawCoeffs, kappa_quadratic

    coeffs = QuadLawCoeffs(0.9, -1.1, 8)
    pts = [(q, kappa_quadratic(coeffs, q)) for q in (0.2, 0.5, 0.7, 0.9)]
    fit = quadratic_law_fit(pts, 8)
    assert math.isclose(fit.a, 0.9, rel_tol=1e-9)
    assert math.isclose(fit.b, -1.1, rel_tol=1e-9)
    assert fit.max_abs_residual < 1e-9


@pytest.mark.parametrize("q", [0.5, Fraction(1, 2)], ids=repr)
@pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf, np.float32("nan")], ids=repr)
def test_quadratic_law_fit_rejects_a_kappa_that_is_not_finite(kappa, q):
    # in either lane of q a NaN κ gave a NaN fit, and an infinite one ±inf
    message = f"kappa sample must be finite, got {kappa!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        quadratic_law_fit([(q, kappa), (0.3, 1.0)], 12)


@pytest.mark.parametrize("scalar", [np.float32, Decimal])
def test_quadratic_law_fit_reads_a_q_that_a_float_equals_as_that_float(scalar):
    # a numpy.float32 q runs in double precision, and a Decimal q as the
    # float it equals: the fit has the bits, and the types, of float samples
    points = [(0.5, 1.25), (0.25, -0.75), (0.75, 2.5)]
    want = quadratic_law_fit(points, 12)
    got = quadratic_law_fit([(scalar(str(q)), kappa) for q, kappa in points], 12)
    values = (got.a, got.b, *got.residuals)
    assert all(type(x) is float for x in values)
    assert [x.hex() for x in values] == [x.hex() for x in (want.a, want.b, *want.residuals)]


_FIT_Q = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(0.0, 1e-9, exclude_min=True),
    st.floats(1.0 - 1e-9, 1.0, exclude_max=True),
)


@settings(deadline=None)
@given(
    n=st.integers(1, 512),
    points=st.lists(st.tuples(_FIT_Q, st.floats(-50, 50)), min_size=2, max_size=6),
)
def test_quadratic_law_fit_float_points_have_the_bits_of_moments(n, points):
    # float samples take the float kernel, with the bits of the formula on
    # moments(): Δ = M_a·V_b − M_b·V_a with M = I₁², V = Var
    from goldenschur.folded import moments
    from goldenschur.floatlaw import DEGENERACY_RTOL

    ms, vs, ks = [], [], []
    for q, kappa in points:
        m = moments(n, q)
        ms.append(m.i1 * m.i1)
        vs.append(m.var)
        ks.append(kappa)
    delta = ms[0] * vs[1] - ms[1] * vs[0]
    if abs(delta) <= DEGENERACY_RTOL * (abs(ms[0] * vs[1]) + abs(ms[1] * vs[0])):
        with pytest.raises(ValueError, match="degenerate sample pair"):
            quadratic_law_fit(points, n)
        return
    a = (ks[0] * vs[1] - ks[1] * vs[0]) / delta
    b = (ms[0] * ks[1] - ms[1] * ks[0]) / delta
    residuals = [ks[i] - (a * ms[i] + b * vs[i]) for i in range(2, len(points))]
    fit = quadratic_law_fit(points, n)
    assert [x.hex() for x in (fit.a, fit.b, *fit.residuals)] == [
        x.hex() for x in (a, b, *residuals)
    ]


def test_quadratic_law_fit_degenerate_pair():
    # two points with proportional (I₁², Var) rows cannot identify (A, B)
    pts = [(Fraction(1, 2), Fraction(1)), (Fraction(1, 2), Fraction(1))]
    with pytest.raises(ValueError):
        quadratic_law_fit(pts, 12)


def test_quadratic_law_fit_degeneracy_is_relative():
    from goldenschur.lockin import QuadLawCoeffs, kappa_quadratic

    # |Δ| ≈ 1.6e-15 is small, but a third of its scale: M ≈ 1 and V ≈ q.  B·V
    # is about 1e-15 of κ, so only A is recovered to full precision.
    coeffs = QuadLawCoeffs(0.9, -1.1, 12)
    fit = quadratic_law_fit([(q, kappa_quadratic(coeffs, q)) for q in (1e-15, 3e-15)], 12)
    assert math.isclose(fit.a, 0.9, rel_tol=1e-12)
    # |Δ| ≈ 0.09 is large, but 5e-10 of the products it is the difference of
    coeffs = QuadLawCoeffs(0.9, -1.1, 256)
    pts = [(q, kappa_quadratic(coeffs, q)) for q in (0.999, 0.999 + 1e-13)]
    with pytest.raises(ValueError, match="degenerate sample pair"):
        quadratic_law_fit(pts, 256)


def test_quadratic_law_fit_needs_two_points():
    with pytest.raises(ValueError):
        quadratic_law_fit([(Fraction(1, 2), Fraction(1))], 12)


# ---------------------------------------------------------------------------
# JSON loading
# ---------------------------------------------------------------------------


def test_family_from_dict_circulant_and_dense_agree():
    doc = family_doc()
    fam1 = family_from_dict(doc)
    dense = dict(doc)
    dense["C0"] = circulant([2.5, 0.5, 0.0, 0.0, 0.0, 0.5])
    dense["terms"] = [
        {"s": t["s"], "C": circulant(t["C"]["circulant"])} for t in doc["terms"]
    ]
    fam2 = family_from_dict(dense)
    assert fam1.base.c == fam2.base.c
    for t1, t2 in zip(fam1.terms, fam2.terms):
        assert t1.s == t2.s
        assert t1.c == t2.c


def test_family_from_dict_flat_matrix():
    # a flat row-major list is not an encoding: it is refused, with the field
    # and the two encodings named, even where its rows are a valid circulant
    flat = family_doc()
    flat["C0"] = [x for row in circulant([2.5, 0.5, 0, 0, 0, 0.5]) for x in row]
    message = 'C0: expected 6 rows of 6 numbers or {"circulant": [6 numbers]}'
    with pytest.raises(ValueError) as info:
        family_from_dict(flat)
    assert str(info.value) == message


def _nested_rows_doc(kind):
    """The fixture family doubled, so that every entry is an integer, in the
    nested-rows encoding with entries of type ``kind``."""
    doc = family_doc()
    for spec in (doc, *doc["terms"]):
        key = "C0" if spec is doc else "C"
        rows = circulant([2 * x for x in spec[key]["circulant"]])
        spec[key] = [[kind(int(x)) for x in row] for row in rows]
    return doc


def test_family_from_dict_nested_rows_that_are_not_all_floats():
    ints, floats = _nested_rows_doc(int), _nested_rows_doc(float)
    assert type(ints["C0"][0][0]) is int and type(floats["C0"][0][0]) is float
    assert schur_curvature(family_from_dict(ints), -1.0) == schur_curvature(
        family_from_dict(floats), -1.0
    )
    ints["C0"][2][3] = True
    with pytest.raises(ValueError, match=r"^C0\[2\]\[3\]: expected a number, got true$"):
        family_from_dict(ints)


def test_load_family_round_trip(tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family_doc()))
    fam = load_family(path)
    assert fam.split.n == 6
    assert len(fam.terms) == 2
    assert math.isclose(
        schur_curvature(fam, -0.5), schur_curvature(family_from_dict(family_doc()), -0.5)
    )


def test_load_family_reports_violations(tmp_path):
    doc = family_doc()
    doc["C0"] = np.diag([1.0, 2.0, 1.0, 1.0, 1.0, 1.0]).tolist()  # not circulant
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FamilyValidationError) as err:
        load_family(path)
    assert err.value.violations


def test_family_from_dict_missing_key():
    doc = family_doc()
    del doc["u"]
    with pytest.raises((KeyError, ValueError)):
        family_from_dict(doc)
