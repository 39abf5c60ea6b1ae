"""Tests for the equivariant Hessian family and its Schur-complement curvature."""

import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from goldenschur.folded import folded_weights
from goldenschur.lockin import quadratic_law_fit
from goldenschur.oracle import (
    assemble_hessian,
    band_basis,
    block_hessian,
    dense_curvature,
    exact_kappa,
    matrix_convexity_check,
    reversal_matrix,
    schur_complement,
    shift_matrix,
    variational_check,
    variational_expression,
)
from goldenschur.qfield import Q5, QSTAR
from goldenschur.schur import (
    EQUIVARIANCE_TOL,
    PSD_TOL,
    SYM_TOL,
    ExpTerm,
    FamilyValidationError,
    HessianFamily,
    build_split,
    circulant,
    family_from_dict,
    kappa_convexity_scan,
    load_family,
    make_family,
    q_class_functional_from_weights,
    random_family,
    random_symmetric_psd_circulant,
    schur_curvature,
    strict_convexity_witness,
)
from goldenschur.schur import _DIRECT_MAX, _chirp, _dft, _grid, _rfft, _roots

RNG_SEED = 20260819
FIXTURES = Path(__file__).parent / "fixtures"


def ring_family(n=6, *, s1=1.0, s2=-0.7):
    """Deterministic two-term circulant family used across tests."""
    c0 = circulant([2.5] + [0.5] + [0.0] * (n - 3) + [0.5])
    c1 = circulant([1.0, 0.5] + [0.0] * (n - 3) + [0.5])
    c2 = circulant([1.5, 0.0, 0.5] + [0.0] * (n - 5) + [0.5, 0.0])
    u = [math.cos(2 * math.pi * k / n) for k in range(n)]
    return make_family(n, 2.0, u, c0, [(s1, c1), (s2, c2)])


def row_family(u_raw, row0, terms):
    """A family built from its generator rows with no validation, as a
    negative control that no validated family can be (m_ρ² = 2)."""
    return HessianFamily(
        build_split(len(row0), 2.0, u_raw),
        ExpTerm(0.0, np.asarray(row0, dtype=float)),
        tuple(ExpTerm(s, np.asarray(g, dtype=float)) for s, g in terms),
    )


# ---------------------------------------------------------------------------
# circulant helpers
# ---------------------------------------------------------------------------


def test_circulant_layout():
    c = circulant([1.0, 2.0, 3.0, 4.0])
    assert c[0].tolist() == [1.0, 2.0, 3.0, 4.0]
    # row i is the generator rotated right: C[i, j] = g[(j − i) mod n]
    assert c[1].tolist() == [4.0, 1.0, 2.0, 3.0]
    assert c[2, 0] == 3.0


def test_circulant_commutes_with_shift():
    s = shift_matrix(5)
    c = circulant([1.0, 2.0, 0.0, 0.0, 2.0])
    assert np.allclose(s @ c, c @ s)
    r = reversal_matrix(5)
    assert np.allclose(r @ c, c @ r)  # symmetric generator → reversal-invariant


def test_shift_and_reversal_are_permutations():
    s, r = shift_matrix(6), reversal_matrix(6)
    assert np.allclose(s @ s.T, np.eye(6))
    assert np.allclose(r @ r, np.eye(6))
    v = np.arange(6.0)
    assert (s @ v).tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 0.0]


def test_random_psd_circulant():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(20):
        c = random_symmetric_psd_circulant(7, rng)
        assert np.allclose(c, c.T)
        assert np.linalg.eigvalsh(c).min() >= -1e-12
        s = shift_matrix(7)
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
    p = split.p_band
    assert np.allclose(p, p.T)
    assert np.allclose(p @ p, p)
    assert np.allclose(p @ ones, 0.0)
    assert np.allclose(p @ u, 0.0)
    assert math.isclose(np.trace(p), n - 2, rel_tol=1e-13)
    # band basis spans the range of P_B
    b = band_basis(split)
    assert b.shape == (n, n - 2)
    assert np.allclose(b.T @ b, np.eye(n - 2))
    assert np.allclose(b @ b.T, p)
    assert np.allclose(b.T @ ones, 0.0)
    assert np.allclose(b.T @ u, 0.0)


def test_build_split_mean_removal():
    # adding a constant to u_raw changes nothing
    n = 8
    base = [math.sin(2 * math.pi * k / n) + 0.3 * math.cos(4 * math.pi * k / n) for k in range(n)]
    s1 = build_split(n, 2.0, base)
    s2 = build_split(n, 2.0, [x + 5.0 for x in base])
    assert np.allclose(s1.u, s2.u)
    assert np.allclose(s1.p_band, s2.p_band)


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


# ---------------------------------------------------------------------------
# family construction and validation
# ---------------------------------------------------------------------------


def test_make_family_and_assemble():
    fam = ring_family()
    h0 = assemble_hessian(fam, 0.0)
    expected = fam.c0 + sum(t.coef for t in fam.terms)
    assert np.allclose(h0, expected)
    theta = -0.7
    h = assemble_hessian(fam, theta)
    expected = fam.c0 + sum(math.exp(t.s * theta) * t.coef for t in fam.terms)
    assert np.allclose(h, expected)
    assert np.allclose(h, h.T)


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
    indefinite = np.eye(n) - 0.75 * circulant([0.0, 1.0, 0.0, 0.0, 0.0, 1.0])
    assert np.linalg.eigvalsh(indefinite).min() < -0.4
    with pytest.raises(FamilyValidationError) as err:
        make_family(n, 2.0, u, indefinite, [])
    assert any("PSD" in v for v in err.value.violations)
    # the negative control, built from its row
    fam = row_family(u, indefinite[0], [])
    assert np.linalg.eigvalsh(assemble_hessian(fam, 0.0)).min() < -0.4


def test_validation_rejects_non_equivariant():
    n = 5
    u = [math.cos(2 * math.pi * k / n) for k in range(n)]
    non_circ = np.diag([1.0, 2.0, 1.0, 1.0, 1.0])
    with pytest.raises(FamilyValidationError) as err:
        make_family(n, 2.0, u, non_circ, [])
    assert any("commutator norm" in v for v in err.value.violations)


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


def parent_rule_accepts(c):
    """The dense validation rule: symmetry, eigvalsh and both commutator norms."""
    n = c.shape[0]
    scale = max(1.0, float(np.linalg.norm(c)))
    if np.max(np.abs(c - c.T)) > SYM_TOL * scale:
        return False
    psd = np.linalg.eigvalsh((c + c.T) / 2)[0] >= -PSD_TOL * scale
    s, r = shift_matrix(n), reversal_matrix(n)
    cs = np.linalg.norm(c @ s - s @ c)
    cr = np.linalg.norm(c @ r - r @ c)
    return psd and max(cs, cr) <= EQUIVARIANCE_TOL * scale


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
        coef, c = g, circulant(g)
    else:
        c = circulant(g)
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
    assert accepted == parent_rule_accepts(c)


_SCHUR_LOADS_ORACLE = """
import contextlib, io, sys
from goldenschur.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["schur", *sys.argv[1:]])
print(code, "goldenschur.oracle" in sys.modules)
"""


def test_circulant_family_builds_no_dense_array(tmp_path):
    fam = family_from_dict(family_doc())
    kappa_convexity_scan(fam, -2.0, -0.1, 11)
    assert "p_band" not in vars(fam.split)
    assert all(np.shape(t.c) == (6,) and "coef" not in vars(t) for t in (fam.base, *fam.terms))
    assert fam.c0.shape == (6, 6)  # built on first use
    # the dense blocks live in the oracle module, which `schur` never loads
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family_doc()))
    proc = subprocess.run(
        [sys.executable, "-c", _SCHUR_LOADS_ORACLE, str(path), "-2.0", "-0.1", "11", "--fit-law"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]


def test_random_family_is_valid():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(25):
        n = int(rng.integers(3, 9))
        fam = random_family(n, rng)  # make_family validates internally
        assert fam.split.n == n
        h = assemble_hessian(fam, float(rng.uniform(-2, 1)))
        assert np.linalg.eigvalsh(h).min() >= -1e-10


def _dense_random_family(n, rng, n_terms=2):
    """random_family's draws, passed to make_family as dense matrices."""
    u_raw = rng.standard_normal(n)
    while np.linalg.norm(u_raw - u_raw.mean()) < 1e-6:
        u_raw = rng.standard_normal(n)
    c0 = random_symmetric_psd_circulant(n, rng) + 0.5 * np.eye(n)
    terms = []
    for _ in range(n_terms):
        s = float(rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0]))
        terms.append((s, random_symmetric_psd_circulant(n, rng)))
    return make_family(n, 2.0, u_raw, c0, terms)


@pytest.mark.parametrize("seed", [0, 1, 2, 7, 11, 42, 2024])
def test_random_family_stores_the_rows_of_the_dense_path(seed):
    n = 3 + seed % 7
    fam = random_family(n, np.random.default_rng(seed), n_terms=1 + seed % 3)
    dense = _dense_random_family(n, np.random.default_rng(seed), n_terms=1 + seed % 3)
    assert np.array_equal(fam.split.u, dense.split.u)
    assert len(fam.terms) == len(dense.terms)
    for got, want in zip((fam.base, *fam.terms), (dense.base, *dense.terms)):
        assert got.s == want.s
        assert np.ndim(got.c) == 1 and np.array_equal(got.c, want.c)


# ---------------------------------------------------------------------------
# block extraction and the Schur complement
# ---------------------------------------------------------------------------


def test_schur_complement_hand_case():
    # [[2, 1], [1, 1]] over a 1|1 split: 2 − 1·1⁻¹·1 = 1
    s = schur_complement(np.array([[2.0]]), np.array([[1.0]]), np.array([[1.0]]))
    assert np.allclose(s, [[1.0]])


def test_schur_complement_singular_block():
    with pytest.raises(ValueError):
        schur_complement(np.eye(2), np.zeros((2, 1)), np.array([[0.0]]), context="theta=0")


def test_schur_complement_negligible_collective_block():
    # positive, but negligible next to ‖H‖_F = 1; a 1×1 condition number is always 1
    with pytest.raises(ValueError, match="numerically singular"):
        schur_complement(np.array([[1.0]]), np.array([[0.0]]), np.array([[1e-300]]))


def test_schur_complement_needs_one_collective_direction():
    with pytest.raises(ValueError, match="1x1"):
        schur_complement(np.eye(2), np.zeros((2, 2)), np.eye(2))


def test_block_hessian_shapes_and_values():
    fam = ring_family()
    theta = -0.4
    blocks = block_hessian(fam, theta)
    n = fam.split.n
    h = assemble_hessian(fam, theta)
    b, u = band_basis(fam.split), np.asarray(fam.split.u).reshape(-1, 1)
    assert np.allclose(blocks.h_bb, b.T @ h @ b)
    assert np.allclose(blocks.h_bo, b.T @ h @ u)
    assert np.allclose(blocks.h_oo, u.T @ h @ u)
    assert np.allclose(blocks.h_ob, blocks.h_bo.T)
    assert blocks.h_bb.shape == (n - 2, n - 2)


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
    h = assemble_hessian(fam, theta)
    split = fam.split
    rng = np.random.default_rng(3)
    m, _ = np.linalg.qr(rng.standard_normal((split.dim_band, split.dim_band)))
    b2 = band_basis(split) @ m
    u = np.asarray(split.u).reshape(-1, 1)
    s2 = schur_complement(b2.T @ h @ b2, b2.T @ h @ u, u.T @ h @ u)
    assert math.isclose(np.trace(s2) / split.dim_band, schur_curvature(fam, theta), rel_tol=1e-12)


# ---------------------------------------------------------------------------
# variational characterization
# ---------------------------------------------------------------------------


def test_variational_expression_at_minimizer():
    fam = ring_family()
    blocks = block_hessian(fam, -0.5)
    y_star = -np.linalg.solve(blocks.h_oo, blocks.h_bo.T)  # 1 × (n−2)
    s = schur_complement(blocks.h_bb, blocks.h_bo, blocks.h_oo)
    assert np.allclose(variational_expression(blocks, y_star), s, atol=1e-12)


def test_variational_check_random_families():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        fam = random_family(n, rng)
        rep = variational_check(fam, float(rng.uniform(-1.5, 0.5)), trials=100, rng=rng)
        assert rep.minimizer_gap <= 1e-10
        assert rep.min_loewner_eig >= -1e-10
        assert rep.trials == 100
        assert rep.passed()


def _variational_reference(fam, theta, trials, rng):
    """One coupling, one expression and one eigvalsh call per trial."""
    blocks = block_hessian(fam, theta)
    schur = schur_complement(blocks.h_bb, blocks.h_bo, blocks.h_oo)
    y_star = -np.linalg.solve(blocks.h_oo, blocks.h_ob)
    gap = float(np.linalg.norm(variational_expression(blocks, y_star) - schur, 2))
    worst = math.inf
    for _ in range(trials):
        diff = variational_expression(blocks, rng.standard_normal(y_star.shape)) - schur
        worst = min(worst, float(np.linalg.eigvalsh((diff + diff.T) / 2)[0]))
    return (theta, gap, worst, trials)


def _convexity_reference(fam, theta1, theta2, ts):
    """One gap and one eigvalsh call per grid point."""
    h1, h2 = assemble_hessian(fam, theta1), assemble_hessian(fam, theta2)
    eigs = []
    for t in ts:
        gap = t * h1 + (1 - t) * h2 - assemble_hessian(fam, t * theta1 + (1 - t) * theta2)
        eigs.append(float(np.linalg.eigvalsh((gap + gap.T) / 2)[0]))
    return (theta1, theta2, tuple(float(t) for t in ts), tuple(eigs))


@pytest.mark.parametrize("seed", range(20))
def test_stacked_loewner_checks_match_per_trial_loops(seed):
    # one stacked eigvalsh call gives the fields of the per-trial loop, bit for
    # bit, and leaves the generator where the loop leaves it
    draw = np.random.default_rng(seed)
    fam = random_family(int(draw.integers(3, 10)), draw)
    theta = float(draw.uniform(-1.5, 0.5))
    t1, t2 = sorted(float(t) for t in draw.uniform(-2.0, 0.5, size=2))
    trials = int(draw.integers(1, 80))

    rng, ref_rng = np.random.default_rng(seed + 100), np.random.default_rng(seed + 100)
    rep = variational_check(fam, theta, trials=trials, rng=rng)
    got = (rep.theta, rep.minimizer_gap, rep.min_loewner_eig, rep.trials)
    want = _variational_reference(fam, theta, trials, ref_rng)
    assert repr(got) == repr(want)  # a float's repr round-trips its bits
    assert rng.standard_normal() == ref_rng.standard_normal()

    rep = matrix_convexity_check(fam, t1, t2, 11)
    want = _convexity_reference(fam, t1, t2, np.linspace(0.0, 1.0, 11))
    assert repr((rep.theta1, rep.theta2, rep.t_values, rep.min_eigs)) == repr(want)
    assert all(type(x) is float for x in rep.t_values + rep.min_eigs)


@pytest.mark.parametrize("n_terms", [0, 1, 2, 3])
def test_convexity_gaps_match_a_per_t_assembly(n_terms):
    # the Hessians are built in one stack; each gap keeps the bits of a per-t
    # assemble_hessian, so the same stacked eigvalsh gives the same min_eigs
    draw = np.random.default_rng(40 + n_terms)
    fams = [random_family(int(draw.integers(3, 10)), draw, n_terms=n_terms)]
    if n_terms:
        n = fams[0].n
        g = draw.standard_normal(n)
        g = (g + g[(n - np.arange(n)) % n]) / 2  # a symmetric row, indefinite as a rule
        fams.append(row_family(draw.standard_normal(n), np.eye(n)[0], [(0.7, g)] * n_terms))
    for fam in fams:
        t1, t2 = sorted(float(t) for t in draw.uniform(-2.0, 0.5, size=2))
        ts = np.linspace(0.0, 1.0, 11)
        h1, h2 = assemble_hessian(fam, t1), assemble_hessian(fam, t2)
        gaps = np.stack([
            t * h1 + (1 - t) * h2 - assemble_hessian(fam, t * t1 + (1 - t) * t2) for t in ts
        ])
        w = np.linalg.eigvalsh((gaps + gaps.swapaxes(-1, -2)) / 2)
        assert matrix_convexity_check(fam, t1, t2, 11).min_eigs == tuple(w[:, 0].tolist())


@pytest.mark.parametrize("trials", [0, -3])
def test_variational_check_rejects_no_trials(trials):
    fam = ring_family()
    with pytest.raises(ValueError, match="trials must be >= 1"):
        variational_check(fam, -0.5, trials=trials, rng=np.random.default_rng(0))


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
        fam = random_family(int(rng.integers(3, 8)), rng)
        theta = float(rng.uniform(-1.0, 0.5))
        blocks = block_hessian(fam, theta)
        dim = blocks.h_bb.shape[0]

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
        fam = random_family(int(rng.integers(3, 9)), rng)
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
        fam = random_family(int(rng.integers(3, 13)), rng, n_terms=int(rng.integers(0, 4)))
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
    fam = random_family(n, np.random.default_rng(seed), n_terms=n_terms)
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
    fam = random_family(n, np.random.default_rng(seed), n_terms=n_terms)
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
    fam = random_family(9, np.random.default_rng(RNG_SEED), n_terms=3)
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
    fam = kernel_family([(-1.0, np.eye(6))])
    assert_same_scan_error(fam, -800.0, 0.0, 3)  # OverflowError at the first point


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
    with pytest.raises(ValueError, match=f"^term index {index} out of range$"):
        strict_convexity_witness(ring_family(), index, -1.0, 0.0)


def test_strict_convexity_witness_rejects_a_zero_exponent():
    # s = 0 is a constant term: it adds nothing to the curvature in θ
    with pytest.raises(ValueError, match="^witness term must have a nonzero exponent$"):
        strict_convexity_witness(ring_family(s1=0.0), 0, -1.0, 0.0)


# ---------------------------------------------------------------------------
# q-class functional
# ---------------------------------------------------------------------------


def test_q_class_functional_hand_loop():
    # independent dense-loop evaluation of tr(P K₁ D⁻¹ K₂ P)/dim_B
    n, q = 3, 0.5
    split = build_split(n, 2.0, [1.0, 0.0, -1.0])
    k1 = circulant([2.0, 1.0, 1.0])
    k2 = circulant([1.0, 0.5, 0.5])
    w = [float(x) for x in folded_weights(n, Fraction(1, 2))]
    d_inv = np.diag([1.0 / x for x in w])
    p = split.p_band
    acc = 0.0
    for i in range(n):
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    acc += p[i, a] * k1[a, b] * d_inv[b, b] * k2[b, c] * p[c, i]
    expected = acc / split.dim_band
    assert math.isclose(
        q_class_functional_from_weights(k1, k2, split, folded_weights(n, q)),
        expected,
        rel_tol=1e-12,
    )
    assert math.isclose(
        q_class_functional_from_weights(k1, k2, split, w), expected, rel_tol=1e-12
    )


def test_q_class_functional_uniform_weights():
    # uniform weights make D⁻¹ = n·I, so the functional reduces to
    # n·tr(P K₁ K₂ P)/dim_B
    n = 5
    split = build_split(n, 2.0, [math.cos(2 * math.pi * k / n) for k in range(n)])
    k1 = circulant([1.0, 0.3, 0.0, 0.0, 0.3])
    k2 = circulant([0.7, 0.1, 0.2, 0.2, 0.1])
    w = [1.0 / n] * n
    got = q_class_functional_from_weights(k1, k2, split, w)
    p = split.p_band
    expected = n * np.trace(p @ k1 @ k2 @ p) / split.dim_band
    assert math.isclose(got, expected, rel_tol=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.1])
def test_q_class_functional_rejects_weights_that_are_not_positive_and_finite(bad):
    n = 4
    split = build_split(n, 2.0, [1.0, 0.0, -1.0, 0.0])
    k = circulant([2.0, 0.5, 0.0, 0.5])
    for weights in ([bad] * n, [0.25, 0.25, bad, 0.25]):
        with pytest.raises(ValueError, match="need 4 positive weights"):
            q_class_functional_from_weights(k, k, split, weights)


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
    from goldenschur.lockin import DEGENERACY_RTOL

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


def family_doc(n=6):
    return {
        "N": n,
        "m_rho_sq": 2.0,
        "u": [math.cos(2 * math.pi * k / n) for k in range(n)],
        "C0": {"circulant": [2.5, 0.5, 0.0, 0.0, 0.0, 0.5]},
        "terms": [
            {"s": 1.0, "C": {"circulant": [1.0, 0.5, 0.0, 0.0, 0.0, 0.5]}},
            {"s": -0.7, "C": {"circulant": [1.5, 0.0, 0.5, 0.0, 0.5, 0.0]}},
        ],
    }


def test_family_from_dict_circulant_and_dense_agree():
    doc = family_doc()
    fam1 = family_from_dict(doc)
    dense = dict(doc)
    dense["C0"] = circulant([2.5, 0.5, 0.0, 0.0, 0.0, 0.5]).tolist()
    dense["terms"] = [
        {"s": t["s"], "C": circulant(t["C"]["circulant"]).tolist()} for t in doc["terms"]
    ]
    fam2 = family_from_dict(dense)
    assert np.allclose(fam1.c0, fam2.c0)
    for t1, t2 in zip(fam1.terms, fam2.terms):
        assert t1.s == t2.s
        assert np.allclose(t1.coef, t2.coef)


def test_family_from_dict_flat_matrix():
    doc = family_doc()
    flat = dict(doc)
    flat["C0"] = [x for row in circulant([2.5, 0.5, 0, 0, 0, 0.5]).tolist() for x in row]
    fam = family_from_dict(flat)
    assert np.allclose(fam.c0, family_from_dict(doc).c0)


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
