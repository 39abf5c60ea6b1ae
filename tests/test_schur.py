"""Tests for the equivariant Hessian family and its Schur-complement curvature."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from goldenschur.folded import folded_weights
from goldenschur.lockin import quadratic_law_fit
from goldenschur.qfield import Q5, QSTAR
from goldenschur.schur import (
    EQUIVARIANCE_TOL,
    PSD_TOL,
    SYM_TOL,
    FamilyValidationError,
    assemble_hessian,
    block_hessian,
    build_split,
    circulant,
    family_from_dict,
    kappa_convexity_scan,
    load_family,
    make_family,
    matrix_convexity_check,
    q_class_functional,
    q_class_functional_from_weights,
    random_family,
    random_symmetric_psd_circulant,
    reversal_matrix,
    schur_complement,
    schur_curvature,
    shift_matrix,
    strict_convexity_witness,
    variational_check,
    variational_expression,
)

RNG_SEED = 20260819


def ring_family(n=6, *, s1=1.0, s2=-0.7):
    """Deterministic two-term circulant family used across tests."""
    c0 = circulant([2.5] + [0.5] + [0.0] * (n - 3) + [0.5])
    c1 = circulant([1.0, 0.5] + [0.0] * (n - 3) + [0.5])
    c2 = circulant([1.5, 0.0, 0.5] + [0.0] * (n - 5) + [0.5, 0.0])
    u = [math.cos(2 * math.pi * k / n) for k in range(n)]
    return make_family(n, 2.0, u, c0, [(s1, c1), (s2, c2)])


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
# the splitting geometry
# ---------------------------------------------------------------------------


def test_build_split_geometry():
    n = 6
    u_raw = [math.cos(2 * math.pi * k / n) for k in range(n)]
    split = build_split(n, 2.0, u_raw)
    assert split.n == n and split.dim_band == n - 2
    ones = np.ones(n) / math.sqrt(n)
    # u is mean-free and unit
    assert abs(split.u @ ones) < 1e-14
    assert math.isclose(split.u @ split.u, 1.0, rel_tol=1e-14)
    # P_B is the orthogonal projector onto the complement of span{1, u}
    p = split.p_band
    assert np.allclose(p, p.T)
    assert np.allclose(p @ p, p)
    assert np.allclose(p @ ones, 0.0)
    assert np.allclose(p @ split.u, 0.0)
    assert math.isclose(np.trace(p), n - 2, rel_tol=1e-13)
    # band basis spans the range of P_B
    b = split.band_basis
    assert b.shape == (n, n - 2)
    assert np.allclose(b.T @ b, np.eye(n - 2))
    assert np.allclose(b @ b.T, p)
    assert np.allclose(b.T @ ones, 0.0)
    assert np.allclose(b.T @ split.u, 0.0)


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
    # validate=False lets the negative control through
    fam = make_family(n, 2.0, u, indefinite, [], validate=False)
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


def test_circulant_family_builds_no_dense_array():
    fam = family_from_dict(family_doc())
    kappa_convexity_scan(fam, -2.0, -0.1, 11)
    assert "band_basis" not in vars(fam.split) and "p_band" not in vars(fam.split)
    assert all(t.given is None and "coef" not in vars(t) for t in (fam.base, *fam.terms))
    assert fam.c0.shape == (6, 6)  # built on first use


def test_random_family_is_valid():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(25):
        n = int(rng.integers(3, 9))
        fam = random_family(n, rng)  # make_family validates internally
        assert fam.split.n == n
        h = assemble_hessian(fam, float(rng.uniform(-2, 1)))
        assert np.linalg.eigvalsh(h).min() >= -1e-10


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
    b, u = fam.split.band_basis, fam.split.u.reshape(-1, 1)
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
    b2 = split.band_basis @ m
    u = split.u.reshape(-1, 1)
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
    # A family with a genuinely non-convex path: negative coefficient matrix
    # forced in without validation.
    n = 5
    u = [math.cos(2 * math.pi * k / n) for k in range(n)]
    fam = make_family(n, 2.0, u, np.zeros((n, n)), [(1.0, -np.eye(n))], validate=False)
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
    n = 5
    u_raw = [math.cos(2 * math.pi * k / n) for k in range(n)]
    split = build_split(n, 2.0, u_raw)
    # κ(θ) = 1 − e^θ is strictly concave.  The negative band-supported term
    # leaves H_OO = 1 (P_B u = 0), so the Schur complement stays defined.
    fam = make_family(n, 2.0, u_raw, np.eye(n), [(1.0, -split.p_band)], validate=False)
    scan = kappa_convexity_scan(fam, -1.0, 0.0, points=21)
    assert not scan.convex_ok
    assert len(scan.violations) > 0
    assert scan.min_second_difference < -1e-6


def dense_curvature(fam, theta):
    """κ_Schur from the dense band/collective blocks: the oracle route."""
    blocks = block_hessian(fam, theta)
    s = schur_complement(blocks.h_bb, blocks.h_bo, blocks.h_oo, context=f"theta={theta:g}")
    return float(np.trace(s)) / fam.split.dim_band


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
        rows = [(t.s, t.generator) for t in fam.terms]
        fam = make_family(n, 2.0, fam.split.u, fam.base.generator, rows)
        assert fam.base.given is None
    dense = dense_curvature(fam, theta)
    assert abs(schur_curvature(fam, theta) - dense) <= 1e-12 * max(1.0, abs(dense))


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
    fam = make_family(n, 2.0, u_raw, np.eye(n) * 0.0 + np.zeros((n, n)), [(1.0, c)], validate=False)
    rep = strict_convexity_witness(fam, 0, -1.0, 0.0)
    assert not rep.strict
    assert rep.witness < 1e-12


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
    assert math.isclose(q_class_functional(k1, k2, split, q), expected, rel_tol=1e-12)
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
