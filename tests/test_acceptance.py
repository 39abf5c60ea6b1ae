"""Acceptance gate: thirteen timed end-to-end checks of the core claims.

Each test prints one ``[criterion NN] PASS`` line (visible with ``-s`` or on
failure) and enforces both the stated tolerance and a wall-clock budget.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
from scipy.optimize import minimize

from goldenschur.floatlaw import quadratic_law_fit
from goldenschur.folded import moments, sums_closed
from goldenschur.golden import golden_power_table, lambda_n
from goldenschur.lockin import (
    QuadLawCoeffs,
    bracket_residual,
    f_red_prime_q,
    kappa_quadratic,
    stationarity_check,
    synthesize_consistent_ab,
)
from goldenschur.oracle import (
    block_hessian,
    circulant,
    matrix_convexity_check,
    schur_complement,
    sums_at_qstar,
    sums_bruteforce,
    variational_check,
    variational_expression,
)
from goldenschur.qfield import Q5, QSTAR, decimal_str
from goldenschur.reference import KAPPA_TABLE, REPORTED_A, REPORTED_B, REPORTED_M_RHO_SQ
from goldenschur.schur import (
    ExpTerm,
    HessianFamily,
    build_split,
    kappa_convexity_scan,
    make_family,
    schur_curvature,
)


def np_random_family(n, rng):
    """A random validated family drawn from a numpy Generator: the rows of
    the PSD circulants A·Aᵀ/n, A the circulant of a standard normal row,
    with a ridge of 0.5 on C₀ and two terms of exponent ±uniform(0.3, 2)."""
    def psd_row(n):
        a = np.array(circulant(rng.standard_normal(n)))
        c = a @ a.T / n
        return (c + c.T) / 2

    u_raw = rng.standard_normal(n)
    while np.linalg.norm(u_raw - u_raw.mean()) < 1e-6:
        u_raw = rng.standard_normal(n)
    c0 = (psd_row(n) + 0.5 * np.eye(n))[0]
    terms = []
    for _ in range(2):
        s = float(rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0]))
        terms.append((s, psd_row(n)[0]))
    return make_family(n, 2.0, u_raw, c0, terms)


class budget:
    """Context manager asserting the body stays under a wall-clock budget."""

    def __init__(self, number, label, seconds):
        self.number, self.label, self.seconds = number, label, seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"[criterion {self.number:>2}] PASS ({elapsed:.2f}s < {self.seconds}s) {self.label}")
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds}s budget: {elapsed:.2f}s"
            )
        else:
            print(f"[criterion {self.number:>2}] FAIL ({elapsed:.2f}s) {self.label}")
        return False


def test_criterion_01_exact_power_sums_at_golden_point():
    with budget(1, "exact S0..S3 at q⋆, N = 12, both bases", 1.0):
        expected = {
            "s0": (Q5(83880, -37512), (-28656, 75024)),
            "s1": (Q5(954726, -426966), (-326172, 853932)),
            "s2": (Q5(10950528, -4897224), (-3741144, 9794448)),
            "s3": (Q5(126360432, -56510100), (-43169868, 113020200)),
        }
        for sums in (sums_at_qstar(12), sums_closed(12, QSTAR)):
            for name, (value, (c0, c1)) in expected.items():
                got = getattr(sums, name)
                assert got == value, f"{name}: {got} != {value}"
                g = got.to_golden()
                assert (g.c0, g.c1) == (c0, c1), f"{name} golden coords"


def test_criterion_02_exact_moments_and_derivatives():
    with budget(2, "exact I1, I2, I3, I1', I2' at q⋆, N = 12", 1.0):
        m = moments(12, QSTAR)
        assert m.i1 == Q5(Fraction(13, 2), Fraction(-131, 60))
        assert m.i2 == Q5(Fraction(805, 12), Fraction(-1703, 60))
        assert m.i3 == Q5(Fraction(6071, 8), Fraction(-13373, 40))
        assert m.var == Fraction(719, 720)
        assert m.i2_prime == Q5(Fraction(9347, 720), Fraction(-485, 144))


def test_criterion_03_lambda_12():
    with budget(3, "Λ(12) exact and to ten decimal digits", 1.0):
        lam = lambda_n(12)
        assert lam == Q5(13, Fraction(-2425, 719))
        assert decimal_str(lam, 10) == "5.4583242762"
        assert abs(float(lam) - 5.4583242762) <= 1e-10


def test_criterion_04_reduction_table():
    with budget(4, "reduction rows m = 0..12 and q⋆^m identity to m = 200", 1.0):
        rows = [(p.m, p.a, p.b) for p in golden_power_table(12)]
        assert rows == [
            (0, 0, 1), (1, 1, 0), (2, 3, -1), (3, 8, -3), (4, 21, -8),
            (5, 55, -21), (6, 144, -55), (7, 377, -144), (8, 987, -377),
            (9, 2584, -987), (10, 6765, -2584), (11, 17711, -6765), (12, 46368, -17711),
        ]
        table = golden_power_table(200)
        for p in table:
            assert QSTAR ** p.m == p.a * QSTAR + p.b


def test_criterion_05_closed_forms_vs_brute_force():
    with budget(5, "closed forms equal brute force, N = 1..24 × 50 random q", 10.0):
        rng = random.Random(1203)
        for n in range(1, 25):
            for _ in range(50):
                den = rng.randint(2, 1000)
                q = Fraction(rng.randint(1, den - 1), den)
                assert sums_closed(n, q).as_tuple() == sums_bruteforce(n, q).as_tuple()


def test_criterion_06_exact_rational_moments():
    with budget(6, "exact rational I1 and Var at q = 1/2 and 1/3, N = 12", 1.0):
        m = moments(12, Fraction(1, 2))
        assert m.i1 == Fraction(2726, 1365)
        assert m.var == Fraction(3660914, 1863225)
        m = moments(12, Fraction(1, 3))
        assert m.i1 == Fraction(199287, 132860)
        assert m.var == Fraction(13234051731, 17651779600)


def test_criterion_07_variational_characterization():
    with budget(7, "Schur complement as variational minimum, 20 random families", 30.0):
        rng = np.random.default_rng(701)
        couplings = random.Random(701)
        for _ in range(20):
            n = int(rng.integers(3, 9))  # N ≤ 8
            fam = np_random_family(n, rng)
            theta = float(rng.uniform(-1.5, 0.5))
            blocks = block_hessian(fam, theta)
            s = schur_complement(*blocks)

            # value at the analytic minimizer
            y_star = -np.array(blocks.h_ob) / blocks.h_oo[0][0]
            gap = np.abs(np.array(variational_expression(blocks, y_star)) - s).max()
            assert gap <= 1e-10

            # 100 random couplings each dominate in the Loewner order: every
            # LDLᵀ pivot of expression(Y) − S + 1e-10·I is positive
            rep = variational_check(fam, theta, trials=100, rng=couplings)
            assert rep.minimizer_gap <= 1e-10
            assert rep.min_pivot > 0

            # independent brute-force minimization of the trace objective
            dim = len(blocks.h_bb)

            def objective(flat, blocks=blocks, dim=dim):
                return float(np.trace(variational_expression(blocks, flat.reshape(1, dim))))

            best = math.inf
            for _ in range(2):
                res = minimize(objective, rng.standard_normal(dim), method="BFGS",
                               options={"gtol": 1e-12, "maxiter": 500})
                best = min(best, float(res.fun))
            assert abs(best / fam.split.dim_band - schur_curvature(fam, theta)) < 1e-6


def test_criterion_08_matrix_convexity():
    with budget(8, "Loewner-convex Hessian paths, 50 families × 5 pairs", 30.0):
        rng = np.random.default_rng(808)
        for _ in range(50):
            fam = np_random_family(int(rng.integers(3, 9)), rng)
            for _ in range(5):
                t1, t2 = sorted(rng.uniform(-2.0, 0.5, size=2))
                rep = matrix_convexity_check(fam, float(t1), float(t2), t_grid=11)
                assert len(rep.min_eigs) == 11
                assert min(rep.min_eigs) >= -1e-10

        # negative control: a corrupted family must be flagged.  H(θ) = I − e^θ·I
        # has an indefinite term, so it is built from its rows, unvalidated.
        n = 5
        u_raw = [math.cos(2 * math.pi * k / n) for k in range(n)]
        eye_row = np.eye(n)[0]
        bad = HessianFamily(
            build_split(n, 2.0, u_raw), ExpTerm(0.0, eye_row), (ExpTerm(1.0, -eye_row),)
        )
        rep = matrix_convexity_check(bad, -1.5, 0.2, t_grid=11)
        assert min(rep.min_eigs) < -1e-6, "corrupted family was not detected"


def test_criterion_09_kappa_convexity_scans():
    with budget(9, "κ second differences ≥ −1e-8 (relative), 50 × 101-point grids", 60.0):
        rng = np.random.default_rng(909)
        for _ in range(50):
            fam = np_random_family(int(rng.integers(3, 9)), rng)
            scan = kappa_convexity_scan(fam, -2.5, -0.05, points=101)
            assert scan.convex_ok, f"violations at indices {scan.violations}"
            assert len(scan.kappas) == 101
        for label, kappa, first, second in KAPPA_TABLE:
            print(
                f"[criterion  9] INFO reported curve sample q={label}: κ={kappa}"
                f" Δ={first} Δ²={second} (reference values; generating family not published)"
            )


def test_criterion_10_bracket_identity_exact():
    with budget(10, "stationarity bracket identity, 100 random exact coefficient sets", 10.0):
        rng = random.Random(1010)
        m = moments(12, QSTAR)
        i1p = m.var
        lam = lambda_n(12)
        for _ in range(100):
            a = Fraction(rng.randint(-60, 60), rng.randint(1, 30))
            b = Fraction(rng.randint(-60, 60), rng.randint(1, 30))
            m2 = Fraction(rng.randint(1, 20), rng.randint(1, 5))
            c = QuadLawCoeffs(a, b, 12, m2)
            bracket = b * lam + 2 * a - 2 * b - 8 / m2
            assert f_red_prime_q(c, QSTAR) == bracket * m.i1 * i1p / 12


def test_criterion_11_constructive_lock_in():
    with budget(11, "synthesized coefficients lock the golden point, 50 sets", 30.0):
        qstar = float(QSTAR)
        for k in range(1, 51):
            b = Fraction(-k, 10)
            coeffs = synthesize_consistent_ab(b, 12)
            assert bracket_residual(coeffs) == 0
            assert f_red_prime_q(coeffs, QSTAR) == 0
            rep = stationarity_check(coeffs)
            assert rep.stationary and rep.f_prime_at_star == 0

            assert rep.sign_changes == 1, f"B={b}: {rep.sign_changes} crossings"
            (lo, hi), = rep.sign_change_intervals
            q_lo, q_hi = float(lo), float(hi)
            assert q_hi - q_lo <= 1e-3 + 1e-9, "interval wider than 1e-3"
            assert q_lo - 1e-9 <= qstar <= q_hi + 1e-9, "interval misses the golden point"


def test_criterion_12_two_point_identification():
    with budget(12, "exact coefficient recovery from two points + held-out zero", 1.0):
        a0, b0 = Fraction(7, 3), Fraction(-5, 4)
        coeffs = QuadLawCoeffs(a0, b0, 12)
        qs = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3))
        pts = [(q, kappa_quadratic(coeffs, q)) for q in qs]
        fit = quadratic_law_fit(pts, 12)
        assert fit.a == a0 and fit.b == b0
        assert fit.residuals == (0, 0, 0) or all(r == 0 for r in fit.residuals)
        assert fit.max_abs_residual == 0


def test_criterion_13_reported_constants_residual():
    with budget(13, "reported reference constants leave a nonzero residual", 1.0):
        reported = QuadLawCoeffs(REPORTED_A, REPORTED_B, 12, REPORTED_M_RHO_SQ)
        residual = bracket_residual(reported)
        # certified exact evaluation of the same decimal inputs
        exact = bracket_residual(
            QuadLawCoeffs(
                Fraction(str(REPORTED_A)), Fraction(str(REPORTED_B)), 12, Fraction(2)
            )
        )
        assert residual != 0
        assert decimal_str(exact, 7) == "-6.2514498"
        assert math.isclose(residual, float(exact), rel_tol=1e-9)
        print(
            f"[criterion 13] INFO reported constants A={REPORTED_A}, B={REPORTED_B}, "
            f"m_ρ²=2 give bracket residual {decimal_str(residual, 10)} "
            "(reported, not asserted to vanish)"
        )
