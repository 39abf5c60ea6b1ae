"""Verification suites: exact identity reproduction and property checks.

Each suite returns a :class:`~.report.ReportDocument`.  Suite names follow
the reference-table layout they reproduce (``appendix-b`` … ``appendix-h``)
plus the two property suites ``schur-properties`` and ``lockin``; ``all``
runs everything.  Records for reference-only numbers whose generating
construction is out of scope are informational and never fail.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import reference
from .folded import moments, sums_bruteforce, sums_closed, theta_derivatives
from .golden import fibonacci, golden_power_table, lambda_n, sums_at_qstar
from .lockin import (
    QuadLawCoeffs,
    bracket_residual,
    f_red_prime,
    f_red_prime_direct_q,
    f_red_prime_q,
    kappa_quadratic,
    quadratic_law_fit,
    stationarity_check,
    synthesize_consistent_ab,
    uniqueness_scan,
)
from .qfield import QSTAR, GoldenBasis, Q5, decimal_str
from .report import SUITES, ReportDocument
from .schur import (
    FamilyValidationError,
    block_hessian,
    build_split,
    kappa_convexity_scan,
    make_family,
    matrix_convexity_check,
    q_class_functional_from_weights,
    random_family,
    random_symmetric_psd_circulant,
    schur_complement,
    schur_curvature,
    strict_convexity_witness,
    variational_check,
)

__all__ = ["SUITES", "run_suite"]

# Tabulated golden-point values for N = 12, √5 basis (a, b) meaning a + b·√5.
_SUMS_SQRT5 = {
    "S0": Q5(83880, -37512),
    "S1": Q5(954726, -426966),
    "S2": Q5(10950528, -4897224),
    "S3": Q5(126360432, -56510100),
}
_SUMS_GOLDEN = {
    "S0": GoldenBasis(-28656, 75024),
    "S1": GoldenBasis(-326172, 853932),
    "S2": GoldenBasis(-3741144, 9794448),
    "S3": GoldenBasis(-43169868, 113020200),
}
_MOMENTS_SQRT5 = {
    "I1": Q5(Fraction(13, 2), Fraction(-131, 60)),
    "I2": Q5(Fraction(805, 12), Fraction(-1703, 60)),
    "I3": Q5(Fraction(6071, 8), Fraction(-13373, 40)),
}
_MOMENTS_GOLDEN = {
    "I1": GoldenBasis(Fraction(-1, 20), Fraction(131, 30)),
    "I2": GoldenBasis(Fraction(-271, 15), Fraction(1703, 30)),
    "I3": GoldenBasis(Fraction(-2441, 10), Fraction(13373, 20)),
}
_I1P = Fraction(719, 720)
_I2P = Q5(Fraction(9347, 720), Fraction(-485, 144))
_I2P_GOLDEN = GoldenBasis(Fraction(259, 90), Fraction(485, 72))
_LAMBDA12 = Q5(13, Fraction(-2425, 719))
_LAMBDA12_GOLDEN = GoldenBasis(Fraction(2072, 719), Fraction(4850, 719))
_REDUCTION_TABLE = (
    (0, 0, 1),
    (1, 1, 0),
    (2, 3, -1),
    (3, 8, -3),
    (4, 21, -8),
    (5, 55, -21),
    (6, 144, -55),
    (7, 377, -144),
    (8, 987, -377),
    (9, 2584, -987),
    (10, 6765, -2584),
    (11, 17711, -6765),
    (12, 46368, -17711),
)


def _suite_appendix_b(seed: int) -> ReportDocument:
    doc = ReportDocument("appendix-b", seed)
    rng = np.random.default_rng(seed)

    mismatches = []
    for n in range(1, 25):
        for _ in range(8):
            q = Fraction(int(rng.integers(1, 997)), 997)
            if sums_closed(n, q) != sums_bruteforce(n, q):
                mismatches.append((n, q))
    doc.add(
        "b.closed-vs-brute",
        "closed-form power sums equal direct summation exactly (N = 1..24, random rational q)",
        not mismatches,
        "0 mismatches",
        f"{len(mismatches)} mismatches",
        "derived",
    )

    sums = sums_at_qstar(12)
    got = dict(zip(("S0", "S1", "S2", "S3"), sums.as_tuple()))
    ok = all(got[k] == v for k, v in _SUMS_SQRT5.items())
    doc.add(
        "b.sums-qstar",
        "tabulated golden-point power sums S0..S3 at N = 12 (√5 basis)",
        ok,
        "; ".join(f"{k} = {v}" for k, v in _SUMS_SQRT5.items()),
        "; ".join(f"{k} = {got[k]}" for k in _SUMS_SQRT5),
        "reference",
    )

    mom = moments(12, QSTAR)
    got_m = {"I1": mom.i1, "I2": mom.i2, "I3": mom.i3}
    ok = all(got_m[k] == v for k, v in _MOMENTS_SQRT5.items())
    doc.add(
        "b.moments-qstar",
        "tabulated golden-point moments I1..I3 at N = 12 (√5 basis)",
        ok,
        "; ".join(f"{k} = {v}" for k, v in _MOMENTS_SQRT5.items()),
        "; ".join(f"{k} = {got_m[k]}" for k in _MOMENTS_SQRT5),
        "reference",
    )

    i1p, i2p = theta_derivatives(mom)
    ok = i1p == Q5(_I1P) and i2p == _I2P
    doc.add(
        "b.derivatives-qstar",
        "tabulated θ-derivatives I1' = 719/720 and I2' at the golden point (N = 12)",
        ok,
        f"I1' = {_I1P}; I2' = {_I2P}",
        f"I1' = {i1p}; I2' = {i2p}",
        "reference",
    )

    decimals = (
        ("q⋆", decimal_str(QSTAR, 11), "0.38196601125"),
        ("I1(q⋆)", decimal_str(mom.i1, 15), "1.617918249125459"),
        ("I1'(q⋆)", decimal_str(_I1P, 9), "0.998611111"),
    )
    ok = all(got == want for _, got, want in decimals)
    doc.add(
        "b.decimals",
        "certified decimal expansions match the tabulated digits",
        ok,
        "; ".join(f"{name} = {want}" for name, _, want in decimals),
        "; ".join(f"{name} = {got}" for name, got, _ in decimals),
        "reference",
    )
    return doc


def _suite_appendix_c(seed: int) -> ReportDocument:
    doc = ReportDocument("appendix-c", seed)

    sums = sums_at_qstar(12)
    got = {k: v.to_golden() for k, v in zip(("S0", "S1", "S2", "S3"), sums.as_tuple())}
    ok = all(got[k] == v for k, v in _SUMS_GOLDEN.items())
    doc.add(
        "c.sums-golden",
        "tabulated golden-basis coordinates of S0..S3 at N = 12",
        ok,
        "; ".join(f"{k} = {v}" for k, v in _SUMS_GOLDEN.items()),
        "; ".join(f"{k} = {got[k]}" for k in _SUMS_GOLDEN),
        "reference",
    )

    mom = moments(12, QSTAR)
    got_m = {
        "I1": mom.i1.to_golden(),
        "I2": mom.i2.to_golden(),
        "I3": mom.i3.to_golden(),
    }
    _, i2p = theta_derivatives(mom)
    ok = (
        all(got_m[k] == v for k, v in _MOMENTS_GOLDEN.items())
        and i2p.to_golden() == _I2P_GOLDEN
    )
    doc.add(
        "c.moments-golden",
        "tabulated golden-basis coordinates of I1..I3 and I2' at N = 12",
        ok,
        "; ".join(f"{k} = {v}" for k, v in _MOMENTS_GOLDEN.items()) + f"; I2' = {_I2P_GOLDEN}",
        "; ".join(f"{k} = {got_m[k]}" for k in _MOMENTS_GOLDEN) + f"; I2' = {i2p.to_golden()}",
        "reference",
    )

    lam = lambda_n(12)
    ok = (
        lam.value == _LAMBDA12
        and lam.golden == _LAMBDA12_GOLDEN
        and lam.decimal(10) == "5.4583242762"
    )
    doc.add(
        "c.lambda-12",
        "Λ(12) in both bases with its tabulated decimal expansion",
        ok,
        f"{_LAMBDA12} = {_LAMBDA12_GOLDEN} ≈ 5.4583242762",
        f"{lam.value} = {lam.golden} ≈ {lam.decimal(10)}",
        "reference",
    )

    round_trips = all(
        v.to_golden().to_q5() == v
        for v in list(_SUMS_SQRT5.values()) + list(_MOMENTS_SQRT5.values()) + [_I2P, _LAMBDA12]
    )
    doc.add(
        "c.basis-round-trip",
        "√5 ↔ golden basis conversion is the identity on the tabulated values",
        round_trips,
        "all round trips exact",
        "all round trips exact" if round_trips else "round trip broke",
        "direct",
    )
    return doc


def _suite_appendix_d(seed: int) -> ReportDocument:
    doc = ReportDocument("appendix-d", seed)

    rows = golden_power_table(200)
    got = tuple((r.m, r.a, r.b) for r in rows[:13])
    doc.add(
        "d.reduction-table",
        "tabulated reduction rows q⋆^m = a_m·q⋆ + b_m for m = 0..12",
        got == _REDUCTION_TABLE,
        str(_REDUCTION_TABLE),
        str(got),
        "reference",
    )

    # one pass over the table; the field powers come from repeated Q5
    # multiplication, independent of the integer recurrence
    fib_ok = power_ok = True
    power = Q5(1)
    for r in rows:
        fib_ok = fib_ok and r.a == fibonacci(2 * r.m) and r.b == -fibonacci(2 * r.m - 2)
        power_ok = power_ok and power == r.as_q5()
        power = power * QSTAR
    doc.add(
        "d.fibonacci-closed-form",
        "a_m = F(2m) and b_m = −F(2m−2) for m ≤ 200 with F(−2) = −1, F(−1) = 1",
        fib_ok,
        "closed form matches recurrence for all m ≤ 200",
        "ok" if fib_ok else "mismatch",
        "derived",
    )

    doc.add(
        "d.power-identity",
        "field powers q⋆^m equal their reduced form a_m·q⋆ + b_m exactly (m ≤ 200)",
        power_ok,
        "exact equality for all m ≤ 200",
        "ok" if power_ok else "mismatch",
        "derived",
    )

    conv_ok = fibonacci(-2) == -1 and fibonacci(-1) == 1 and fibonacci(0) == 0
    doc.add(
        "d.fibonacci-convention",
        "index convention F(−2) = −1, F(−1) = 1, F(0) = 0",
        conv_ok,
        "(-1, 1, 0)",
        f"({fibonacci(-2)}, {fibonacci(-1)}, {fibonacci(0)})",
        "direct",
    )
    return doc


def _suite_appendix_h(seed: int) -> ReportDocument:
    doc = ReportDocument("appendix-h", seed)

    half = moments(12, Fraction(1, 2))
    ok = half.i1 == Fraction(2726, 1365) and half.var == Fraction(3660914, 1863225)
    doc.add(
        "h.moments-half",
        "tabulated rational moments at N = 12, q = 1/2",
        ok,
        "I1 = 2726/1365; Var = 3660914/1863225",
        f"I1 = {half.i1}; Var = {half.var}",
        "reference",
    )

    third = moments(12, Fraction(1, 3))
    ok = third.i1 == Fraction(199287, 132860) and third.var == Fraction(
        13234051731, 17651779600
    )
    doc.add(
        "h.moments-third",
        "tabulated rational moments at N = 12, q = 1/3",
        ok,
        "I1 = 199287/132860; Var = 13234051731/17651779600",
        f"I1 = {third.i1}; Var = {third.var}",
        "reference",
    )

    a0, b0 = Fraction(7, 3), Fraction(-5, 4)
    coeffs = QuadLawCoeffs(a0, b0, 12)
    pts = [(q, kappa_quadratic(coeffs, q)) for q in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3))]
    fit = quadratic_law_fit(pts, 12)
    ok = fit.a == a0 and fit.b == b0 and all(r == 0 for r in fit.residuals)
    doc.add(
        "h.two-point-round-trip",
        "two-point identification recovers rational (A, B) exactly with zero held-out residual",
        ok,
        f"A = {a0}, B = {b0}, residuals (0,)",
        f"A = {fit.a}, B = {fit.b}, residuals {fit.residuals}",
        "derived",
    )

    syn = synthesize_consistent_ab(Fraction(-1), 12)
    pts = [(q, kappa_quadratic(syn, q)) for q in (Fraction(1, 2), Fraction(1, 3))]
    fit = quadratic_law_fit(pts, 12)
    refit = QuadLawCoeffs(fit.a, fit.b, 12, syn.m_rho_sq)
    res = bracket_residual(refit)
    ok = fit.a == syn.a and fit.b == syn.b and res == 0
    doc.add(
        "h.bracket-consistency",
        "synthesized-consistent coefficients survive the two-point round trip with zero bracket",
        ok,
        "recovered (A, B) identical, bracket residual 0",
        f"A gap exact: {fit.a == syn.a}; B gap exact: {fit.b == syn.b}; residual = {res}",
        "derived",
    )
    return doc


def _suite_schur_properties(seed: int) -> ReportDocument:
    doc = ReportDocument("schur-properties", seed)
    rng = np.random.default_rng(seed)

    worst_split = 0.0
    for _ in range(40):
        n = int(rng.integers(3, 13))
        split = build_split(n, 2.0, rng.standard_normal(n))
        pb = split.p_band
        worst_split = max(
            worst_split,
            float(np.max(np.abs(pb - pb.T))),
            float(np.max(np.abs(pb @ pb - pb))),
            float(np.linalg.norm(pb @ np.ones(n))),
            float(np.linalg.norm(pb @ split.u)),
            abs(float(np.trace(pb)) - (n - 2)),
        )
    doc.add(
        "s.split-projector",
        "P_B is a symmetric projector of rank N−2 killing the uniform and collective directions",
        worst_split <= 1e-10,
        "worst defect <= 1e-10",
        f"worst defect = {worst_split:.3e}",
        "derived",
    )

    worst_gap, worst_eig, worst_route = 0.0, math.inf, 0.0
    for _ in range(6):
        fam = random_family(int(rng.integers(4, 9)), rng)
        theta = float(rng.uniform(-1.5, 0.5))
        rep = variational_check(fam, theta, trials=60, rng=rng)
        worst_gap = max(worst_gap, rep.minimizer_gap)
        worst_eig = min(worst_eig, rep.min_loewner_eig)
        # the dense blocks are the oracle for the spectral κ route
        blocks = block_hessian(fam, theta)
        dense = float(np.trace(schur_complement(blocks.h_bb, blocks.h_bo, blocks.h_oo)))
        dense /= fam.split.dim_band
        worst_route = max(worst_route, abs(schur_curvature(fam, theta) - dense) / abs(dense))
    doc.add(
        "s.variational",
        "optimal coupling attains the Schur complement; random couplings dominate it (Loewner)",
        worst_gap <= 1e-10 and worst_eig >= -1e-10 and worst_route <= 1e-12,
        "gap <= 1e-10, min eigenvalue >= -1e-10 and rank-one vs dense κ <= 1e-12 relative",
        f"gap = {worst_gap:.3e}, min eigenvalue = {worst_eig:.3e}, "
        f"rank-one vs dense κ = {worst_route:.3e} relative",
        "derived",
    )

    worst = math.inf
    for _ in range(10):
        fam = random_family(int(rng.integers(4, 9)), rng)
        for _ in range(2):
            t1, t2 = sorted(rng.uniform(-2.0, 0.5, size=2))
            rep = matrix_convexity_check(fam, float(t1), float(t2), 11)
            worst = min(worst, rep.min_eig)
    doc.add(
        "s.matrix-convexity",
        "θ ↦ H(θ) is matrix convex: interpolation gaps are PSD up to 1e-10",
        worst >= -1e-10,
        "min gap eigenvalue >= -1e-10",
        f"min gap eigenvalue = {worst:.3e}",
        "derived",
    )

    bad_scans = 0
    for _ in range(6):
        fam = random_family(int(rng.integers(4, 9)), rng)
        scan = kappa_convexity_scan(fam, math.log(0.05), math.log(0.95), 101)
        bad_scans += 0 if scan.convex_ok else 1
    doc.add(
        "s.kappa-convexity",
        "κ_Schur second differences are nonnegative along θ-grids of random families",
        bad_scans == 0,
        "0 scans with violations",
        f"{bad_scans} scans with violations",
        "derived",
    )

    n = 6
    ident_fam = make_family(n, 2.0, [1.0] + [0.0] * (n - 1), np.zeros((n, n)), [(1.0, np.eye(n))])
    thetas = np.linspace(math.log(0.05), math.log(0.95), 25)
    dev = max(abs(schur_curvature(ident_fam, float(t)) - math.exp(float(t))) for t in thetas)
    doc.add(
        "s.exp-identity-family",
        "the e^θ·I family has κ_Schur(θ) = e^θ",
        dev <= 1e-12,
        "max |κ − e^θ| <= 1e-12",
        f"max |κ − e^θ| = {dev:.3e}",
        "derived",
    )

    const_fam = make_family(
        n, 2.0, [1.0] + [0.0] * (n - 1),
        random_symmetric_psd_circulant(n, rng) + 0.5 * np.eye(n), [],
    )
    scan = kappa_convexity_scan(const_fam, -2.0, -0.1, 41)
    flat = max(abs(d) for d in scan.second_differences)
    doc.add(
        "s.constant-family",
        "a constant family gives a flat κ column with zero second differences",
        flat <= 1e-12,
        "max |Δ²κ| <= 1e-12",
        f"max |Δ²κ| = {flat:.3e}",
        "derived",
    )

    wit = strict_convexity_witness(ident_fam, 0, math.log(0.1), math.log(0.9), 51)
    ok_wit = wit.strict and abs(wit.witness - 1.0) <= 1e-12
    n_alt = 6
    u_alt = [(-1.0) ** i for i in range(n_alt)]
    c_flat = np.full((n_alt, n_alt), 1.0 / n_alt) + np.outer(u_alt, u_alt) / n_alt
    fam_flat = make_family(
        n_alt, 2.0, u_alt, 0.5 * np.eye(n_alt), [(1.0, c_flat)]
    )
    wit0 = strict_convexity_witness(fam_flat, 0, math.log(0.1), math.log(0.9), 51)
    doc.add(
        "s.strict-witness",
        "band-projected term norm witnesses strictness; terms supported on span{1,u} give zero",
        ok_wit and wit0.witness <= 1e-10 and not wit0.strict,
        "identity-term witness 1 (strict); span{1,u} term witness 0 (not strict)",
        f"identity witness = {wit.witness:.6f} strict={wit.strict}; "
        f"collapsed witness = {wit0.witness:.3e} strict={wit0.strict}",
        "derived",
    )

    n = 5
    indef = np.eye(n) - 0.75 * circulant_ring(n)
    try:
        make_family(n, 2.0, [1, 0, 0, 0, -1], np.zeros((n, n)), [(1.0, indef)])
        psd_control = "accepted (should have been rejected)"
        ok = False
    except FamilyValidationError as exc:
        ok = any("not PSD" in v for v in exc.violations)
        psd_control = f"rejected: {exc.violations}"
    bad_fam = make_family(n, 2.0, [1, 0, 0, 0, -1], np.zeros((n, n)), [(1.0, indef)], validate=False)
    rep = matrix_convexity_check(bad_fam, -2.0, -0.2, 11)
    doc.add(
        "s.negative-control-psd",
        "an indefinite term is rejected at validation and breaks the convexity gap when forced in",
        ok and rep.min_eig < -1e-6,
        "validation error naming the PSD violation; negative gap eigenvalue when unvalidated",
        f"{psd_control}; forced-in min gap eigenvalue = {rep.min_eig:.3e}",
        "direct",
    )

    non_circ = np.zeros((n, n))
    non_circ[0, 0] = 1.0
    try:
        make_family(n, 2.0, [1, 0, 0, 0, -1], np.zeros((n, n)), [(1.0, non_circ)])
        ok, msg = False, "accepted (should have been rejected)"
    except FamilyValidationError as exc:
        ok = any("commutator norm" in v for v in exc.violations)
        msg = "; ".join(exc.violations)
    doc.add(
        "s.negative-control-equivariance",
        "a non-circulant term is rejected with the offending commutator norms reported",
        ok,
        "validation error quoting the shift/reversal commutator norms",
        msg,
        "direct",
    )

    split = build_split(8, 2.0, np.arange(8.0))
    k1 = random_symmetric_psd_circulant(8, rng)
    k2 = random_symmetric_psd_circulant(8, rng)
    uniform = q_class_functional_from_weights(k1, k2, split, [1.0 / 8] * 8)
    direct = 8 * float(np.trace(split.p_band @ k1 @ k2 @ split.p_band)) / split.dim_band
    doc.add(
        "s.q-class-uniform",
        "uniform weights reduce the weighted class functional to N·Tr(P_B K1 K2 P_B)/dim B",
        abs(uniform - direct) <= 1e-10,
        "difference <= 1e-10",
        f"difference = {abs(uniform - direct):.3e}",
        "derived",
    )

    for label, kappa, kappa_p, resid in reference.KAPPA_TABLE:
        doc.add(
            f"s.reported-kappa[{label}]",
            "reported curvature sample (no generating family is in scope; informational)",
            None,
            "—",
            f"κ = {kappa}, κ' = {kappa_p}, minimal-polynomial residual = {resid}",
            "reference",
        )
    return doc


def circulant_ring(n: int) -> np.ndarray:
    """Adjacency circulant of the n-cycle (helper for negative controls)."""
    c = np.zeros((n, n))
    for i in range(n):
        c[i, (i + 1) % n] = c[i, (i - 1) % n] = 1.0
    return c


def _suite_lockin(seed: int) -> ReportDocument:
    doc = ReportDocument("lockin", seed)
    rng = np.random.default_rng(seed)

    lam = lambda_n(12)
    mom = moments(12, QSTAR)
    i1p, _ = theta_derivatives(mom)
    ok = True
    for _ in range(30):
        a = Fraction(int(rng.integers(-60, 60)), int(rng.integers(1, 24)))
        b = Fraction(int(rng.integers(-60, 60)), int(rng.integers(1, 24)))
        m2 = Fraction(int(rng.integers(1, 12)), int(rng.integers(1, 6)))
        coeffs = QuadLawCoeffs(a, b, 12, m2)
        lhs = f_red_prime_q(coeffs, QSTAR)
        rhs = bracket_residual(coeffs, lam) * mom.i1 * i1p / 12
        if lhs != rhs:
            ok = False
            break
    doc.add(
        "l.bracket-identity",
        "F'(θ⋆) factors exactly as (1/N)·(B·Λ + 2A − 2B − 8/m²)·I1·I1' in the field",
        ok,
        "exact equality for random exact coefficient draws",
        "ok" if ok else "mismatch",
        "derived",
    )

    ok = True
    detail = ""
    for btop in (-1, -2, -3):
        syn = synthesize_consistent_ab(Fraction(btop, 2), 12)
        rep = stationarity_check(syn)
        res = bracket_residual(syn)
        if not (rep.stationary and res == 0):
            ok = False
            detail = f"B = {btop}/2: f' = {rep.f_prime_at_star}, residual = {res}"
            break
    doc.add(
        "l.synthesized-stationarity",
        "synthesized-consistent (A, B) make the golden point exactly stationary",
        ok,
        "F'(θ⋆) = 0 and bracket residual = 0, exactly",
        detail or "exactly stationary for all draws",
        "derived",
    )

    syn = synthesize_consistent_ab(Fraction(-1), 12)
    grid = [math.log(0.05) + i * (math.log(0.95) - math.log(0.05)) / 900 for i in range(901)]
    scan = uniqueness_scan(syn, grid)
    qstar_f = float(QSTAR)
    bracketed = any(
        math.exp(a) <= qstar_f <= math.exp(b) for a, b in scan.sign_change_intervals
    )
    doc.add(
        "l.uniqueness",
        "the stationarity scan finds exactly one sign change, bracketing the golden point",
        scan.sign_changes == 1 and bracketed,
        "1 sign change whose q-interval contains 0.38196601125",
        f"{scan.sign_changes} sign change(s), intervals "
        + str([(f"{math.exp(a):.6f}", f"{math.exp(b):.6f}") for a, b in scan.sign_change_intervals]),
        "derived",
    )

    zero = QuadLawCoeffs(0, 0, 12)
    vals = [f_red_prime(zero, t) for t in grid[:: 90]]
    scan0 = uniqueness_scan(zero, grid)
    doc.add(
        "l.zero-coefficients",
        "with A = B = 0 the derivative is strictly negative (no stationary point)",
        all(v < 0 for v in vals) and scan0.sign_changes == 0,
        "negative on the whole grid, 0 sign changes",
        f"max sampled value = {max(vals):.3e}, {scan0.sign_changes} sign changes",
        "direct",
    )

    a = Fraction(3, 5)
    b = Fraction(-7, 4)
    coeffs = QuadLawCoeffs(a, b, 12)
    gap = f_red_prime_q(coeffs, QSTAR) - f_red_prime_direct_q(coeffs, QSTAR)
    _, i2p = theta_derivatives(mom)
    expected_gap = b * i2p * (mom.i1 - 1) / 12
    doc.add(
        "l.derivative-gap",
        "bracket-form and chain-rule derivatives differ by exactly B·I2'·(I1−1)/N",
        gap == expected_gap,
        str(expected_gap),
        str(gap),
        "derived",
    )

    rep1 = stationarity_check(QuadLawCoeffs(1, 1, 1))
    doc.add(
        "l.degenerate-n1",
        "N = 1 is flagged degenerate with identically zero derivative",
        rep1.degenerate and rep1.f_prime_at_star == 0,
        "degenerate, F' = 0",
        f"degenerate={rep1.degenerate}, F' = {rep1.f_prime_at_star}",
        "direct",
    )

    published = QuadLawCoeffs(
        reference.REPORTED_A, reference.REPORTED_B, reference.REPORTED_N,
        reference.REPORTED_M_RHO_SQ,
    )
    res = bracket_residual(published)
    doc.add(
        "l.reported-constants",
        "reported fit constants leave a nonzero bracket residual (diagnostic, informational)",
        None,
        "residual ≈ -6.2514498 (reported, not asserted)",
        f"B·Λ + 2A − 2B − 8/m² = {res:.7f}",
        "reference",
    )
    return doc


_SUITE_FUNCS = {
    "appendix-b": _suite_appendix_b,
    "appendix-c": _suite_appendix_c,
    "appendix-d": _suite_appendix_d,
    "appendix-h": _suite_appendix_h,
    "schur-properties": _suite_schur_properties,
    "lockin": _suite_lockin,
}


def run_suite(name: str, seed: int = 0) -> ReportDocument:
    """Run one named suite (or ``all``) and return its report."""
    if name == "all":
        doc = ReportDocument("all", seed)
        for key in SUITES[:-1]:
            doc.extend(_SUITE_FUNCS[key](seed))
        return doc
    if name not in _SUITE_FUNCS:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    return _SUITE_FUNCS[name](seed)
