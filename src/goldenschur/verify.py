"""Verification suites: exact identity reproduction and property checks.

Each suite returns a :class:`~.report.ReportDocument`.  Suite names follow
the reference-table layout they reproduce (``appendix-b`` … ``appendix-h``)
plus the two property suites ``schur-properties`` and ``lockin``; ``all``
runs everything.  Records for reference-only numbers whose generating
construction is out of scope are informational and never fail.

Every suite runs on the standard library alone.  The seeded ones draw from
:class:`random.Random`: ``appendix-b`` and ``lockin`` their integers, and
``schur-properties`` its random families, directions and couplings, whose
dense checks run on the list-of-rows matrices of :mod:`.oracle`.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import chain
from operator import mul, sub
from typing import Iterable, Sequence

from . import reference
from .floatlaw import _count, quadratic_law_fit
from .folded import moments, sums_closed
from .golden import golden_power_table, lambda_n
from .lockin import (
    QuadLawCoeffs,
    bracket_residual,
    f_red_prime_q,
    kappa_quadratic,
    stationarity_check,
    synthesize_consistent_ab,
)
from .oracle import (
    _bruteforce_numerators,
    _matmul,
    band_projector,
    circulant,
    exact_sign_changes,
    f_red_prime_direct_q,
    fibonacci,
    matrix_convexity_check,
    random_family,
    random_symmetric_psd_circulant,
    strict_convexity_witness,
    sums_at_qstar,
    variational_check,
)
from .qfield import QSTAR, GoldenBasis, Q5, decimal_str
from .reference import SUITES
from .report import ReportDocument
from .schur import (
    ExpTerm,
    FamilyValidationError,
    HessianFamily,
    build_split,
    kappa_convexity_scan,
    make_family,
    schur_curvature,
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
    "I2'": GoldenBasis(Fraction(259, 90), Fraction(485, 72)),
}
_I1P = Fraction(719, 720)
_I2P = Q5(Fraction(9347, 720), Fraction(-485, 144))
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


def _add_table(
    doc: ReportDocument, check_id: str, description: str, want: dict, got: dict, ok: bool = True
) -> None:
    """Record tabulated values: pass when ``ok`` holds and each ``got[k] == want[k]``."""
    ok = ok and all(got[k] == v for k, v in want.items())
    expected, actual = ("; ".join(f"{k} = {v}" for k, v in d.items()) for d in (want, got))
    doc.add(check_id, description, ok, expected, actual, "reference")


def _add_bound(
    doc: ReportDocument, check_id: str, description: str, label: str, value: float, bound: float
) -> None:
    """Record a derived defect: pass when ``value <= bound``."""
    expected, actual = f"{label} <= {bound}", f"{label} = {value:.3e}"
    doc.add(check_id, description, value <= bound, expected, actual, "derived")


def _suite_appendix_b(seed: int) -> ReportDocument:
    doc = ReportDocument("appendix-b", seed)
    rng = random.Random(seed)

    # each closed-form Fraction S_k against the oracle's integer h_k/b^N,
    # by cross-multiplication
    mismatches = []
    for n in range(1, 25):
        for _ in range(8):
            q = Fraction(rng.randrange(1, 997), 997)
            bn, hs = _bruteforce_numerators(n, q)
            if any(
                s.numerator * bn != h * s.denominator
                for s, h in zip(sums_closed(n, q).as_tuple(), hs)
            ):
                mismatches.append((n, q))
    doc.add(
        "b.closed-vs-brute",
        "closed-form power sums equal direct summation exactly (N = 1..24, random rational q)",
        not mismatches,
        "0 mismatches",
        f"{len(mismatches)} mismatches",
        "derived",
    )

    # the library's closed forms against the table, and the integer reduction
    # route against the library
    sums = sums_closed(12, QSTAR)
    _add_table(
        doc, "b.sums-qstar", "tabulated golden-point power sums S0..S3 at N = 12 (√5 basis)",
        _SUMS_SQRT5, dict(zip(_SUMS_SQRT5, sums.as_tuple())), ok=sums_at_qstar(12) == sums,
    )

    mom = moments(12, QSTAR)
    _add_table(
        doc, "b.moments-qstar", "tabulated golden-point moments I1..I3 at N = 12 (√5 basis)",
        _MOMENTS_SQRT5, {"I1": mom.i1, "I2": mom.i2, "I3": mom.i3},
    )
    _add_table(
        doc, "b.derivatives-qstar",
        "tabulated θ-derivatives I1' = 719/720 and I2' at the golden point (N = 12)",
        {"I1'": _I1P, "I2'": _I2P}, {"I1'": mom.var, "I2'": mom.i2_prime},
    )
    _add_table(
        doc, "b.decimals", "certified decimal expansions match the tabulated digits",
        {"q⋆": "0.38196601125", "I1(q⋆)": "1.617918249125459", "I1'(q⋆)": "0.998611111"},
        {"q⋆": decimal_str(QSTAR, 11), "I1(q⋆)": decimal_str(mom.i1, 15),
         "I1'(q⋆)": decimal_str(_I1P, 9)},
    )
    return doc


def _suite_appendix_c(seed: int) -> ReportDocument:
    doc = ReportDocument("appendix-c", seed)

    sums = sums_closed(12, QSTAR)
    _add_table(
        doc, "c.sums-golden", "tabulated golden-basis coordinates of S0..S3 at N = 12",
        _SUMS_GOLDEN, {k: v.to_golden() for k, v in zip(_SUMS_GOLDEN, sums.as_tuple())},
    )

    mom = moments(12, QSTAR)
    values = (mom.i1, mom.i2, mom.i3, mom.i2_prime)
    _add_table(
        doc, "c.moments-golden", "tabulated golden-basis coordinates of I1..I3 and I2' at N = 12",
        _MOMENTS_GOLDEN, {k: v.to_golden() for k, v in zip(_MOMENTS_GOLDEN, values)},
    )

    lam = lambda_n(12)
    ok = (
        lam == _LAMBDA12
        and lam.to_golden() == _LAMBDA12_GOLDEN
        and decimal_str(lam, 10) == "5.4583242762"
    )
    doc.add(
        "c.lambda-12",
        "Λ(12) in both bases with its tabulated decimal expansion",
        ok,
        f"{_LAMBDA12} = {_LAMBDA12_GOLDEN} ≈ 5.4583242762",
        f"{lam} = {lam.to_golden()} ≈ {decimal_str(lam, 10)}",
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
    below = fibonacci(-2)  # F(2m − 2): the rows run m = 0, 1, 2, …
    for r in rows:
        above = fibonacci(2 * r.m)
        fib_ok = fib_ok and r.a == above and r.b == -below
        below = above
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

    for label, q, i1, var in (
        ("half", Fraction(1, 2), Fraction(2726, 1365), Fraction(3660914, 1863225)),
        ("third", Fraction(1, 3), Fraction(199287, 132860), Fraction(13234051731, 17651779600)),
    ):
        mom = moments(12, q)
        _add_table(
            doc, f"h.moments-{label}", f"tabulated rational moments at N = 12, q = {q}",
            {"I1": i1, "Var": var}, {"I1": mom.i1, "Var": mom.var},
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


def _trace(a: list[list[float]]) -> float:
    return sum(row[i] for i, row in enumerate(a))


def _max_abs_diff(a: Iterable[Sequence[float]], b: Iterable[Sequence[float]]) -> float:
    """The largest entrywise difference of two matrices of the same shape."""
    return max(map(abs, map(sub, chain.from_iterable(a), chain.from_iterable(b))))


def _suite_schur_properties(seed: int) -> ReportDocument:
    doc = ReportDocument("schur-properties", seed)
    rng = random.Random(seed)

    worst_split = 0.0
    for _ in range(40):
        n = rng.randrange(3, 13)
        split = build_split(n, 2.0, [rng.gauss(0.0, 1.0) for _ in range(n)])
        pb = band_projector(split)
        # with P = Pᵀ checked beside it, P² = P·Pᵀ, which is symmetric: the
        # lower triangles of P·Pᵀ and P are compared
        worst_split = max(
            worst_split,
            _max_abs_diff(pb, zip(*pb)),
            max(
                abs(sum(map(mul, ri, rj)) - x)
                for i, ri in enumerate(pb)
                for rj, x in zip(pb[: i + 1], ri)
            ),
            math.hypot(*map(sum, pb)),
            math.hypot(*(sum(map(mul, row, split.u)) for row in pb)),
            abs(_trace(pb) - (n - 2)),
        )
    _add_bound(
        doc, "s.split-projector",
        "P_B is a symmetric projector of rank N−2 killing the uniform and collective directions",
        "worst defect", worst_split, 1e-10,
    )

    reps, worst_route = [], 0.0
    for _ in range(6):
        fam = random_family(rng.randrange(4, 9), rng)
        theta = rng.uniform(-1.5, 0.5)
        reps.append(variational_check(fam, theta, trials=60, rng=rng))
        dense = reps[-1].kappa  # dense_curvature(fam, theta), from the same blocks
        worst_route = max(worst_route, abs(schur_curvature(fam, theta) - dense) / abs(dense))
    worst_gap = max(rep.minimizer_gap for rep in reps)
    worst_pivot = min(rep.min_pivot for rep in reps)
    doc.add(
        "s.variational",
        "optimal coupling attains the Schur complement; random couplings dominate it (Loewner)",
        all(rep.passed() for rep in reps) and worst_route <= 1e-12,
        "gap <= 1e-10, LDLᵀ pivots of expression − Schur + 1e-10·I > 0 "
        "and spectral vs dense κ <= 1e-12 relative",
        f"gap = {worst_gap:.3e}, min pivot = {worst_pivot:.3e}, "
        f"spectral vs dense κ = {worst_route:.3e} relative",
        "derived",
    )

    reps = []
    for _ in range(10):
        fam = random_family(rng.randrange(4, 9), rng)
        for _ in range(2):
            t1, t2 = sorted((rng.uniform(-2.0, 0.5), rng.uniform(-2.0, 0.5)))
            reps.append(matrix_convexity_check(fam, t1, t2, 11))
    worst = min(rep.min_eig for rep in reps)
    doc.add(
        "s.matrix-convexity",
        "θ ↦ H(θ) is matrix convex: interpolation gaps are PSD up to 1e-10",
        all(rep.passed() for rep in reps),
        "min gap eigenvalue >= -1e-10",
        f"min gap eigenvalue = {worst:.3e}",
        "derived",
    )

    # claim (i) holds where it is proved: with u a cosine mode, an
    # eigenvector of every symmetric circulant, the Schur correction
    # vanishes and (N − 2)·κ = Σ_{j≥1} m_j·λ_j(θ) − λ₁(θ), a nonnegative
    # exponential sum, convex for every valid family.  A random u need not
    # give a convex κ.  Each family keeps its draw, and so the rng stream.
    bad_scans = 0
    for _ in range(6):
        fam = random_family(rng.randrange(4, 9), rng)
        n = fam.n
        mode = build_split(n, 2.0, [math.cos(math.tau * x / n) for x in range(n)])
        scan = kappa_convexity_scan(
            HessianFamily(mode, fam.base, fam.terms), math.log(0.05), math.log(0.95), 101
        )
        bad_scans += 0 if scan.convex_ok else 1
    doc.add(
        "s.kappa-convexity",
        "κ_Schur second differences are nonnegative along θ-grids of random families "
        "with a cosine-mode collective direction",
        bad_scans == 0,
        "0 scans with violations",
        f"{bad_scans} scans with violations",
        "derived",
    )

    n = 6
    e0 = [1.0] + [0.0] * (n - 1)
    ident_fam = make_family(n, 2.0, e0, [0.0] * n, [(1.0, e0)])
    scan = kappa_convexity_scan(ident_fam, math.log(0.05), math.log(0.95), 25)
    dev = max(abs(k - math.exp(t)) for t, k in zip(scan.thetas, scan.kappas))
    _add_bound(
        doc, "s.exp-identity-family", "the e^θ·I family has κ_Schur(θ) = e^θ",
        "max |κ − e^θ|", dev, 1e-12,
    )

    c0 = random_symmetric_psd_circulant(n, rng)
    c0[0] += 0.5
    const_fam = make_family(n, 2.0, e0, c0, [])
    scan = kappa_convexity_scan(const_fam, -2.0, -0.1, 41)
    flat = max(abs(d) for d in scan.second_differences)
    _add_bound(
        doc, "s.constant-family",
        "a constant family gives a flat κ column with zero second differences",
        "max |Δ²κ|", flat, 1e-12,
    )

    wit = strict_convexity_witness(ident_fam, 0, math.log(0.1), math.log(0.9), 51)
    ok_wit = wit.strict and abs(wit.witness - 1.0) <= 1e-12
    u_alt = [(-1.0) ** i for i in range(n)]
    # 11ᵀ/N + u_alt·u_altᵀ/N, the circulant of this row
    c_flat = [1.0 / n + x / n for x in u_alt]
    fam_flat = make_family(n, 2.0, u_alt, [0.5] + [0.0] * (n - 1), [(1.0, c_flat)])
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
    u_raw = [1, 0, 0, 0, -1]
    zeros = [[0.0] * n for _ in range(n)]
    indef = circulant([1.0, -0.75, 0.0, 0.0, -0.75])  # I − 0.75·(the 5-cycle)
    try:
        make_family(n, 2.0, u_raw, zeros, [(1.0, indef)])
        psd_control = "accepted (should have been rejected)"
        ok = False
    except FamilyValidationError as exc:
        ok = any("not PSD" in v for v in exc.violations)
        psd_control = f"rejected: {exc.violations}"
    # forced in: the rows, built without validation
    bad_fam = HessianFamily(
        build_split(n, 2.0, u_raw), ExpTerm(0.0, [0.0] * n), (ExpTerm(1.0, indef[0]),)
    )
    rep = matrix_convexity_check(bad_fam, -2.0, -0.2, 11)
    doc.add(
        "s.negative-control-psd",
        "an indefinite term is rejected at validation and breaks the convexity gap when forced in",
        ok and rep.min_eig < -1e-6,
        "validation error naming the PSD violation; negative gap eigenvalue when unvalidated",
        f"{psd_control}; forced-in min gap eigenvalue = {rep.min_eig:.3e}",
        "direct",
    )

    non_circ = [[0.0] * n for _ in range(n)]
    non_circ[0][0] = 1.0
    try:
        make_family(n, 2.0, u_raw, zeros, [(1.0, non_circ)])
        ok, msg = False, "accepted (should have been rejected)"
    except FamilyValidationError as exc:
        ok = any("not a symmetric circulant" in v for v in exc.violations)
        msg = "; ".join(exc.violations)
    doc.add(
        "s.negative-control-equivariance",
        "a non-circulant term is rejected with its distance to circ(r) reported",
        ok,
        "validation error quoting ||C - circ(r)||_F",
        msg,
        "direct",
    )

    n = 8
    split = build_split(n, 2.0, [float(i) for i in range(n)])
    k1 = circulant(random_symmetric_psd_circulant(n, rng))
    k2 = circulant(random_symmetric_psd_circulant(n, rng))
    pb = band_projector(split)
    x = [1.0 / n] * n
    d = [[1.0 / xi if i == j else 0.0 for j in range(n)] for i, xi in enumerate(x)]
    # Tr(P_B K1 D K2 P_B)/dim B with D = diag(1/x) at the uniform weights x
    uniform = _trace(_matmul(pb, k1, d, k2, pb)) / split.dim_band
    direct = n * _trace(_matmul(pb, k1, k2, pb)) / split.dim_band
    _add_bound(
        doc, "s.q-class-uniform",
        "uniform weights reduce the weighted class functional to N·Tr(P_B K1 K2 P_B)/dim B",
        "difference", abs(uniform - direct), 1e-10,
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


def _suite_lockin(seed: int) -> ReportDocument:
    doc = ReportDocument("lockin", seed)
    rng = random.Random(seed)

    lam = lambda_n(12)
    mom = moments(12, QSTAR)
    ok = True
    for _ in range(30):
        a = Fraction(rng.randrange(-60, 60), rng.randrange(1, 24))
        b = Fraction(rng.randrange(-60, 60), rng.randrange(1, 24))
        m2 = Fraction(rng.randrange(1, 12), rng.randrange(1, 6))
        coeffs = QuadLawCoeffs(a, b, 12, m2)
        lhs = f_red_prime_q(coeffs, QSTAR)
        rhs = bracket_residual(coeffs, lam) * mom.i1 * mom.var / 12
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
    rep = stationarity_check(syn)
    cells = exact_sign_changes(syn)
    doc.add(
        "l.uniqueness",
        "F′_red has exactly one zero on 0 < q < 1, at the golden point (Λ rises "
        "strictly), and exact F′ at q = k/64 changes sign once, around it",
        rep.sign_change_intervals == ((QSTAR, QSTAR),)
        and len(cells) == 1 and cells[0][0] < QSTAR < cells[0][1],
        "1 zero, at q⋆ = 0.38196601125; 1 sign change on the k/64 grid, around q⋆",
        f"{rep.sign_changes} zero(s), at q in "
        + ", ".join(f"[{float(a):.11f}, {float(b):.11f}]" for a, b in rep.sign_change_intervals)
        + f"; {len(cells)} sign change(s) on the k/64 grid, in "
        + ", ".join(f"({a}, {b})" for a, b in cells),
        "derived",
    )

    zero = QuadLawCoeffs(0, 0, 12)
    step = (math.log(0.95) - math.log(0.05)) / 10
    vals = [f_red_prime_q(zero, math.exp(math.log(0.05) + i * step)) for i in range(11)]
    rep0 = stationarity_check(zero)
    doc.add(
        "l.zero-coefficients",
        "with A = B = 0 the derivative is strictly negative (no stationary point)",
        all(v < 0 for v in vals) and rep0.sign_changes == 0,
        "negative on the whole grid, 0 sign changes",
        f"max sampled value = {max(vals):.3e}, {rep0.sign_changes} sign changes",
        "direct",
    )

    a = Fraction(3, 5)
    b = Fraction(-7, 4)
    coeffs = QuadLawCoeffs(a, b, 12)
    gap = f_red_prime_q(coeffs, QSTAR) - f_red_prime_direct_q(coeffs, QSTAR)
    expected_gap = b * mom.i2_prime * (mom.i1 - 1) / 12
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
        f"B·Λ + 2A − 2B − 8/m² = {decimal_str(res, 7)}",
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
    """Run one named suite (or ``all``) and return its report.

    ``seed`` is a count (:func:`~.floatlaw._count`): :class:`random.Random`
    would replay the stream of ``-seed`` for a negative one, and take a float."""
    seed = _count(seed, "seed", 0)
    if name != "all" and name not in _SUITE_FUNCS:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    if name == "all":
        return ReportDocument(
            "all", seed, [r for key in SUITES[:-1] for r in _SUITE_FUNCS[key](seed).records]
        )
    return _SUITE_FUNCS[name](seed)
