"""Tests for golden-power reduction and exact evaluation at q⋆."""

import math
from fractions import Fraction

import pytest

from goldenschur import folded, qfield
from goldenschur.folded import _golden_point, moments, sums_closed
from goldenschur.golden import GoldenPower, golden_power_table, lambda_n
from goldenschur.oracle import (
    fibonacci, moments_from_sums, sums_at_qstar, theta_derivatives_fd,
)
from goldenschur.qfield import PHI, Q5, QSTAR, SQRT5, GoldenBasis, decimal_str

#: the sizes of test_qfield.py at which the golden point is checked
GOLDEN_SIZES = [*range(1, 401), 2160, 2161, 4320, 9999, 10_000, 10_001]

# (m, a_m, b_m) rows of q⋆^m = a_m q⋆ + b_m.
REDUCTION_ROWS = [
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
]


# ---------------------------------------------------------------------------
# reduction table
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m, a, b", REDUCTION_ROWS)
def test_golden_power_table_rows(m, a, b):
    p = golden_power_table(m)[m]
    assert (p.m, p.a, p.b) == (m, a, b)


def test_golden_power_table():
    table = golden_power_table(12)
    assert [(p.m, p.a, p.b) for p in table] == REDUCTION_ROWS
    assert all(isinstance(p, GoldenPower) for p in table)


def test_reduction_convention():
    # q⋆² = 3q⋆ − 1 fixes the sign convention for the whole table.
    p = golden_power_table(2)[2]
    assert (p.a, p.b) == (3, -1)
    assert QSTAR * QSTAR == 3 * QSTAR - 1


def test_recurrence():
    table = golden_power_table(60)
    for lo, mid, hi in zip(table, table[1:], table[2:]):
        assert hi.a == 3 * mid.a - lo.a
        assert hi.b == 3 * mid.b - lo.b


def test_golden_power_table_rows_are_qstar_powers():
    for m, p in enumerate(golden_power_table(200)):
        assert p.m == m
        assert QSTAR**m == p.a * QSTAR + p.b
        assert p.as_q5() == QSTAR**m


def test_golden_power_as_q5_is_the_golden_basis_conversion():
    # as_q5 writes b + a·q⋆ in the √5 basis directly; GoldenBasis is the oracle
    for p in golden_power_table(300):
        got, want = p.as_q5(), GoldenBasis(p.b, p.a).to_q5()
        assert type(got) is Q5
        assert (got._p, got._q, got._d) == (want._p, want._q, want._d)


def test_golden_power_table_rejects_negative():
    with pytest.raises(ValueError):
        golden_power_table(-1)


@pytest.mark.parametrize("bad", [True, False, 2.0, "3", None])
def test_golden_power_table_rejects_a_non_integer_size(bad):
    # a bool is not a table size: True would give two rows
    with pytest.raises(ValueError, match="max_m must be an integer"):
        golden_power_table(bad)


# ---------------------------------------------------------------------------
# Fibonacci closed form
# ---------------------------------------------------------------------------


def test_fibonacci_values():
    assert [fibonacci(n) for n in range(-2, 11)] == [-1, 1, 0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    with pytest.raises(ValueError):
        fibonacci(-3)


def test_fibonacci_recurrence():
    prev, cur = fibonacci(0), fibonacci(1)
    for n in range(2, 400):
        prev, cur = cur, prev + cur
        assert fibonacci(n) == cur


def test_closed_form_coefficients():
    # a_m = F_{2m}, b_m = −F_{2m−2} for 0 ≤ m ≤ 200.
    for m, p in enumerate(golden_power_table(200)):
        assert p.a == fibonacci(2 * m)
        assert p.b == -fibonacci(2 * m - 2)


# ---------------------------------------------------------------------------
# power sums at q⋆ via the reduction table
# ---------------------------------------------------------------------------


def test_sums_at_qstar_n12_frozen():
    s = sums_at_qstar(12)
    assert s.s0 == Q5(83880, -37512)
    assert s.s1 == Q5(954726, -426966)
    assert s.s2 == Q5(10950528, -4897224)
    assert s.s3 == Q5(126360432, -56510100)


def test_sums_at_qstar_golden_coordinates():
    s = sums_at_qstar(12)
    assert (s.s0.to_golden().c0, s.s0.to_golden().c1) == (-28656, 75024)
    assert (s.s1.to_golden().c0, s.s1.to_golden().c1) == (-326172, 853932)
    assert (s.s2.to_golden().c0, s.s2.to_golden().c1) == (-3741144, 9794448)
    assert (s.s3.to_golden().c0, s.s3.to_golden().c1) == (-43169868, 113020200)


def test_sums_at_qstar_agrees_with_closed_forms():
    # Two independent exact routes: integer-weighted reduction table versus
    # the golden-point forms in F_N and L_N.
    for n in range(1, 401):
        assert sums_at_qstar(n).as_tuple() == sums_closed(n, QSTAR).as_tuple(), n


def test_golden_sums_are_four_constants_less_a_tail():
    # g_k = Σ_{t≥1} t^k·q⋆^t are the Eulerian-polynomial sums at q⋆, and
    # the tail of S_k past N is q⋆ᴺ·e_k with e_k = Σ_{t≥1} (t + N)^k·q⋆^t =
    # Σ_j C(k, j)·N^{k−j}·g_j.  S_k comes from the integer reduction table
    # and q⋆ᴺ from a field power, so the check shares no code with the forms.
    q = QSTAR
    g = (PHI - 1, 1, SQRT5, 7)
    assert g == (q / (1 - q), q / (1 - q) ** 2, q * (1 + q) / (1 - q) ** 3,
                 q * (1 + 4 * q + q * q) / (1 - q) ** 4)
    for n in GOLDEN_SIZES:
        tail = QSTAR**n
        for k, s in enumerate(sums_at_qstar(n).as_tuple()):
            e = sum(math.comb(k, j) * n ** (k - j) * g[j] for j in range(k + 1))
            assert s + tail * e == g[k], (n, k)


def test_moments_at_qstar_frozen():
    m = moments(12, QSTAR)
    assert m.i1 == Q5(Fraction(13, 2), Fraction(-131, 60))
    assert m.i2 == Q5(Fraction(805, 12), Fraction(-1703, 60))
    assert m.i3 == Q5(Fraction(6071, 8), Fraction(-13373, 40))
    assert m.var == Fraction(719, 720)
    assert m.var == m.i2 - m.i1 * m.i1


def test_moments_at_qstar_matches_generic_route():
    # library route (closed forms) against the integer-reduction oracle
    for n in (1, 2, 3, 12, 24):
        assert moments(n, QSTAR) == moments_from_sums(sums_at_qstar(n))


@pytest.mark.parametrize("n", [2, 3, 5, 12, 25, 100, 377, 1000])
def test_closed_form_route_matches_integer_oracle(n):
    oracle = sums_at_qstar(n)
    assert sums_closed(n, QSTAR) == oracle
    m = moments_from_sums(oracle)
    assert moments(n, QSTAR) == m
    assert lambda_n(n) == m.i2_prime / m.var


# ---------------------------------------------------------------------------
# Λ(N)
# ---------------------------------------------------------------------------


def test_lambda_12_exact():
    lam = lambda_n(12)
    assert lam == Q5(13, Fraction(-2425, 719))
    g = lam.to_golden()
    assert (g.c0, g.c1) == (Fraction(2072, 719), Fraction(4850, 719))
    assert decimal_str(lam, 10) == "5.4583242762"
    assert abs(float(lam) - 5.4583242762) <= 1e-10


def test_lambda_is_derivative_ratio():
    for n in (2, 3, 12, 24):
        m = moments_from_sums(sums_at_qstar(n))
        assert lambda_n(n) == m.i2_prime / m.var


@pytest.mark.parametrize("n", [*range(2, 61), 1000])
def test_lambda_is_u_over_v(n):
    # lambda_n divides T = I₂′·Y₀² by the integer R = Var·Y₀² once; the
    # moment route divides I₂′ by I₁′
    m = moments(n, QSTAR)
    assert lambda_n(n) == m.i2_prime / m.var


def test_lambda_10000_is_u_over_v_of_the_reduction_oracle():
    s0, s1, s2, s3 = sums_at_qstar(10_000).as_tuple()
    assert lambda_n(10_000) == (s3 * s0 - s1 * s2) / (s2 * s0 - s1 * s1)


def test_golden_point_values_at_n_10000_match_mpmath():
    # the coordinates have about 4180 digits and cancel to O(1) values, so the
    # exact values are evaluated at 4400 digits; the references are direct
    # sums of positive terms, well conditioned at 60 digits
    mpmath = pytest.importorskip("mpmath")
    n = 10_000
    s = sums_closed(n, QSTAR)
    m = moments_from_sums(s)
    with mpmath.workdps(60):
        q = (3 - mpmath.sqrt(5)) / 2
        ref = [mpmath.mpf(0)] * 4
        p = mpmath.mpf(1)
        for r in range(1, 400):  # q⋆^400·400³ < 1e-150: the tail is below 60 digits
            p *= q
            for k in range(4):
                ref[k] += r**k * p
        i1, i2, i3 = (x / ref[0] for x in ref[1:])
        var = i2 - i1 * i1
        ref += [var, (i3 - i1 * i2) / var]
    with mpmath.workdps(4400):
        root5 = mpmath.sqrt(5)
        for value, expected in zip([*s.as_tuple(), m.var, lambda_n(n)], ref):
            a, b = value.a, value.b
            assert max(len(str(a.numerator)), len(str(b.numerator))) > 4000
            got = mpmath.mpf(a.numerator) / a.denominator
            got += mpmath.mpf(b.numerator) / b.denominator * root5
            assert abs(got - expected) <= mpmath.mpf(10) ** -50 * abs(expected)
            text = decimal_str(value, 40)
            assert abs(mpmath.mpf(text) - expected) <= mpmath.mpf(10) ** -40 * 0.5000001


def test_lambda_2_is_three():
    # For a two-point family I₃ − I₁I₂ = 3·Var identically, so Λ(2) = 3.
    assert lambda_n(2) == Q5(3, 0)


def test_lambda_monotone_in_family_size():
    vals = [float(lambda_n(n)) for n in range(2, 25)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_lambda_rejects_degenerate():
    with pytest.raises(ValueError, match=r"^Λ\(N\) needs N >= 2 \(zero variance at N=1\)$"):
        lambda_n(1)
    # the size guard runs first: N <= 0 is no family at all, not a zero variance
    for n in (0, -3):
        with pytest.raises(ValueError, match=f"^family size must be a positive integer, got {n}$"):
            lambda_n(n)


@pytest.mark.parametrize("bad", [True, False, 2.0, 12.0, "12", None])
def test_lambda_rejects_a_non_integer_size(bad):
    # checked before any arithmetic, with the message of every size guard
    with pytest.raises(ValueError, match="family size must be a positive integer"):
        lambda_n(bad)


# ---------------------------------------------------------------------------
# the golden-point kernel: values read off their forms in F_N and L_N
# ---------------------------------------------------------------------------


def _field_route(n):
    """Moments with I₂′, and Λ, at (N, q⋆) by the generic field route: the
    power sums in Q(√5), I_k = S_k/S₀, and Λ = (S₃S₀ − S₁S₂)/(S₂S₀ − S₁²)."""
    s = sums_closed(n, QSTAR)
    s0, s1, s2, s3 = s.as_tuple()
    lam = (s3 * s0 - s1 * s2) / (s2 * s0 - s1 * s1) if n >= 2 else None
    return moments_from_sums(s), lam


def _check_kernel(n):
    m, lam = _field_route(n)
    assert moments(n, QSTAR) == m  # every field, I₂′ included
    if n >= 2:
        assert lambda_n(n) == lam


def test_golden_kernel_matches_the_field_route_up_to_300():
    for n in range(1, 301):
        _check_kernel(n)


@pytest.mark.parametrize("n", [999, 1000, 10_000, 10_001])
def test_golden_kernel_matches_the_field_route_at_large_n(n):
    _check_kernel(n)


def _lucas(n):
    return fibonacci(n - 1) + fibonacci(n + 1)


def _check_integers(n):
    # Y₀ = φᴺ − φ⁻ᴺ is √5·F_N for even N and L_N for odd N, so Y₀² is a
    # rational integer, L_2N − 2; so is R = Var·Y₀² = Y₀² − N².  The form of
    # Var is R over Y₀², and that of Λ is over R: each denominator is a small
    # integer times a power of F_N, L_N or R
    point = _golden_point(n)
    f, lucas = fibonacci(n), _lucas(n)
    square = 5 * f * f if n % 2 == 0 else lucas * lucas
    assert square == _lucas(2 * n) - 2
    var = point.forms["var"]
    num, den = (folded._dot(v, point.basis) for v in (var.p, var.d))
    assert var.q == [0] * 5 and num * square == den * (square - n * n)
    assert var.reduction[0] == (f if n % 2 == 0 else lucas)
    assert den == var.k * var.reduction[0] ** var.power
    if n >= 2:
        lam = point.forms["lambda"]
        assert lam.reduction[0] == square - n * n
        assert folded._dot(lam.d, point.basis) == lam.k * (square - n * n)
    assert moments(n, QSTAR).var == Fraction(square - n * n, square)


def test_golden_kernel_divides_by_integers_up_to_300():
    for n in range(1, 301):
        _check_integers(n)


@pytest.mark.parametrize("n", [999, 1000, 10_000, 10_001])
def test_golden_kernel_divides_by_integers_at_large_n(n):
    _check_integers(n)


def _clear_golden_cache():
    folded._golden_point.cache_clear()


@pytest.mark.parametrize("ns", [range(1, 41), [1000], [10_001]], ids=["1-40", "1000", "10001"])
def test_golden_kernel_takes_no_field_norm(monkeypatch, ns):
    # every golden-point value is read off its form, three integers put in
    # lowest terms once: the kernel divides in Q5 not at all
    divisors, div = [], qfield._div
    monkeypatch.setattr(qfield, "_div", lambda x, y, message: divisors.append(y) or div(x, y, message))
    for n in ns:
        _clear_golden_cache()  # a cached record would skip the kernel
        moments(n, QSTAR)
        if n >= 2:
            lambda_n(n)
        assert divisors == [], n


def test_lambda_and_var_have_closed_forms_in_fibonacci_and_lucas_numbers():
    # Var(N, q⋆) = 1 − N²/(L_2N − 2) and
    # Λ(N) = N + 1 − √5·(N·F_2N − 2·L_2N + N² + 4)/(L_2N − N² − 2), from the
    # integers F_2N and L_2N alone
    for n in GOLDEN_SIZES[1:]:
        f2, l2 = fibonacci(2 * n), _lucas(2 * n)
        assert moments(n, QSTAR).var == 1 - Fraction(n * n, l2 - 2), n
        lam = n + 1 - Q5(0, Fraction(n * f2 - 2 * l2 + n * n + 4, l2 - n * n - 2))
        assert lambda_n(n) == lam, n


def test_lambda_bounds_are_integer_inequalities():
    # 3 < Λ(N) < N + 1 for N ≥ 3, with Λ = N + 1 − √5·X/R: R > 0, X > 0 and
    # 5X² < (N − 2)²·R², from the integers F_2N and L_2N alone (lambda_n's
    # docstring); at N = 2, X = 0 and Λ = 3
    for n in GOLDEN_SIZES[1:]:
        f2, l2 = fibonacci(2 * n), _lucas(2 * n)
        x, r = n * f2 - 2 * l2 + n * n + 4, l2 - n * n - 2
        if n == 2:
            assert (x, r) == (0, 1) and lambda_n(n) == 3
        else:
            assert r > 0 and x > 0 and 5 * x * x < (n - 2) ** 2 * r * r, n
            assert 3 < lambda_n(n) < n + 1, n


# ---------------------------------------------------------------------------
# the golden-point caches
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [*range(2, 65), 1000, 10_000, 10_001])
def test_golden_caches_match_the_reduction_oracle_cold_and_warm(n):
    # the integer reduction route shares no code with the forms of the
    # golden point; each value is computed cold once, then read warm
    s = sums_at_qstar(n)
    s0, s1, s2, s3 = s.as_tuple()
    m = moments_from_sums(s)
    lam = (s3 * s0 - s1 * s2) / (s2 * s0 - s1 * s1)
    for value, expected in ((lambda: moments(n, QSTAR), m), (lambda: lambda_n(n), lam)):
        _clear_golden_cache()
        for _ in ("cold", "warm"):
            assert value() == expected
        assert folded._golden_point.cache_info().hits == 1


def test_golden_caches_are_shared_and_bounded():
    # one cache holds the sums, the moments and Λ of each size
    assert moments(12, QSTAR) is moments(12, Q5(3, -1) / 2)
    assert lambda_n(12) is lambda_n(12)
    point = folded._golden_point(12)
    assert (sums_closed(12, QSTAR), moments(12, QSTAR), lambda_n(12)) == (
        point.sums, point.moments, point.lam,
    )
    assert folded._golden_point.cache_info().maxsize is not None


def test_golden_caches_leak_no_state_into_verify():
    from goldenschur.verify import run_suite

    def rendered():
        doc = run_suite("all", 7)
        return doc.render("json"), doc.render("table")

    _clear_golden_cache()
    cold = rendered()
    assert rendered() == cold
    _clear_golden_cache()
    assert rendered() == cold


def _statuses(suite):
    from goldenschur.verify import run_suite

    return {r.check_id: r.status for r in run_suite(suite, 0).records}


@pytest.mark.parametrize("route", ["sums_closed", "sums_at_qstar"])
def test_verify_fails_the_golden_sums_when_a_route_is_off(monkeypatch, route):
    # the table is checked against the library's closed forms, and the integer
    # reduction route against the library: either one off fails b.sums-qstar
    from goldenschur import verify

    right = getattr(verify, route)

    def off(n, q=QSTAR):
        s = right(n, q) if route == "sums_closed" else right(n)
        return s._replace(s3=s.s3 + 1) if q == QSTAR else s

    before = {**_statuses("appendix-b"), **_statuses("appendix-c")}
    monkeypatch.setattr(verify, route, off)
    after = {**_statuses("appendix-b"), **_statuses("appendix-c")}
    failed = {"b.sums-qstar"} | ({"c.sums-golden"} if route == "sums_closed" else set())
    assert set(before.values()) <= {"pass", "info"}
    assert {k for k, v in after.items() if v != before[k]} == failed
    assert all(after[k] == "fail" for k in failed)


def test_lambda_fd_cross_check():
    f1, f2 = theta_derivatives_fd(12, float(QSTAR), h=1e-5)
    assert abs(f2 / f1 - float(lambda_n(12))) < 1e-6
