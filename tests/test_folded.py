"""Tests for folded power sums, moments, and θ-derivatives."""

import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from goldenschur import floatlaw, folded
from goldenschur.folded import folded_weights, moments, sums_closed
from goldenschur.oracle import (
    moments_from_sums, sums_at_qstar, sums_bruteforce, theta_derivatives_fd,
)
from goldenschur.qfield import Q5, QSTAR


# ---------------------------------------------------------------------------
# power sums
# ---------------------------------------------------------------------------


def test_bruteforce_small_cases():
    s = sums_bruteforce(2, Fraction(1, 2))
    assert s.as_tuple() == (Fraction(3, 4), Fraction(1), Fraction(3, 2), Fraction(5, 2))
    s1 = sums_bruteforce(1, Fraction(1, 2))
    assert s1.as_tuple() == (Fraction(1, 2),) * 4
    assert sums_bruteforce(3, Fraction(1, 2)).s1 == Fraction(11, 8)


def test_closed_form_n12_half():
    s = sums_closed(12, Fraction(1, 2))
    assert s.s0 == Fraction(4095, 4096)
    assert s.s1 == Fraction(4089, 2048)
    assert s.s2 == Fraction(12189, 2048)
    assert s.s3 == Fraction(51831, 2048)


def test_closed_form_at_golden_ratio():
    s = sums_closed(12, QSTAR)
    assert s.s0 == Q5(83880, -37512)
    assert s.s1 == Q5(954726, -426966)
    assert s.s2 == Q5(10950528, -4897224)
    assert s.s3 == Q5(126360432, -56510100)


def test_closed_equals_bruteforce_rational():
    rng = random.Random(424242)
    for n in range(1, 25):
        for _ in range(50):
            den = rng.randint(2, 500)
            q = Fraction(rng.randint(1, den - 1), den)
            assert sums_closed(n, q).as_tuple() == sums_bruteforce(n, q).as_tuple()


def test_closed_equals_bruteforce_q5():
    rng = random.Random(11)
    for n in (1, 2, 5, 12):
        assert sums_closed(n, QSTAR).as_tuple() == sums_bruteforce(n, QSTAR).as_tuple()
        for _ in range(5):
            # small irrational perturbations kept inside (0, 1)
            q = Q5(Fraction(rng.randint(1, 8), 16), Fraction(rng.randint(1, 3), 100))
            assert 0 < float(q) < 1
            assert sums_closed(n, q).as_tuple() == sums_bruteforce(n, q).as_tuple()


@pytest.mark.parametrize("n", range(1, 65))
def test_golden_route_equals_bruteforce(n):
    # q⋆ takes the numerators of an exact q; the oracle sums q⋆^s in the field
    assert sums_closed(n, QSTAR) == sums_bruteforce(n, QSTAR)


@pytest.mark.parametrize("n", [100, 1000, 10_000])
def test_golden_route_equals_reduction_oracle_at_large_n(n):
    assert sums_closed(n, QSTAR) == sums_at_qstar(n)


def _spy(monkeypatch, name, module=folded):
    """Record the q (or n, for the golden point) of each call to module.<name>."""
    calls, route = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda n, *q: calls.append(q[0] if q else n) or route(n, *q))
    return calls


def test_only_qstar_takes_the_golden_route(monkeypatch):
    # q⋆, however it was built, reads its sums and its moments off the forms
    # of the golden point; a Q5 next to it takes the exact lane, and only the
    # float runs the closed forms
    exact = _spy(monkeypatch, "_sums_closed_exact")
    golden = _spy(monkeypatch, "_golden_point")
    closed = _spy(monkeypatch, "_closed_sums", floatlaw)
    star = Q5(3, -1) / 2
    assert sums_closed(12, star) == sums_bruteforce(12, QSTAR)
    assert (exact, golden, closed) == ([], [12], [])
    assert moments(12, star) == moments_from_sums(sums_bruteforce(12, QSTAR))
    assert (exact, golden, closed) == ([], [12, 12], [])
    near = QSTAR * Fraction(999, 1000)
    assert sums_closed(12, near) == sums_bruteforce(12, near)
    assert moments(12, near) == moments_from_sums(sums_bruteforce(12, near))
    assert (exact, golden, closed) == ([near], [12, 12], [])
    sums_closed(12, float(QSTAR))
    moments(12, float(QSTAR))
    assert (exact, golden, closed) == ([near], [12, 12], [float(QSTAR)] * 2)


class _SubFraction(Fraction):
    pass


def test_closed_forms_see_only_inexact_scalars(monkeypatch):
    # a Fraction subclass is exact too; a numpy.float32 enters as the float it
    # equals, and a numpy.float64 as it is
    closed = _spy(monkeypatch, "_closed_sums", floatlaw)
    exact = [
        Fraction(2, 7), QSTAR, QSTAR * Fraction(999, 1000), Q5(Fraction(1, 2), 0),
        _SubFraction(2, 7),
    ]
    inexact = [0.3, np.float64(0.3), np.float32(0.3)]
    for q in exact + inexact:
        sums_closed(12, q)
        moments(12, q)
    assert [type(q) for q in closed] == [float, float, np.float64, np.float64, float, float]
    assert sums_closed(12, _SubFraction(2, 7)) == sums_closed(12, Fraction(2, 7))


def test_a_fraction_of_numpy_integers_computes_on_python_ints():
    # kept as int64, a^N and b^N at N = 50 wrap: the sums and moments would
    # differ from those at Fraction(1, 3), with only a RuntimeWarning
    q, exact = Fraction(np.int64(1), np.int64(3)), Fraction(1, 3)
    assert type(q.numerator) is np.int64
    for route in (sums_closed, moments, sums_bruteforce):
        got, want = route(50, q), route(50, exact)
        assert got == want
        assert [type(x) for x in got[2:]] == [Fraction] * len(got[2:])
    weights = folded_weights(50, q)
    assert weights == folded_weights(50, exact)
    assert all(type(x.numerator) is int for x in weights)


@pytest.mark.parametrize("q", [np.float32(0.5), Decimal("0.5")])
def test_a_scalar_that_a_float_equals_runs_as_that_float(q):
    # a numpy.float32 runs in double precision, and a Decimal as the float it
    # equals: the record, and the weights, hold Python floats with the bits
    # of q = 0.5
    pairs = [(route(12, q)[1:], route(12, 0.5)[1:]) for route in (sums_closed, moments)]
    for got, want in pairs + [(folded_weights(12, q), folded_weights(12, 0.5))]:
        assert all(type(x) is float for x in got)
        assert [x.hex() for x in got] == [x.hex() for x in want]


def test_a_scalar_that_no_float_equals_is_refused():
    message = r"^no float equals Decimal\('0\.1'\); pass a Fraction to stay exact$"
    for route in (sums_closed, moments):
        with pytest.raises(ValueError, match=message):
            route(12, Decimal("0.1"))


def _seeded_irrational_q5(count=8, seed=2323):
    """q = k/16 + (j/100)·√5 with k ≤ 8 and 1 ≤ j ≤ 12, so 0 < q < 0.77."""
    rng = random.Random(seed)
    return [
        Q5(Fraction(rng.randint(1, 8), 16), Fraction(rng.randint(1, 12), 100))
        for _ in range(count)
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 12, 50])
def test_irrational_q5_lane_equals_the_oracle(n):
    for q in _seeded_irrational_q5():
        assert 0 < q < 1 and not q.is_rational
        sums = sums_bruteforce(n, q)
        got = sums_closed(n, q)
        assert got == sums and got.q is q
        assert all(type(x) is Q5 for x in got.as_tuple())
        m = moments(n, q)
        assert m == moments_from_sums(sums)
        assert all(type(x) is Q5 for x in m[2:])


@st.composite
def _irrational_q5_in_unit_interval(draw):
    # |b·√5| < 0.45, so most draws of a land q inside
    b = draw(st.fractions(Fraction(-1, 5), Fraction(1, 5), max_denominator=1000).filter(bool))
    a = draw(st.fractions(0, 1, max_denominator=1000))
    q = Q5(a, b)
    assume(0 < q < 1)
    return q


@given(q=_irrational_q5_in_unit_interval(), n=st.integers(1, 40))
def test_irrational_q5_moments_equal_the_oracle(q, n):
    sums = sums_bruteforce(n, q)
    assert sums_closed(n, q) == sums
    assert moments(n, q) == moments_from_sums(sums)


@st.composite
def _proper_fractions(draw):
    b = draw(st.integers(2, 10**12))
    return Fraction(draw(st.integers(1, b - 1)), b)


@given(
    q=st.one_of(
        _proper_fractions(), st.sampled_from([Fraction(1, 10**9), 1 - Fraction(1, 10**9)])
    ),
    n=st.integers(1, 80),
)
def test_rational_sums_equal_direct_fraction_sums(q, n):
    expected = tuple(sum(Fraction(s) ** k * q**s for s in range(1, n + 1)) for k in range(4))
    for route in (sums_closed, sums_bruteforce):
        sums = route(n, q)
        assert sums.as_tuple() == expected
        assert all(type(x) is Fraction for x in sums.as_tuple())
        assert sums.q is q and sums.n == n


# float.hex of sums_closed(12, q), recorded before the rational lane got its
# integer route: the float lane must keep these bits.
_FLOAT_SUMS_N12 = {
    0.3: ("0x1.b6db5e6df6787p-2", "0x1.3977c32b76df5p-1",
          "0x1.23117368e8705p+0", "0x1.6e2d118dd4528p+1"),
    0.9: ("0x1.9d5211fd2072bp+2", "0x1.10a1b178193b4p+5",
          "0x1.f5f022ac760f7p+7", "0x1.105e0ce35027fp+11"),
    1e-6: ("0x1.0c6f8ba2f9812p-20", "0x1.0c6f9d3a9550ap-20",
           "0x1.0c6fc069cf3ddp-20", "0x1.0c7006c84a035p-20"),
}


@pytest.mark.parametrize("q", sorted(_FLOAT_SUMS_N12))
def test_float_sums_keep_their_bits(q):
    sums = sums_closed(12, q).as_tuple()
    assert all(type(x) is float for x in sums)
    assert tuple(x.hex() for x in sums) == _FLOAT_SUMS_N12[q]


# float.hex of (I₁, I₂, I₃, Var, I₂′) at N = 12, recorded before FoldedMoments
# carried I₂′: the float lane must keep these bits.
_FLOAT_MOMENTS_N12 = {
    0.3: ("0x1.6db6706f706c5p+0", "0x1.539467ce1e924p+1", "0x1.ab34a35bcf243p+2",
          "0x1.396e21f4cd744p-1", "0x1.714cae1030445p+1"),
    0.9: ("0x1.51b8ca153d3f7p+2", "0x1.36e32854f5026p+5", "0x1.5164ff346b3b9p+8",
          "0x1.607c8e75c16c6p+3", "0x1.08a88da2fa086p+7"),
    1e-6: ("0x1.000010c6f8ba3p+0", "0x1.00003254ec618p+0", "0x1.00007570da491p+0",
           "0x1.0c6f9d3a00000p-20", "0x1.92a78f0780000p-19"),
}


@pytest.mark.parametrize("q", sorted(_FLOAT_MOMENTS_N12))
def test_float_moments_keep_their_bits(q):
    m = moments(12, q)
    values = (m.i1, m.i2, m.i3, m.var, m.i2_prime)
    assert all(type(x) is float for x in values)
    assert tuple(x.hex() for x in values) == _FLOAT_MOMENTS_N12[q]


def test_float_like_q_takes_the_float_lane():
    # a numpy.float64 runs the closed forms as a float does, to the bit
    for q in sorted(_FLOAT_MOMENTS_N12):
        m = moments(12, np.float64(q))
        assert all(type(x) is np.float64 for x in m[2:])
        assert tuple(x.hex() for x in m[2:]) == _FLOAT_MOMENTS_N12[q]
        sums = sums_closed(12, np.float64(q)).as_tuple()
        assert tuple(x.hex() for x in sums) == _FLOAT_SUMS_N12[q]


def test_closed_matches_bruteforce_float():
    # The closed forms divide by (1-q)^4, which costs a few digits in floating
    # point as q -> 1; 1e-9 relative still leaves ~100x observed headroom.
    for n in (2, 12, 24):
        for k in range(1, 10):
            q = k / 10
            a = sums_closed(n, q).as_tuple()
            b = sums_bruteforce(n, q).as_tuple()
            for x, y in zip(a, b):
                assert math.isclose(x, y, rel_tol=1e-9)


def test_sum_bounds():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 24)
        q = Fraction(rng.randint(1, 99), 100)
        s = sums_closed(n, q)
        assert s.s0 > 0 and s.s1 > 0 and s.s2 > 0 and s.s3 > 0
        assert s.s1 <= n * s.s0
        assert s.s2 <= n * n * s.s0


@pytest.mark.parametrize(
    "bad_q",
    [Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 2), Fraction(-1, 3),
     Fraction(4, 3), 0.0, 1.0, -0.5, 1.5, math.nan, math.inf],
)
def test_domain_rejects_bad_q(bad_q):
    # a Fraction q is bounded by its numerator and denominator, and a float
    # q, NaN included, by the float branch of moments, with one message
    message = f"^{re.escape(f'weight ratio must satisfy 0 < q < 1, got {bad_q!r}')}$"
    for route in (sums_closed, sums_bruteforce, moments):
        with pytest.raises(ValueError, match=message):
            route(5, bad_q)


def test_domain_rejects_bad_n():
    with pytest.raises(ValueError):
        sums_closed(0, Fraction(1, 2))
    with pytest.raises(ValueError):
        moments(-3, Fraction(1, 2))


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize(
    "route",
    [
        lambda n: sums_closed(n, Fraction(1, 2)),
        lambda n: sums_bruteforce(n, Fraction(1, 2)),
        lambda n: moments(n, 0.5),
        lambda n: folded_weights(n, Fraction(1, 2)),
        sums_at_qstar,
    ],
    ids=["sums_closed", "sums_bruteforce", "moments", "folded_weights", "sums_at_qstar"],
)
def test_size_guards_reject_bool(route, flag):
    with pytest.raises(ValueError, match=f"N must be an integer >= 1, got {flag}"):
        route(flag)


def test_domain_rejects_irrational_outside_unit_interval():
    with pytest.raises(ValueError):
        sums_closed(5, Q5(2, 0))
    with pytest.raises(ValueError):
        sums_closed(5, Q5(Fraction(1, 2), Fraction(1, 2)))  # φ > 1


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def test_moments_exact_rational_values():
    m = moments(12, Fraction(1, 2))
    assert m.i1 == Fraction(2726, 1365)
    assert m.var == Fraction(3660914, 1863225)
    assert m.i2 == Fraction(8126, 1365)
    assert m.i3 == Fraction(886, 35)
    m3 = moments(12, Fraction(1, 3))
    assert m3.i1 == Fraction(199287, 132860)
    assert m3.var == Fraction(13234051731, 17651779600)


def test_moments_at_golden_ratio():
    m = moments(12, QSTAR)
    assert m.i1 == Q5(Fraction(13, 2), Fraction(-131, 60))
    assert m.i2 == Q5(Fraction(805, 12), Fraction(-1703, 60))
    assert m.i3 == Q5(Fraction(6071, 8), Fraction(-13373, 40))
    assert math.isclose(float(m.i1), 1.617918249125459, rel_tol=1e-15)


def test_moments_degenerate_family():
    for q in (Fraction(1, 7), Fraction(9, 10)):
        m = moments(1, q)
        assert m.i1 == 1 and m.var == 0 and m.i2 == 1 and m.i3 == 1


def test_moment_bounds_exact():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 24)
        q = Fraction(rng.randint(1, 199), 200)
        m = moments(n, q)
        assert 1 <= m.i1 <= n
        assert m.i2 >= m.i1 * m.i1
        if n >= 2:
            assert m.var > 0


def test_i1_strictly_increasing():
    qs = [Fraction(k, 40) for k in range(1, 40)]
    for n in (2, 5, 12):
        vals = [moments(n, q).i1 for q in qs]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_moments_from_sums_consistent():
    s = sums_closed(7, Fraction(2, 5))
    m = moments_from_sums(s)
    assert m.i1 == s.s1 / s.s0
    assert m.var == m.i2 - m.i1 * m.i1
    assert m.i2_prime == m.i3 - m.i1 * m.i2
    assert moments(7, Fraction(2, 5)) == m


@given(
    n=st.integers(1, 300),
    a=st.integers(1, 10**6),
    gap=st.integers(1, 10**6),
)
def test_rational_moments_from_numerators_match_the_sums(n, a, gap):
    # one normalisation per value from the integer numerators X_k, against
    # Fraction division of the normalised sums
    q = Fraction(a, a + gap)
    got = moments(n, q)
    assert got == moments_from_sums(sums_closed(n, q))
    assert all(type(x) is Fraction for x in got[2:])


# ---------------------------------------------------------------------------
# folded weights
# ---------------------------------------------------------------------------


def test_folded_weights_hand_case():
    assert folded_weights(3, Fraction(1, 2)) == [Fraction(4, 7), Fraction(2, 7), Fraction(1, 7)]


def test_folded_weights_normalized():
    rng = random.Random(8)
    for _ in range(20):
        n = rng.randint(1, 20)
        q = Fraction(rng.randint(1, 49), 50)
        w = folded_weights(n, q)
        assert len(w) == n
        assert sum(w) == 1
        assert all(x > 0 for x in w)
        # geometric decay
        assert all(b / a == q for a, b in zip(w, w[1:]))


def test_folded_weights_define_the_moments():
    n, q = 9, Fraction(3, 7)
    w = folded_weights(n, q)
    m = moments(n, q)
    assert sum((r + 1) * x for r, x in enumerate(w)) == m.i1
    assert sum((r + 1) ** 2 * x for r, x in enumerate(w)) == m.i2
    assert sum((r + 1) ** 3 * x for r, x in enumerate(w)) == m.i3


# ---------------------------------------------------------------------------
# θ-derivatives
# ---------------------------------------------------------------------------


def test_theta_derivatives_exact_values():
    m = moments(12, QSTAR)
    assert m.var == Fraction(719, 720)
    assert m.i2_prime == Q5(Fraction(9347, 720), Fraction(-485, 144))


def test_theta_derivatives_degenerate():
    m = moments(1, Fraction(1, 3))
    assert m.var == 0 and m.i2_prime == 0


def test_theta_derivatives_identities():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(2, 18)
        q = Fraction(rng.randint(1, 99), 100)
        m = moments(n, q)
        assert m.var == m.i2 - m.i1 * m.i1
        assert m.i2_prime == m.i3 - m.i1 * m.i2


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def test_fd_matches_exact_at_spec_points():
    f1, _ = theta_derivatives_fd(12, float(QSTAR), h=1e-4)
    assert abs(f1 - 719 / 720) < 1e-7
    m = moments_from_sums(sums_bruteforce(2, Fraction(1, 2)))
    f1, _ = theta_derivatives_fd(2, 0.5, h=1e-4)
    assert abs(f1 - float(m.var)) < 1e-7
    assert theta_derivatives_fd(1, 0.5) == (0.0, 0.0)


def test_fd_rejects_a_step_past_one():
    # q·e^h = 0.9995·e^0.001 > 1 leaves the domain before any sum is taken
    with pytest.raises(ValueError, match=r"^step h=0\.001 leaves the domain at q=0\.9995$"):
        theta_derivatives_fd(12, 0.9995, h=1e-3)


def test_fd_matches_exact_on_grid():
    # Central differences carry truncation error h²·|f‴|/6; the third
    # θ-derivatives scale with the high moments, so the bound uses the
    # natural magnitude scale max(1, I₃).
    h = 1e-4
    for n in (2, 12, 24):
        for k in range(1, 10):
            q = k / 10
            m = moments(n, q)
            d1, d2 = m.var, m.i2_prime
            f1, f2 = theta_derivatives_fd(n, q, h=h)
            bound = 10 * h * h * max(1.0, float(m.i3))
            assert abs(f1 - d1) <= bound
            assert abs(f2 - d2) <= bound


def test_fd_second_order_convergence():
    n, q = 12, 0.6
    m = moments(n, q)
    d1, d2 = m.var, m.i2_prime
    errs = []
    for h in (1e-2, 5e-3, 2.5e-3):
        f1, f2 = theta_derivatives_fd(n, q, h=h)
        errs.append(max(abs(f1 - d1), abs(f2 - d2)))
    # halving h should shrink the error about 4x
    assert 3.0 < errs[0] / errs[1] < 5.0
    assert 3.0 < errs[1] / errs[2] < 5.0
