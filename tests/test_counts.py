"""Every count of the package (N, a power, a digit count, a seed, a grid size,
an index) is read by one rule, :func:`goldenschur.floatlaw._count`: an
integer of any type but bool is read as the Python int it equals, and
anything else, or a count below its least value, is one ValueError."""

import json
import random
import re
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from goldenschur.floatlaw import quadratic_law_fit
from goldenschur.folded import folded_weights, moments, sums_closed
from goldenschur.golden import golden_power_table, lambda_n
from goldenschur.lockin import QuadLawCoeffs
from goldenschur.oracle import (
    fibonacci,
    matrix_convexity_check,
    random_family,
    strict_convexity_witness,
    sums_at_qstar,
    sums_bruteforce,
    theta_derivatives_fd,
    variational_check,
)
from goldenschur.qfield import QSTAR, SQRT5, Q5, decimal_str
from goldenschur.schur import build_split, family_from_dict, kappa_convexity_scan, make_family
from goldenschur.verify import run_suite

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

FAMILY = json.loads((Path(__file__).parent / "fixtures" / "ci-family.json").read_text())
SAMPLES = [(Fraction(1, 2), Fraction(3, 7)), (Fraction(1, 3), Fraction(5, 11))]
NUMPY_INTEGERS = ("int8", "int16", "int32", "int64", "uint8", "uint16", "uint32", "uint64")


def ring_family():
    """The N = 6 family of ``tests/fixtures/ci-family.json``, two terms."""
    return family_from_dict(FAMILY)


def family_view(fam):
    """What a family holds, as tuples."""
    terms = (fam.base, *fam.terms)
    return fam.n, fam.split.m_rho_sq, fam.split.u, tuple((t.s, t.c) for t in terms)


def with_rows(n):
    """The fixture family through make_family, its coefficients as rows."""
    rows = [(t["s"], t["C"]["circulant"]) for t in FAMILY["terms"]]
    return family_view(make_family(n, 2.0, FAMILY["u"], FAMILY["C0"]["circulant"], rows))


# (site, the name it reads the count by, its least value, a count it accepts, call)
SITES = [
    ("sums_closed", "N", 1, 5, lambda n: sums_closed(n, Fraction(1, 2))),
    ("sums_closed-float", "N", 1, 5, lambda n: sums_closed(n, 0.5)),
    ("moments", "N", 1, 5, lambda n: moments(n, Fraction(1, 3))),
    ("moments-golden", "N", 1, 5, lambda n: moments(n, QSTAR)),
    ("folded_weights", "N", 1, 5, lambda n: folded_weights(n, Fraction(1, 2))),
    ("sums_bruteforce", "N", 1, 5, lambda n: sums_bruteforce(n, Fraction(1, 2))),
    ("theta_derivatives_fd", "N", 1, 5, lambda n: theta_derivatives_fd(n, 0.5)),
    ("sums_at_qstar", "N", 1, 5, sums_at_qstar),
    ("lambda_n", "N", 1, 5, lambda_n),
    ("QuadLawCoeffs", "N", 1, 5, lambda n: QuadLawCoeffs(1, 1, n)),
    ("quadratic_law_fit", "N", 1, 5, lambda n: quadratic_law_fit(SAMPLES, n)),
    (
        "build_split", "N", 3, 5,
        lambda n: vars(build_split(n, 2.0, [0.0, 1.0, 2.0, 3.0, 5.0])),
    ),
    ("make_family", "N", 3, 6, with_rows),
    ("family_from_dict", "N", 3, 6, lambda n: family_view(family_from_dict(dict(FAMILY, N=n)))),
    ("golden_power_table", "max_m", 0, 5, golden_power_table),
    ("decimal_str", "digits", 0, 25, lambda d: decimal_str(Fraction(1, 3), d)),
    ("decimal_str-sqrt5", "digits", 0, 25, lambda d: decimal_str(SQRT5, d)),
    ("run_suite", "seed", 0, 3, lambda s: run_suite("lockin", s).render("json")),
    (
        "kappa_convexity_scan", "points", 3, 5,
        lambda p: kappa_convexity_scan(ring_family(), -1.0, 0.0, p),
    ),
    (
        "strict_convexity_witness-points", "points", 3, 5,
        lambda p: strict_convexity_witness(ring_family(), 0, -1.0, 0.0, p),
    ),
    (
        "strict_convexity_witness-term_index", "term_index", 0, 1,
        lambda i: strict_convexity_witness(ring_family(), i, -1.0, 0.0, 5),
    ),
    (
        "variational_check", "trials", 1, 5,
        lambda t: variational_check(ring_family(), -0.5, trials=t, rng=random.Random(0)),
    ),
    ("fibonacci", "n", -2, 20, fibonacci),
    (
        "random_family", "n_terms", 0, 2,
        lambda k: family_view(random_family(5, random.Random(0), n_terms=k)),
    ),
    (
        "matrix_convexity_check", "t_grid", 0, 5,
        lambda t: matrix_convexity_check(ring_family(), -1.0, 0.5, t),
    ),
]
SITE_IDS = [site[0] for site in SITES]


def leaves(x):
    """The values x holds, and the integers its exact values hold."""
    if isinstance(x, dict):
        x = tuple(x.values())
    if isinstance(x, (tuple, list)):
        return [leaf for v in x for leaf in leaves(v)]
    if isinstance(x, Fraction):
        return [x, x.numerator, x.denominator]
    if isinstance(x, Q5):
        return [x, x._p, x._q, x._d]
    return [x]


@lru_cache(maxsize=None)
def python_result(site_id):
    _, _, _, value, call = SITES[SITE_IDS.index(site_id)]
    return call(value)


@pytest.mark.parametrize("dtype", NUMPY_INTEGERS)
@pytest.mark.parametrize("site", SITES, ids=SITE_IDS)
def test_a_numpy_count_reads_as_the_python_int(site, dtype):
    site_id, _, _, value, call = site
    got, want = call(np.dtype(dtype).type(value)), python_result(site_id)
    assert got == want
    # the same types throughout: every count a record keeps is a Python int
    assert [type(x) for x in leaves(got)] == [type(x) for x in leaves(want)]
    assert not any(isinstance(x, np.generic) for x in leaves(got))


BELOW = object()  # a count one less than the site's least


@pytest.mark.parametrize(
    "bad",
    [True, np.True_, 2.0, Fraction(2), "2", None, BELOW],
    ids=lambda bad: "least-1" if bad is BELOW else repr(bad),
)
@pytest.mark.parametrize("site", SITES, ids=SITE_IDS)
def test_every_site_refuses_what_is_not_a_count(site, bad):
    _, name, least, _, call = site
    if bad is BELOW:
        bad = least - 1
    message = f"{name} must be an integer >= {least}, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(bad)


def test_decimal_str_keeps_every_digit_of_a_numpy_digit_count():
    # 10**np.int64(25) wrapped: a third printed as 0.0000000530299326119804928,
    # and a Q5 raised AttributeError
    assert decimal_str(Fraction(1, 3), np.int64(25)) == "0." + "3" * 25
    assert decimal_str(SQRT5, np.int64(25)) == decimal_str(SQRT5, 25)


def test_matrix_convexity_check_refuses_a_bool_t_grid():
    # True was a one-point grid
    with pytest.raises(ValueError, match="^t_grid must be an integer >= 0, got True$"):
        matrix_convexity_check(ring_family(), -1.0, 0.5, True)


def test_strict_convexity_witness_refuses_a_bool_term_index():
    # True selected term 1 and was reported as term_index=True
    with pytest.raises(ValueError, match="^term_index must be an integer >= 0, got True$"):
        strict_convexity_witness(ring_family(), True, -1.0, 0.0)


def test_run_suite_reads_a_numpy_seed_as_the_int():
    # a numpy seed was refused
    assert run_suite("all", np.int64(3)).render("json") == run_suite("all", 3).render("json")
